"""Integer matrices, Smith normal form, and abelianizations.

Entries are Python ints throughout: SNF intermediates overflow any fixed
word size, so arbitrary precision is not optional here.

`smith_normal_form` is dense and tracks no transform: every step scans
the remaining matrix for its pivot, so it costs about n^3 on an n x n
matrix.  `abelianization` therefore first eliminates unit pivots sparsely
(Dumas, Saunders and Villard, J. Symb. Comput. 2001): the exponent matrix
of a triangulation's presentation has at most 3 nonzeros per row, mostly
+-1, and what is left for the dense SNF is a small core, built by
`IntMatrix.from_checked` without the int() per entry of the public
constructor.  Each row takes its pivot by one scan of its entries, at
most three on a relator row.  The eliminator, `_unit_pivot_core`, works
over Z and over Z/n and records each pivot's row, so the step-1
certificate solves the relators mod n by back-substitution through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    def __init__(self, entries: Sequence[Sequence[int]], cols: Optional[int] = None):
        rows = len(entries)
        if rows:
            width = len(entries[0])
        else:
            width = cols if cols is not None else 0
        if cols is not None and rows and width != cols:
            raise ValueError("explicit column count disagrees with row width")
        frozen = tuple(tuple(int(x) for x in row) for row in entries)
        for row in frozen:
            if len(row) != width:
                raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", frozen)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", width)

    @classmethod
    def from_checked(cls, entries: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """The matrix on rows already known to be tuples of cols ints, as
        this module's own computations give them: no int() per entry."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        object.__setattr__(matrix, "rows", len(entries))
        object.__setattr__(matrix, "cols", cols)
        return matrix


@dataclass(frozen=True)
class SNFResult:
    diag: tuple[int, ...]
    rank: int


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize over Z with the divisibility chain d1 | d2 | ...

    Pivot is the smallest nonzero absolute value, ties broken row-major.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        drow, srow = d[dst], d[src]
        for j in range(n):
            drow[j] += c * srow[j]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            # clear column t, then row t, with floor-division remainders
            dirty = False
            for i in range(m):
                if i != t and d[i][t] != 0:
                    add_row(i, t, -(d[i][t] // p))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(n):
                if j != t and d[t][j] != 0:
                    add_col(j, t, -(d[t][j] // p))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                pivot = find_pivot(t)
                swap_rows(t, pivot[0])
                swap_cols(t, pivot[1])
                continue
            # pivot must divide everything below-right for the chain
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    diag = tuple(d[i][i] for i in range(min(m, n)))
    rank = sum(1 for x in diag if x != 0)
    return SNFResult(diag, rank)


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank plus cyclic factors in a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for k, d in enumerate(self.torsion):
            if d <= 1:
                raise ValueError("torsion factors must exceed 1")
            if k and self.torsion[k] % self.torsion[k - 1] != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out


def format_abelian(group: AbelianGroup) -> str:
    parts = [f"Z^{group.free_rank}"]
    parts.extend(f"Z/{d}" for d in group.torsion)
    return " + ".join(parts)


def _unit_pivot_core(rows: list[dict[int, int]], g: int, n: int = 0) -> tuple[list, list]:
    """Eliminate unit pivots from sparse rows {col: value} over g columns,
    over Z when n = 0 (units +-1, as gcd(x, 0) = |x|), else over Z/n on
    rows reduced mod n (units prime to n).  A pivot (i, j) with unit u
    clears column j from the other rows, and row i goes.  Rows are swept
    in index order, each taking its unit column with the fewest entries
    (ties to the lower column); later sweeps revisit only rows changed
    since they were last looked at.  The row dicts are updated in place.

    Returns the pivots in order, each (j, u^-1, row i without column j as
    it stood when taken), and the nonzero rows left, which hold no unit.
    A pivot's row names only columns pivoted later or never: once the
    other columns kill the rows left, x_j = -u^-1 * sum(row[c] * x_c) in
    reverse pivot order kills every row.  Over Z each pivot splits off an
    invariant factor 1, so the SNF of `rows` is the rows left's plus ones.
    """
    col_rows: list[set[int]] = [set() for _ in range(g)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    pivots = []
    todo: Sequence[int] = range(len(rows))
    while todo:
        touched: set[int] = set()
        for i in todo:
            touched.discard(i)
            row = rows[i]
            # fewest entries, ties to the lower column, by a plain scan:
            # a relator row holds at most three entries
            j = -1
            fewest = 0
            for col, x in row.items():
                if math.gcd(x, n) == 1:
                    k = len(col_rows[col])
                    if j < 0 or k < fewest or (k == fewest and col < j):
                        j, fewest = col, k
            if j < 0:
                continue
            unit = row.pop(j)
            inverse = pow(unit, -1, n) if n else unit
            # every other row loses column j, and row i goes
            others = col_rows[j]
            col_rows[j] = set()
            others.discard(i)
            entries = row.items()
            for r in others:
                other = rows[r]
                c = other.pop(j) * inverse
                for col, x in entries:
                    y = other.get(col, 0) - c * x
                    if n:
                        y %= n
                    if y:
                        if col not in other:
                            col_rows[col].add(r)
                        other[col] = y
                    else:  # mod n, c * x may vanish where other has no col
                        other.pop(col, None)
                        col_rows[col].discard(r)
            touched.update(others)
            for col in row:
                col_rows[col].discard(i)
            rows[i] = {}
            pivots.append((j, inverse, row))
        todo = sorted(touched)
    return pivots, [row for row in rows if row]


def abelianization(pres) -> AbelianGroup:
    """Structure of G^ab from the Smith normal form of the exponent matrix.

    Unit pivots are eliminated sparsely first (`_unit_pivot_core`); each
    adds an invariant factor 1, and the dense `smith_normal_form` runs
    only on the rows left.  G^ab = Z^(g - k - core rank) plus the core's
    factors above 1, with k the number of unit pivots.
    """
    rows = [w.nonzero_exponent_sums() for w in pres.relators]
    pivots, left = _unit_pivot_core(rows, pres.g)
    cols = sorted({j for row in left for j in row})
    core = tuple(tuple([row.get(j, 0) for j in cols]) for row in left)
    snf = smith_normal_form(IntMatrix.from_checked(core, len(cols)))
    torsion = tuple(d for d in snf.diag[: snf.rank] if d > 1)
    return AbelianGroup(free_rank=pres.g - len(pivots) - snf.rank, torsion=torsion)


def is_cyclic(group: AbelianGroup) -> bool:
    """True iff the group is Z, finite cyclic, or trivial."""
    if group.free_rank == 0:
        return len(group.torsion) <= 1
    return group.free_rank == 1 and not group.torsion


def hadamard_torsion_bound(pres) -> int:
    """l^r with l the longest relator: an upper bound for |Tor(G^ab)|."""
    if not pres.relators:
        raise ValueError("need at least one relator")
    l = max(len(w) for w in pres.relators)
    return l ** len(pres.relators)
