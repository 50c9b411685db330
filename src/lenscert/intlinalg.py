"""Integer matrices, Smith normal form, and abelianizations.

Entries are Python ints throughout: SNF intermediates and the images a
presentation's generators lift to overflow any fixed word size, so
arbitrary precision is not optional here.

`smith_normal_form` is dense and tracks no transform: every step scans
the remaining matrix for its pivot, so it costs about n^3 on an n x n
matrix.  `abelianization` gives it at most k x k entries, k the number
of seeds: H1 is closure -> lift -> folded core -> one SNF.
`presentation.closure` writes every generator in k seeds (one on a lens
space, two on a prism manifold, three on the 3-torus),
`presentation.lift` sends the seeds to the unit vectors of Z^k, and the
left-over relators' images are folded into at most k rows by gcd row
operations before the one SNF.

`_unit_pivot_core` eliminates unit pivots sparsely (Dumas, Saunders and
Villard, J. Symb. Comput. 2001) over Z/n, or over Z when n = 0, and
records each pivot's row, so the step-1 certificate solves the relators
mod n by back-substitution through it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .presentation import closure, lift


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


def _fold(rows: list, v: tuple) -> None:
    """Fold v into the echelon rows, in place: rows[c] is None or a row
    whose first nonzero entry is at column c.  Euclid on the entries at c,
    by row operations, leaves their gcd in rows[c] and clears v there."""
    for c, row in enumerate(rows):
        if not v[c]:
            continue
        if row is None:
            rows[c] = v
            return
        while v[c]:
            q = row[c] // v[c]
            row, v = v, tuple([x - q * y for x, y in zip(row, v)])
        rows[c] = row


def _exponent_image(letters, images: list[int]) -> int:
    """A word's image in Z, from its generators' images."""
    x = 0
    for gen, exp in letters:
        x += images[gen] if exp == 1 else -images[gen]
    return x


def abelianization(pres) -> AbelianGroup:
    """G^ab by closure, lift, a folded core and one Smith normal form.

    `presentation.closure` writes every generator in k seeds, and G^ab is
    Z^k modulo the images of the left-over relators under the `lift` that
    sends the seeds to the unit vectors.  That lift is taken one
    coordinate at a time, in plain ints: coordinate i sends seed i to 1
    and the other seeds to 0.  The left-over images are folded into at
    most k rows by gcd row operations (into one gcd when k = 1), and
    `smith_normal_form` runs once on that core of at most k x k: G^ab =
    Z^(k - core rank) plus the core's factors above 1.
    """
    closed = closure(pres)
    k = len(closed.seeds)
    coords = [
        lift(pres, closed, [int(i == j) for j in range(k)], operator.add, operator.neg, 0)
        for i in range(k)
    ]
    words = [pres.relators[r].letters for r in closed.left]
    columns = [[_exponent_image(letters, images) for letters in words] for images in coords]
    if k == 1:
        d = math.gcd(*columns[0])
        core: tuple = ((d,),) if d else ()
    else:
        rows: list = [None] * k
        for v in zip(*columns):
            _fold(rows, v)
        core = tuple(row for row in rows if row is not None)
    snf = smith_normal_form(IntMatrix.from_checked(core, k))
    torsion = tuple(d for d in snf.diag[: snf.rank] if d > 1)
    return AbelianGroup(free_rank=k - snf.rank, torsion=torsion)


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
