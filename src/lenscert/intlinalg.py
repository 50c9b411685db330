"""Integer matrices, Smith normal form, and abelianizations.

Entries are Python ints throughout: SNF intermediates and the images a
presentation's generators lift to overflow any fixed word size, so
arbitrary precision is not optional here.

`smith_normal_form` is dense and tracks the column transform V: every
step scans the remaining matrix for its pivot, so it costs about n^3 on
an n x n matrix.  The library runs it only on a presentation's seed
core, of at most k x k entries for k seeds: `presentation.closure`
writes every generator in k seeds (one on a lens space, two on a prism
manifold, three on the 3-torus), `presentation.lift` sends the seeds
to the unit vectors of Z^k, and `seed_core` folds the left-over
relators' images into at most k rows by gcd row operations and returns
that core's Smith normal form with the closure and the coordinates.  H1
is its diagonal (`SeedCore.h1`), and the step-1 certificate reads its
functionals mod n off V (`certificate.noncyclic_certificate`), so a
caller that computes one core gets both from one closure -> lift ->
core path.  Nothing is kept on the presentation: each `seed_core` call
computes the core anew.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import presentation


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


@dataclass(frozen=True)
class SNFResult:
    diag: tuple[int, ...]
    rank: int
    v: IntMatrix  # the column transform: U * A * V = diag for some unimodular U


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize over Z with the divisibility chain d1 | d2 | ..., and
    the unimodular column transform V (cols x cols), which every column
    swap and column addition is applied to.

    Pivot is the smallest nonzero absolute value, ties broken row-major.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = 1
    t = 0
    search = True
    while t < min(m, n):
        if search:
            # the pivot: smallest nonzero |x| below-right of (t, t), row-major
            best = pi = pj = 0
            for i in range(t, m):
                row = d[i]
                for j in range(t, n):
                    x = abs(row[j])
                    if x and (not best or x < best):
                        best, pi, pj = x, i, j
            if not best:
                break
            d[t], d[pi] = d[pi], d[t]
            if pj != t:
                for row in d + v:
                    row[t], row[pj] = row[pj], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        top = d[t]
        p = top[t]
        # clear column t, then row t, with floor-division remainders
        dirty = False
        for i in range(m):
            row = d[i]
            if i != t and row[t] != 0:
                c = row[t] // p
                for j in range(n):
                    row[j] -= c * top[j]
                dirty = dirty or row[t] != 0
        for j in range(n):
            if j != t and top[j] != 0:
                c = top[j] // p
                for row in d + v:
                    row[j] -= c * row[t]
                dirty = dirty or top[j] != 0
        if dirty:  # a remainder is the next pivot's candidate
            search = True
            continue
        # the pivot must divide everything below-right for the chain;
        # an offender's row is added to row t, which the next pass clears
        for i in range(t + 1, m):
            row = d[i]
            if any(x % p for x in row[t + 1 :]):
                d[t] = [x + y for x, y in zip(top, row)]
                search = False
                break
        else:
            t += 1
            search = True

    diag = tuple([d[i][i] for i in range(min(m, n))])
    return SNFResult(diag, len(diag) - diag.count(0), IntMatrix(v, cols=n))


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


class SeedCore(NamedTuple):
    """A presentation's closure, every generator's coordinates in Z^k,
    and the Smith normal form of the relations among the k seeds."""

    closed: presentation.Closure
    coordinates: tuple[tuple[int, ...], ...]  # entry i: coordinate i of each generator
    snf: SNFResult  # of the relations among the seeds, with V

    def h1(self) -> AbelianGroup:
        """G^ab = Z^(k - core rank) plus the core's factors above 1."""
        snf = self.snf
        torsion = tuple(d for d in snf.diag[: snf.rank] if d > 1)
        return AbelianGroup(free_rank=snf.v.cols - snf.rank, torsion=torsion)


def seed_core(pres) -> SeedCore:
    """The presentation's closure, every generator's coordinates in Z^k
    under the lift that sends seed i to the i-th unit vector (one `lift`
    per coordinate, in plain ints), and the Smith normal form, by one
    `smith_normal_form` call through its module-level name, of the
    left-over relators' images folded by gcd row operations into a core
    of at most k rows (one gcd when k = 1)."""
    closed = presentation.closure(pres)
    k = len(closed.seeds)
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    coordinates = tuple(
        tuple(presentation.lift(pres, closed, unit, operator.add, operator.neg, 0))
        for unit in units
    )
    words = [pres.relators[r].letters for r in closed.left]
    columns = []
    for images in coordinates:  # the words' images, one coordinate at a time
        column = []
        for letters in words:
            x = 0
            for gen, exp in letters:
                x += images[gen] if exp == 1 else -images[gen]
            column.append(x)
        columns.append(column)
    if k == 1:
        d = math.gcd(*columns[0])
        core: tuple = ((d,),) if d else ()
    else:
        rows: list = [None] * k
        for v in zip(*columns):
            _fold(rows, v)
        core = tuple(row for row in rows if row is not None)
    snf = smith_normal_form(IntMatrix(core, cols=k))
    return SeedCore(closed, coordinates, snf)


def abelianization(pres) -> AbelianGroup:
    """G^ab by closure, lift, a folded core and one Smith normal form:
    `presentation.closure` writes every generator in k seeds, and G^ab
    is Z^k modulo the images of the left-over relators under the `lift`
    that sends the seeds to the unit vectors (`seed_core`)."""
    return seed_core(pres).h1()


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
