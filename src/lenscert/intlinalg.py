"""Integer matrices, Smith normal form, abelianizations, and the closure
that writes a presentation's generators in a few seeds.

Entries are Python ints throughout: SNF intermediates and the images a
presentation's generators lift to overflow any fixed word size, so
arbitrary precision is not optional here.

`closure` writes every generator, in one linear pass, in k seeds (one on
a lens space, two on a prism manifold, three on the 3-torus) by a
straight-line program, and leaves the other relators over; `lift` runs
that program over any group.  `seed_core` lifts the seeds to the unit
vectors of Z^k, folds the left-over relators' images into at most k rows
by gcd row operations, and returns that core's Smith normal form with
the closure and the coordinates.  `smith_normal_form` is dense and
tracks the column transform V, at about n^3 on an n x n matrix.  H1 is
the core's diagonal (`SeedCore.h1`), and the step-1 certificate reads
its functionals mod n off V (`certificate.noncyclic_certificate`), so a
caller that computes one core gets both from one closure -> lift -> core
path.  Nothing is kept on the presentation.  All of this is producer
code: the checker runs none of it.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Optional, Sequence

from .psl import Frozen


class IntMatrix(Frozen):
    __slots__ = _fields = ("entries", "rows", "cols")

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


class SNFResult(NamedTuple):
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


class AbelianGroup(Frozen):
    """Z^free_rank plus cyclic factors in a divisibility chain."""

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()) -> None:
        for k, d in enumerate(torsion):
            if d <= 1:
                raise ValueError("torsion factors must exceed 1")
            if k and torsion[k] % torsion[k - 1] != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

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


class Closure(NamedTuple):
    """A presentation's seeds, straight-line program and left-over
    relators, as `closure` finds them."""

    seeds: tuple[int, ...]
    program: tuple[tuple[int, int], ...]  # (generator, relator index) steps
    left: tuple[int, ...]  # indices of the relators that define nothing


def closure(pres) -> Closure:
    """Every generator written in a few seed generators, in one linear pass.

    A relator with exactly one letter whose generator is still
    undetermined, A u^e B = 1, defines that generator: u^e = (B A)^-1.
    Each relator keeps a count of such letters, and an occurrence index
    finds the relators a newly determined generator touches.  The order is
    fixed, so a checker can replay it:

      * ready relators, those whose count is 1, are taken first in,
        first out: the one-letter relators in index order, then, each
        time a generator is determined, the relators whose count it
        brings to 1, in index order;
      * a ready relator whose count has fallen to 0 by its turn is
        skipped;
      * when no relator is ready, the lowest undetermined generator
        becomes the next seed, until every generator is determined.

    The relators that define nothing are left over: seed images give a
    homomorphism iff their `lift` kills each of them.
    """
    relators, g = pres.relators, pres.g
    occurrences: list[list[int]] = [[] for _ in range(g)]
    for r, word in enumerate(relators):
        for gen, _ in word.letters:
            occurrences[gen].append(r)
    # letters whose generator is still undetermined, per relator
    count = [len(word.letters) for word in relators]
    determined = bytearray(g)
    defines = bytearray(len(relators))
    seeds: list[int] = []
    program: list[tuple[int, int]] = []
    ready = [r for r, n in enumerate(count) if n == 1]

    def determine(gen: int) -> None:
        determined[gen] = 1
        for s in occurrences[gen]:
            count[s] -= 1
            if count[s] == 1:
                ready.append(s)

    lowest = 0
    while True:
        for r in ready:  # the list grows as relators become ready
            if count[r] != 1:
                continue
            for gen, _ in relators[r].letters:
                if not determined[gen]:
                    break
            defines[r] = 1
            program.append((gen, r))
            determine(gen)
        ready.clear()
        while lowest < g and determined[lowest]:
            lowest += 1
        if lowest == g:
            break
        seeds.append(lowest)
        determine(lowest)
    left = tuple([r for r, used in enumerate(defines) if not used])
    return Closure(tuple(seeds), tuple(program), left)


def lift(
    pres, closed: Closure, seed_images: Sequence,
    mul: Callable, inv: Callable, one,
) -> list:
    """Every generator's image, from the seeds' images, by running the
    closure's program over any group given by mul, inv and one.

    A step (u, r) reads relator r as A u^e B = 1, so u^e = (B A)^-1; a
    one-letter relator gives u = one.  The images define a homomorphism
    iff they kill every left-over relator.
    """
    images: list = [None] * pres.g
    for gen, image in zip(closed.seeds, seed_images, strict=True):
        images[gen] = image
    relators = pres.relators
    for gen, r in closed.program:
        letters = relators[r].letters
        k = 0
        while letters[k][0] != gen:
            k += 1
        value = one  # B A: the letters after u, then those before it
        for x, e in letters[k + 1 :] + letters[:k]:
            value = mul(value, images[x] if e == 1 else inv(images[x]))
        images[gen] = inv(value) if letters[k][1] == 1 else value
    return images


class SeedCore(NamedTuple):
    """A presentation's closure, every generator's coordinates in Z^k,
    and the Smith normal form of the relations among the k seeds."""

    closed: Closure
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
    closed = closure(pres)
    k = len(closed.seeds)
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    coordinates = tuple(
        tuple(lift(pres, closed, unit, operator.add, operator.neg, 0))
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
    `closure` writes every generator in k seeds, and G^ab
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
