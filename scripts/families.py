"""The manifold families of scripts/make_fixtures.py and the truth of each.

This module is the one home of each family's ground truth: its first
homology, whether it is orientable and whether its fundamental group is
cyclic, each a standard fact independent of this code and named by the
one line of reason beside it.  make_fixtures.main records the named
fixtures' H1 and orientability from it, and the tests compare the
library and the product with it instead of restating it.

A family is its builder (defined in make_fixtures), its parameter rule
`members(below)`, the parameter tuples of its members below a size, and
`truth(*params)`.  A new family is one more record in FAMILIES.
"""

from math import gcd
from typing import Callable, NamedTuple, Optional

import make_fixtures
from lenscert.intlinalg import AbelianGroup


class Truth(NamedTuple):
    h1: AbelianGroup
    orientable: bool
    cyclic_pi1: Optional[bool]  # None: not known
    reason: str


class Family(NamedTuple):
    build: Callable
    members: Callable[[int], list[tuple]]
    truth: Callable[..., Truth]


def lens_pairs(below: int, step: int = 1) -> list[tuple[int, int]]:
    """Each coprime (p, q) with 0 < q < p and p in range(2, below, step), by p, then q."""
    return [(p, q) for p in range(2, below, step) for q in range(1, p) if gcd(p, q) == 1]


def _one_space(below: int) -> list[tuple]:
    return [()]


def _s3_truth() -> Truth:
    return Truth(AbelianGroup(0), True, True, "the boundary of the 4-simplex is S^3, simply connected")


def _lens_truth(p: int, q: int) -> Truth:
    return Truth(AbelianGroup(0, (p,)), True, True, "pi1(L(p,q)) = Z/p, the deck group of S^3 over it")


def _torus_truth() -> Truth:
    return Truth(AbelianGroup(3), True, False, "pi1(T^3) = Z^3")


def _sphere_bundle_truth(twisted: bool) -> Truth:
    return Truth(
        AbelianGroup(1), not twisted, True,
        "pi1 = Z, the circle's; the twisted bundle's monodromy reverses the fibre's orientation",
    )


def _prism_truth(m: int) -> Truth:
    return Truth(
        AbelianGroup(0, (4,) if m % 2 else (2, 2)), True, False,
        "pi1 = Q_{4m}, non-abelian for m >= 2, and H1 = Z/4 for odd m, (Z/2)^2 for even m "
        "(Orlik, Seifert Manifolds, LNM 291, 1972)",
    )


FAMILIES = {family.build.__name__: family for family in (
    Family(make_fixtures.boundary_4_simplex, _one_space, _s3_truth),
    Family(make_fixtures.lens_space, lens_pairs, _lens_truth),
    Family(make_fixtures.three_torus, _one_space, _torus_truth),
    Family(make_fixtures.sphere_bundle, lambda below: [(False,), (True,)], _sphere_bundle_truth),
    Family(make_fixtures.prism_manifold, lambda below: [(m,) for m in range(2, below)], _prism_truth),
)}
