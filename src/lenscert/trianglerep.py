"""Triangle groups T_{n1,n2,n3} and their small PSL(2, F) images.

For a hyperbolic triple with coprime entries the construction follows
the explicit integral representation: x maps to [[2c, 1], [-1, 0]] with
c = cos(pi/n1), y to a conjugate of the same shape, and everything is
reduced modulo a prime p = 1 (mod 2*lcm(n1,n2,n3)) so the cosines become
explicit roots of unity sums in F_p.  The parameter r solves a quadratic
whose discriminant decides whether F_p suffices or F_{p^2} is needed.

The prime field and zeta depend on ell = 2*lcm(n1,n2,n3) alone, so the
prime search (with its primality proof) and root_of_unity (with its
order check) run once per ell, in _cyclotomic_field, and every triple of
that ell shares the FieldSpec it returns.  The build per triple then
runs on plain ints modulo p: the cosines by pow, r by solve_r, x and
y = T S T^-1 (T = [[1, r], [0, 1]], S = [[C2, 1], [-1, 0]]) written out
in closed form, [[C2 - r, 1 - r(C2 - r)], [-1, r]], each with its det
checked once by ProjMatrix.from_reduced.  C1, C2, C3 and r stay local
ints.
Each postcondition is checked once, on ints: the orders of x, y and xy
by projmat.has_order's trace walk, the trace of xy against +-C3 on its
coordinates, and xy != yx.  Facts true by construction are not
rechecked: p is prime because the prime search proved it (FieldSpec
checks only its shape), (xy)^m = 1 in the dihedral image because xy has
order p dividing m, and the relator words are built from constants.
classify compares n2*n3 + n1*n3 + n1*n2 with n1*n2*n3 as ints.
Non-hyperbolic triples get a dihedral image or one of three fixed
spherical matrix pairs over F_3, F_5, F_7.
Every image is the pair (x_image, y_image), over the field x_image.spec.
triangle_image is the one place that reads a triple's common divisor d
and curvature to choose its image: None when d > 1, whose image is the
abelian (Z/d)^2 that certificate.py builds, else the pair of the one
builder that fits; the builders trust that choice and recheck neither.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from .galois import (
    SEARCH_CEILING,
    euler_phi,
    factorize,
    imaginary_unit,
    linnik_ratio,
    quadratic_extension,
    root_of_unity,
    smallest_prime_in_progression,
    sqrt_mod_p,
)
from .presentation import GroupPresentation, Word
from .projmat import has_order
from .psl import FieldSpec, ProjMatrix

HYPERBOLIC = "hyperbolic"
EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"


class RepVerificationError(RuntimeError):
    """A built representation failed its own postconditions (a bug)."""


class TriangleType(NamedTuple):
    n1: int
    n2: int
    n3: int
    ell: int
    d: int
    curvature: str

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)


def classify(n1: int, n2: int, n3: int) -> TriangleType:
    """Sort the triple and classify by the sign of 1/n1 + 1/n2 + 1/n3 - 1,
    which is the sign of n2*n3 + n1*n3 + n1*n2 - n1*n2*n3."""
    a, b, c = sorted((n1, n2, n3))
    if a < 2:
        raise ValueError("triangle group orders must be at least 2")
    total, product = b * c + a * c + a * b, a * b * c
    if total < product:
        curvature = HYPERBOLIC
    elif total == product:
        curvature = EUCLIDEAN
    else:
        curvature = SPHERICAL
    return TriangleType(a, b, c, 2 * math.lcm(a, b, c), math.gcd(a, b, c), curvature)


def triangle_presentation(t: TriangleType) -> GroupPresentation:
    """<x, y | x^n1, y^n2, (xy)^n3> with labels x, y, built from letters
    that are well formed by construction."""
    relators = (
        Word.from_checked(((0, 1),) * t.n1),
        Word.from_checked(((1, 1),) * t.n2),
        Word.from_checked(((0, 1), (1, 1)) * t.n3),
    )
    return GroupPresentation.from_checked(2, relators, ("x", "y"))


def reduced_cosines(
    spec: FieldSpec, ell: int, zeta: int, triple: tuple[int, int, int]
) -> tuple[int, int, int]:
    """(C1, C2, C3) as ints in [0, p) for zeta of exact order ell in the
    prime field spec: C_k = zeta^(ell/2n_k) + zeta^(-ell/2n_k), the image
    of 2cos(pi/n_k)."""
    p = spec.p
    # zeta^-k = zeta^(ell-k), as zeta has order ell
    c1, c2, c3 = (
        (pow(zeta, k, p) + pow(zeta, ell - k, p)) % p for k in (ell // (2 * n) for n in triple)
    )
    return (c1, c2, c3)


def solve_r(spec: FieldSpec, c1: int, c2: int, c3: int) -> tuple[FieldSpec, tuple[int, int]]:
    """Root (r0, r1), meaning r0 + r1*w, of r^2 + r(C1-C2) + (2 - C1*C2 - C3)
    for C_k in the prime field spec: over F_p when the discriminant is a
    square there, else over F_{p^2} = F_p[w] (and then r0 = -(C1-C2)/2)."""
    if spec.degree != 1:
        raise ValueError("solve_r starts from the prime field")
    p = spec.p
    half = (p + 1) // 2
    lin = (c1 - c2) % p
    const = (2 - c1 * c2 - c3) % p
    disc = (lin * lin - 4 * const) % p
    root = sqrt_mod_p(disc, p)
    if root is not None:
        out_spec, r0, r1 = spec, (root - lin) * half % p, 0
    else:
        out_spec = quadratic_extension(spec)
        u = sqrt_mod_p(disc * pow(out_spec.s, p - 2, p), p)  # disc/s is a residue
        assert u is not None
        r0, r1 = -lin * half % p, u * half % p
    s = out_spec.s or 0
    # r^2 + r*lin + const, with w^2 = s
    if (r0 * r0 + s * r1 * r1 + r0 * lin + const) % p or (2 * r0 + lin) * r1 % p:
        raise RepVerificationError("r does not satisfy its quadratic")
    return out_spec, (r0, r1)


def _standard_matrix(spec: FieldSpec, c: int) -> ProjMatrix:
    """[[C, 1], [-1, 0]] for C in [0, p): determinant 1, trace the cosine
    value."""
    return ProjMatrix.from_reduced(spec, (c, 0, 1, 0, spec.p - 1, 0, 0, 0))


def _conjugated_standard(spec: FieldSpec, c: int, r0: int, r1: int) -> ProjMatrix:
    """T [[C, 1], [-1, 0]] T^-1 for T = [[1, r], [0, 1]], r = r0 + r1*w
    reduced as solve_r gives it: [[C - r, 1 - r(C - r)], [-1, r]]."""
    p, s = spec.p, spec.s or 0
    # C - r = d0 + d1*w, and r(C - r) = (r0*d0 + s*r1*d1) + (r0*d1 + r1*d0)*w
    d0, d1 = (c - r0) % p, -r1 % p
    b0, b1 = (1 - r0 * d0 - s * r1 * d1) % p, -(r0 * d1 + r1 * d0) % p
    return ProjMatrix.from_reduced(spec, (d0, d1, b0, b1, p - 1, 0, r0, r1))


@lru_cache(maxsize=None)
def _cyclotomic_field(ell: int) -> tuple[FieldSpec, int]:
    """F_p for the least prime p = 1 (mod ell), up to the prime search's
    ceiling, and zeta of exact order ell in it as an int: the prime
    search and root_of_unity, with their primality proof and order
    check, run once per ell."""
    spec = FieldSpec(smallest_prime_in_progression(ell))
    return spec, root_of_unity(spec, ell).a


def build_hyperbolic_rep(t: TriangleType) -> tuple[ProjMatrix, ProjMatrix]:
    """The images of x and y in the mod-p image of a coprime hyperbolic
    triple.

    Postconditions are checked computationally: images of x, y, xy have
    projective orders exactly n1, n2, n3, the trace of the xy image is
    +-C3, and xy, yx have distinct images.  Any failure is a bug, not a
    math failure, and raises RepVerificationError.
    """
    base, zeta = _cyclotomic_field(t.ell)
    p = base.p
    c1, c2, c3 = reduced_cosines(base, t.ell, zeta, t.triple)
    spec, r = solve_r(base, c1, c2, c3)

    x_img = _standard_matrix(spec, c1)
    y_img = _conjugated_standard(spec, c2, *r)

    v = _checked_xy(x_img, y_img, t.triple).coords
    if (v[1] + v[7]) % p or (v[0] + v[6]) % p not in (c3, -c3 % p):
        raise RepVerificationError("trace of xy image is not +-C3")
    return x_img, y_img


# x and y images for the spherical triples over F_p, entries (a, b, c, d):
# the pairs that an exhaustive search of PSL(2, p), p = 3, 5, 7 in turn,
# finds first.  tests/oracles.py keeps that search.
_SPHERICAL = {
    (2, 3, 3): (3, (0, 1, 2, 0), (0, 1, 2, 1)),
    (2, 3, 4): (7, (0, 1, 6, 0), (1, 1, 4, 5)),
    (2, 3, 5): (5, (0, 1, 4, 0), (0, 1, 4, 1)),
}


def _checked_xy(
    x_img: ProjMatrix, y_img: ProjMatrix, orders: tuple[int, int, int]
) -> ProjMatrix:
    """The image of xy, once x, y and xy are checked to have projective
    orders exactly orders and xy != yx; a failure is a bug and raises
    RepVerificationError."""
    xy = x_img.mul(y_img)
    for name, m, n in zip(("x", "y", "xy"), (x_img, y_img, xy), orders):
        if not has_order(m, n):
            raise RepVerificationError(f"image of {name} does not have order {n}")
    if xy == y_img.mul(x_img):
        raise RepVerificationError("image is abelian")
    return xy


def triangle_image(t: TriangleType) -> Optional[tuple[ProjMatrix, ProjMatrix]]:
    """The images of x and y in a non-abelian image of T(n1, n2, n3), over
    the field of x's image: the mod-p representation for a coprime
    hyperbolic triple, build_nonhyperbolic_cert for any other coprime
    one, and None for a triple with a common divisor d > 1."""
    if t.d > 1:
        return None
    if t.curvature == HYPERBOLIC:
        return build_hyperbolic_rep(t)
    return build_nonhyperbolic_cert(t)


def build_nonhyperbolic_cert(t: TriangleType) -> tuple[ProjMatrix, ProjMatrix]:
    """The images of x and y for a non-hyperbolic triple without a common
    divisor.

    The spherical triples get the fixed matrix pairs of _SPHERICAL;
    (2,3,6) reuses the (2,3,3) images since (xy)^3 = 1 kills (xy)^6; odd
    (2,2,m) gets the dihedral image over the smallest prime divisor of m.
    """
    if t.triple in _SPHERICAL:
        return _spherical_pair(t.triple)
    if t.triple == (2, 3, 6):
        return _spherical_pair((2, 3, 3))
    if t.n1 == 2 and t.n2 == 2 and t.n3 % 2 == 1:
        return _dihedral_pair(t.n3)
    raise ValueError(f"no construction for triple {t.triple}")


def _spherical_pair(orders: tuple[int, int, int]) -> tuple[ProjMatrix, ProjMatrix]:
    """The _SPHERICAL pair for orders, checked by _checked_xy."""
    p, x, y = _SPHERICAL[orders]
    spec = FieldSpec(p)
    x_img, y_img = (
        ProjMatrix.from_reduced(spec, (m[0], 0, m[1], 0, m[2], 0, m[3], 0)) for m in (x, y)
    )
    _checked_xy(x_img, y_img, orders)
    return x_img, y_img


def _dihedral_pair(m: int) -> tuple[ProjMatrix, ProjMatrix]:
    """x -> diag(i, -i), y -> [[i, i], [0, -i]] over F_p or F_p[i] for the
    smallest prime divisor p of m, so xy is unipotent of order p."""
    p = min(factorize(m))
    spec = FieldSpec(p) if p % 4 == 1 else quadratic_extension(FieldSpec(p))
    i = imaginary_unit(spec)
    i0, i1, j0, j1 = i.a, i.b, -i.a % p, -i.b % p  # i and -i
    x_img = ProjMatrix.from_reduced(spec, (i0, i1, 0, 0, 0, 0, j0, j1))
    y_img = ProjMatrix.from_reduced(spec, (i0, i1, i0, i1, 0, 0, j0, j1))
    # xy has order p, which divides m, so (xy)^m = 1 follows
    _checked_xy(x_img, y_img, (2, 2, p))
    return x_img, y_img


def cosine_norm(n: int, variant: str = "plain") -> int:
    """|field norm| of 2cos(pi/n) over Q (plain) or of 2cos(pi/n) - 2
    (minus_two), by the closed forms: p^2 when n is twice a power of the
    prime p, else 1; and 4 when n is a power of 2, else 1."""
    if n <= 2:
        raise ValueError("need n > 2")
    if variant == "plain":
        if n % 2 == 0:
            half = n // 2
            base = _prime_power_base(half)
            if base is not None:
                return base * base
        return 1
    if variant == "minus_two":
        return 4 if n & (n - 1) == 0 else 1
    raise ValueError(f"unknown variant {variant!r}")


def _prime_power_base(m: int) -> Optional[int]:
    """p when m = p^e with e >= 1, else None, for m >= 2."""
    factors = factorize(m)
    if len(factors) == 1:
        return next(iter(factors))
    return None


def cyclotomic_eval(k: int, at: int) -> int:
    """Exact value of the k-th cyclotomic polynomial at +1 or -1, by the
    closed forms: Phi_1(1) = 0 and Phi_1(-1) = -2; Phi_k(-1) = 1 for odd
    k > 1; Phi_2m(-1) = Phi_m(1); and for k > 1, Phi_k(1) is p when k is
    a power of the prime p, else 1."""
    if k < 1:
        raise ValueError("k must be positive")
    if at not in (1, -1):
        raise ValueError("evaluation point must be +1 or -1")
    if at == -1:
        if k % 2:
            return -2 if k == 1 else 1
        k //= 2
    if k == 1:
        return 0
    return _prime_power_base(k) or 1


class FieldDegreeReport(NamedTuple):
    triple: tuple[int, int, int]
    ell: int
    trace_degree: int  # phi(ell)/2
    candidate_degrees: tuple[int, int]
    witness_l: Optional[int]
    verdict: str  # "degree_phi", "half_possible", "undetermined"
    variant_disagrees: bool


def field_degree_report(t: TriangleType) -> FieldDegreeReport:
    """Scan l coprime to ell for a non-real embedding witness.

    The inequality tested is the published one, indexed by (n2, n3); the
    proof's discriminant condition indexes (n1, n2, n3) instead, so both
    are scanned and a disagreement on the verdict is flagged rather than
    silently resolved.  An ell at or past the prime search's ceiling is
    refused before the scan, as no certificate of the triple is built.
    """
    if t.curvature != HYPERBOLIC:
        raise ValueError(f"triple {t.triple} is {t.curvature}; the scan needs hyperbolic")
    if t.ell >= SEARCH_CEILING:
        raise ValueError(f"ell = {t.ell} is not below the prime search's ceiling {SEARCH_CEILING}")
    phi = euler_phi(t.ell)
    witness = _embedding_witness(t.ell, t.n2, t.n3, t.n3)
    variant = _embedding_witness(t.ell, t.n1, t.n2, t.n3)
    if witness[0] is not None:
        verdict = "degree_phi"
    elif witness[1]:
        verdict = "half_possible"
    else:
        verdict = "undetermined"
    return FieldDegreeReport(
        triple=t.triple,
        ell=t.ell,
        trace_degree=phi // 2,
        candidate_degrees=(phi // 2, phi),
        witness_l=witness[0],
        verdict=verdict,
        variant_disagrees=(witness[0] is None) != (variant[0] is None),
    )


# float slack around 2 in the embedding inequality: a value within it of
# 2 is neither a witness nor a clear non-witness
_EMBEDDING_MARGIN = 1e-9


def _embedding_witness(ell: int, na: int, nb: int, nc: int) -> tuple[Optional[int], bool]:
    """First l with (cos(pi l/na) + cos(pi l/nb))^2 + 2cos(pi l/nc) < 2,
    and whether every non-witness cleared the far side of the margin."""
    all_clear = True
    for l in range(1, ell):
        if math.gcd(l, ell) != 1:
            continue
        value = (
            math.cos(math.pi * l / na) + math.cos(math.pi * l / nb)
        ) ** 2 + 2 * math.cos(math.pi * l / nc)
        if value < 2 - _EMBEDDING_MARGIN:
            return l, all_clear
        if value <= 2 + _EMBEDDING_MARGIN:
            all_clear = False
    return None, all_clear


# floor(log2(3) * 10^80): log2(3) lies strictly between _LOG2_3 / 10^80
# and (_LOG2_3 + 1) / 10^80, as it is irrational
_LOG2_3 = 158496250072115618145373894394781650875981440769248106045575265454109822779435856


def _at_most_power(n: int, a: int, b: int) -> tuple[int, bool]:
    """The bit length of 2^a * 3^b, a + floor(b log2 3) + 1, and whether
    n <= 2^a * 3^b.  floor(b log2 3) is read off both ends of the bracket
    on log2 3, or ValueError where they differ: only when b log2 3 lies
    within b / 10^80 of an integer, and always when b >= 10^80.  The
    power is formed only when n has its bit length."""
    low, high = (b * k // 10**80 for k in (_LOG2_3, _LOG2_3 + 1))
    if low != high:
        raise ValueError(f"the 80-digit bracket on log2 3 cannot place floor({b} log2 3)")
    bits = a + low + 1
    n_bits = n.bit_length()
    return bits, n_bits < bits or (n_bits == bits and n <= 2**a * 3**b)


class BoundReport(NamedTuple):
    """Big-integer comparisons against the certificate-size bounds.

    Everything here is reported, never asserted: the absolute constant in
    the prime-search bound is effectively computable but unknown.  The
    bounds 2^(2t) * 3^(12t) and 2^(t-1) * 3^(6t) have about 21t and 10.5t
    bits, so the report holds their bit lengths; ell_bound and
    degree_bound form them only when read.
    """

    triple: tuple[int, int, int]
    ell: int
    d: int
    t: Optional[int] = None
    ell_bound_bits: Optional[int] = None  # of 2^(2t) * 3^(12t)
    ell_within_bound: Optional[bool] = None
    trace_degree: Optional[int] = None  # phi(ell)/2
    degree_bound_bits: Optional[int] = None  # of 2^(t-1) * 3^(6t)
    degree_within_bound: Optional[bool] = None
    field_size: Optional[int] = None
    field_within_ell10: Optional[bool] = None
    field_ratio_ell10: Optional[float] = None
    prime: Optional[int] = None
    linnik_ratio: Optional[float] = None

    @property
    def ell_bound(self) -> Optional[int]:
        """2^(2t) * 3^(12t)."""
        return None if self.t is None else 2 ** (2 * self.t) * 3 ** (12 * self.t)

    @property
    def degree_bound(self) -> Optional[int]:
        """2^(t-1) * 3^(6t)."""
        return None if self.t is None else 2 ** (self.t - 1) * 3 ** (6 * self.t)


def bound_report(
    t_type: TriangleType,
    t: Optional[int] = None,
    spec: Optional[FieldSpec] = None,
) -> BoundReport:
    """spec is the field of the triple's image, as in the field of its x
    image or a certificate's field; without it the field rows stay None.
    t, the tetrahedron count, must be at least 1, with both bounds' bit
    lengths placed by _at_most_power's 80-digit bracket on log2 3."""
    if t is not None and t < 1:
        raise ValueError(f"tetrahedron count t={t} must be at least 1")
    ell = t_type.ell
    phi_half = euler_phi(ell) // 2
    kwargs: dict = {}
    if t is not None:
        try:
            # the exponents of the two bounds, as in BoundReport's fields
            ell_bits, ell_within = _at_most_power(ell, 2 * t, 12 * t)
            degree_bits, degree_within = _at_most_power(phi_half, t - 1, 6 * t)
        except ValueError as exc:
            raise ValueError(f"tetrahedron count t={t}: {exc}") from None
        kwargs.update(
            t=t,
            ell_bound_bits=ell_bits,
            ell_within_bound=ell_within,
            trace_degree=phi_half,
            degree_bound_bits=degree_bits,
            degree_within_bound=degree_within,
        )
    if spec is not None:
        size, budget = spec.p**spec.degree, ell**10
        kwargs.update(
            field_size=size,
            field_within_ell10=size < budget,
            field_ratio_ell10=size / budget,
            prime=spec.p,
            linnik_ratio=linnik_ratio(spec.p, ell),
        )
        kwargs.setdefault("trace_degree", phi_half)
    return BoundReport(triple=t_type.triple, ell=ell, d=t_type.d, **kwargs)


def hyperbolic_triples(max_n: int) -> list[TriangleType]:
    """All sorted hyperbolic triples with entries in [2, max_n]."""
    out = []
    for a in range(2, max_n + 1):
        for b in range(a, max_n + 1):
            for c in range(b, max_n + 1):
                t = classify(a, b, c)
                if t.curvature == HYPERBOLIC:
                    out.append(t)
    return out
