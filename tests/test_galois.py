import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscert import galois
from lenscert.galois import (
    PrimalityBoundError,
    SearchLimitExceeded,
    euler_phi,
    factorize,
    imaginary_unit,
    is_prime,
    is_quadratic_residue,
    linnik_ratio,
    primitive_root,
    quadratic_extension,
    root_of_unity,
    smallest_nonresidue,
    smallest_prime_in_progression,
    sqrt_mod_p,
)
from lenscert.psl import FieldSpec, parse_coords, parse_decimal
from oracles import element_order, primes_in_progression_by_scan


# ----------------------------------------------------------------------
# primality and prime search


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(1, 43):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_squares():
    for n in (561, 1105, 1729, 25326001, 10**12 + 1):
        assert not is_prime(n)
    assert is_prime(10**9 + 7)
    assert is_prime(2**61 - 1)


def test_is_prime_bound_error():
    with pytest.raises(PrimalityBoundError):
        is_prime(2**89 - 1)


# psi_k, the least strong pseudoprime to each of the first k prime bases
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_rejects_psi_k(k):
    # psi_k passes the test to the first k bases, so a base set one short
    # of what its range needs would call it prime
    assert all(strong_probable_prime(PSI[k], a) for a in PRIME_BASES[:k])
    assert not is_prime(PSI[k])


def test_is_prime_range_ends_at_psi_13():
    assert PSI[12] == 399165290221 * 798330580441
    assert not is_prime(PSI[12])
    with pytest.raises(PrimalityBoundError):
        is_prime(PSI[13])


def test_is_prime_matches_trial_division_across_range_ends():
    for psi in (PSI[1], PSI[2], PSI[3]):
        for n in range(psi - 300, psi + 300):
            expected = all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_prime(n) == expected, n


@pytest.mark.parametrize("l,expected", [(2, 3), (4, 5), (84, 337)])
def test_smallest_prime_examples(l, expected):
    assert smallest_prime_in_progression(l) == expected


def test_smallest_prime_84_derivation():
    # scan over 85, 169, 253, 337 by trial division
    assert primes_in_progression_by_scan(84)[0] == 337


def test_smallest_prime_matches_scan_oracle():
    for l in range(2, 120):
        assert smallest_prime_in_progression(l) == primes_in_progression_by_scan(l)[0]


def test_no_smaller_prime_exists():
    for l in (6, 24, 84, 120):
        p = smallest_prime_in_progression(l)
        for candidate in range(l + 1, p, l):
            assert not is_prime(candidate)


def test_search_ceiling(monkeypatch):
    monkeypatch.setattr(galois, "SEARCH_CEILING", 300)
    with pytest.raises(SearchLimitExceeded, match="below ceiling 300"):
        smallest_prime_in_progression(84)


def test_linnik_ratio_is_reported_value():
    assert linnik_ratio(337, 84) == 337 / 84**5.18


# ----------------------------------------------------------------------
# field specs and arithmetic


def test_field_spec_validation():
    for p in (-3, 0, 1, 2, 4, 2**127):
        with pytest.raises(ValueError, match="odd and at least 3"):
            FieldSpec(p)
    with pytest.raises(ValueError):
        FieldSpec(5, 2, None)
    for s in (0, 5, 6, -1):
        with pytest.raises(ValueError, match=r"is not in \[1, 5\)"):
            FieldSpec(5, 2, s)
    with pytest.raises(ValueError):
        FieldSpec(5, 1, 2)
    with pytest.raises(ValueError):
        FieldSpec(5, 3, 2)
    assert FieldSpec(5, 2, 2).s == 2


def test_field_spec_checks_its_shape_only():
    """A spec names the ring Z/p[w]/(w^2 - s): a composite p, a p beyond
    the deterministic primality range and a square s are all accepted."""
    for p in (9, 15, 105, PSI[12], PSI[13], 2**127 - 1, 2**2203 - 1):
        assert FieldSpec(p).p == p
        assert FieldSpec(p, 2, 1).s == 1
    assert FieldSpec(5, 2, 4).s == 4  # 4 is a square mod 5


def test_smallest_nonresidue_values():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(337) == 5


def test_add_in_f5():
    spec = FieldSpec(5)
    assert spec.element(3) + spec.element(4) == spec.element(2)


def test_sqrt_of_nonresidue_squares_to_it():
    spec = quadratic_extension(FieldSpec(5))
    w = spec.element(0, 1)
    assert w * w == spec.element(2)


def test_inverse_in_f337():
    spec = FieldSpec(337)
    rng = random.Random(1)
    for _ in range(50):
        x = spec.element(rng.randrange(1, 337))
        assert x * x.inverse() == spec.one()


def test_division_by_zero():
    spec = FieldSpec(5)
    with pytest.raises(ZeroDivisionError):
        spec.zero().inverse()


@pytest.mark.parametrize("spec, units, non_unit", [
    (FieldSpec(9), 6, (3, 0)),
    (FieldSpec(7, 2, 2), 36, (3, 1)),  # 2 = 3^2 mod 7, so w^2 - 2 splits
])
def test_inverse_in_a_ring_that_is_not_a_field(spec, units, non_unit):
    """FieldSpec takes any odd modulus and any s, so its ring may have zero
    divisors: each unit, found by search, gets its true inverse, and each
    nonzero non-unit is refused."""
    one = spec.one()
    w_range = range(spec.p if spec.degree == 2 else 1)
    elements = [spec.element(a, b) for a in range(spec.p) for b in w_range]
    found = 0
    for u in elements:
        if any(u * v == one for v in elements):
            found += 1
            assert u * u.inverse() == one, u
        elif not u.is_zero():
            with pytest.raises(ValueError):
                u.inverse()
    assert found == units
    with pytest.raises(ValueError):
        spec.element(*non_unit).inverse()


@settings(max_examples=200)
@given(st.integers(0, 336), st.integers(0, 336), st.integers(0, 336))
def test_field_axioms_prime_field(a, b, c):
    spec = FieldSpec(337)
    x, y, z = spec.element(a), spec.element(b), spec.element(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x


@settings(max_examples=200)
@given(*(st.integers(0, 12) for _ in range(6)))
def test_field_axioms_quadratic(a0, a1, b0, b1, c0, c1):
    spec = quadratic_extension(FieldSpec(13))
    x, y, z = spec.element(a0, a1), spec.element(b0, b1), spec.element(c0, c1)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == spec.one()


def test_pow_negative_exponent():
    spec = quadratic_extension(FieldSpec(7))
    x = spec.element(3, 2)
    assert x**-3 == (x**3).inverse()
    assert x**0 == spec.one()


def test_element_serialization_roundtrip():
    spec2 = quadratic_extension(FieldSpec(13))
    for text in ("0+0*w", "5+12*w"):
        assert str(spec2.element(*parse_coords(text, spec2))) == text
    spec1 = FieldSpec(13)
    assert str(spec1.element(*parse_coords("11", spec1))) == "11"


def test_parse_decimal_accepts_only_canonical_ascii():
    for text in ("0", "7", "10", "337", "123456789012345678901234567890"):
        assert parse_decimal(text) == int(text)
        assert str(parse_decimal(text)) == text
    for text in ("", "00", "07", "0_1", "1_000", "+1", "-1", "-0", " 1", "1 ", "٣", "²", "1.0", "0x1"):
        with pytest.raises(ValueError, match="invalid literal"):
            parse_decimal(text)


def test_field_element_parser_uses_the_decimal_rule():
    spec1, spec2 = FieldSpec(13), quadratic_extension(FieldSpec(13))
    assert parse_coords("12", spec1) == (12, 0)
    assert parse_coords("0+12*w", spec2) == (0, 12)
    for text, spec in (("012", spec1), ("+1", spec1), (" 1", spec1), ("1+01*w", spec2),
                       ("1++1*w", spec2), ("0_1+1*w", spec2), ("1+1*w ", spec2)):
        with pytest.raises(ValueError):
            parse_coords(text, spec)
    with pytest.raises(ValueError, match="coordinate 13 out of range for p=13"):
        parse_coords("1+13*w", spec2)
    with pytest.raises(ValueError, match="bad degree-2 element syntax"):
        parse_coords("1-1*w", spec2)


# ----------------------------------------------------------------------
# square roots


def test_sqrt_zero():
    assert sqrt_mod_p(0, 337) == 0


def test_sqrt_four():
    assert sqrt_mod_p(4, 337) == 2  # canonical root is the smaller one


def test_sqrt_exhaustive_small_primes():
    primes = [p for p in range(3, 1000, 2) if all(p % d for d in range(3, p, 2))]
    for p in primes:
        squares = {}
        for x in range(p):
            squares.setdefault(x * x % p, min(x, p - x))
        for a in range(p):
            root = sqrt_mod_p(a, p)
            if a in squares:
                assert root == squares[a]
                assert root * root % p == a
            else:
                assert root is None


def test_sqrt_euler_criterion():
    rng = random.Random(5)
    p = 10**9 + 7
    for _ in range(40):
        a = rng.randrange(1, p)
        has_root = sqrt_mod_p(a, p) is not None
        assert has_root == (pow(a, (p - 1) // 2, p) == 1)
        assert has_root == is_quadratic_residue(a, p)


# ----------------------------------------------------------------------
# roots of unity and orders


def test_root_of_unity_p5():
    z = root_of_unity(FieldSpec(5), 4)
    assert z.a in (2, 3)
    assert z.a == 2  # from the smallest primitive root


def test_root_of_unity_p3():
    assert root_of_unity(FieldSpec(3), 2).a == 2


def test_root_of_unity_337():
    z = root_of_unity(FieldSpec(337), 84)
    assert z**84 == z.spec.one()
    for q in (2, 3, 7):
        assert z ** (84 // q) != z.spec.one()


def test_quadratic_extension_matches_checked_constructor():
    for p in (3, 5, 7, 13, 17, 337, 1009):
        ext = quadratic_extension(FieldSpec(p))
        assert ext == FieldSpec(p, 2, smallest_nonresidue(p))
        assert hash(ext) == hash(FieldSpec(p, 2, smallest_nonresidue(p)))
    with pytest.raises(ValueError, match="prime field"):
        quadratic_extension(quadratic_extension(FieldSpec(5)))


def test_root_of_unity_rejects_bad_divisor():
    with pytest.raises(ValueError):
        root_of_unity(FieldSpec(337), 85)


def test_root_of_unity_order_by_direct_check():
    # direct order check over all residues
    p, l = 5, 4
    candidates = [x for x in range(1, p) if all(pow(x, k, p) != 1 for k in range(1, l))]
    z = root_of_unity(FieldSpec(p), l)
    assert z.a in candidates


def test_element_order_examples():
    spec = FieldSpec(337)
    assert element_order(spec.one()) == 1
    assert element_order(-spec.one()) == 2
    assert element_order(root_of_unity(FieldSpec(337), 84)) == 84


def test_element_order_quadratic():
    spec = quadratic_extension(FieldSpec(5))
    w = spec.element(0, 1)
    # w^2 = 2, which has order 4 mod 5, so w has order 8
    assert element_order(w) == 8


def test_element_order_naive_cross_check():
    spec = FieldSpec(97)
    for a in range(1, 97):
        x = spec.element(a)
        naive = 1
        value = x
        while value != spec.one():
            value = value * x
            naive += 1
        assert element_order(x) == naive


# ----------------------------------------------------------------------
# helpers


def test_factorize():
    assert factorize(2**4 * 3**2 * 337) == {2: 4, 3: 2, 337: 1}
    assert factorize(1) == {}
    big = (10**9 + 7) * (10**9 + 9)
    assert factorize(big) == {10**9 + 7: 1, 10**9 + 9: 1}


def test_euler_phi():
    assert euler_phi(84) == 24
    assert euler_phi(1) == 1
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 12: 4, 100: 40}
    for n, value in known.items():
        assert euler_phi(n) == value


def test_primitive_root_verified():
    for p in (3, 5, 7, 337, 1009):
        g = primitive_root(p)
        assert element_order(FieldSpec(p).element(g)) == p - 1
        for smaller in range(2, g):
            assert element_order(FieldSpec(p).element(smaller)) != p - 1


def test_imaginary_unit():
    spec = FieldSpec(5)
    i = imaginary_unit(spec)
    assert i * i == -spec.one()
    spec9 = quadratic_extension(FieldSpec(3))
    j = imaginary_unit(spec9)
    assert j * j == -spec9.one()
    with pytest.raises(ValueError):
        imaginary_unit(FieldSpec(7))
