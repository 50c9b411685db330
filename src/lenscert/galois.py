"""The producers' number theory: prime search, factoring, roots mod p.

A producer makes a psl.FieldSpec a field: F_p from a p it proved prime,
F_{p^2} as F_p[w] with w^2 = s, the smallest positive nonresidue, so
serialized elements are reproducible bit-for-bit.

Primality is decided by strong probable-prime tests to the first k prime
bases, which are deterministic below psi_k, the least strong pseudoprime
to all of them.  is_prime takes the smallest k whose psi_k exceeds n:

    k   bases      n below psi_k
    1   2          2047                        Pomerance, Selfridge and
    2   2..3       1373653                     Wagstaff (1980)
    3   2..5       25326001
    4   2..7       3215031751
    5   2..11      2152302898747               Jaeschke (1993)
    6   2..13      3474749660383
    7   2..17      341550071728321             (= psi_8)
    9   2..23      3825123056546413051         Jiang and Deng (2014), = psi_10 = psi_11
    12  2..37      318665857834031151167461    Sorenson and Webster (2017)
    13  2..41      3317044064679887385961981

Anything from psi_13 up is an error, never a probabilistic accept.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .psl import FieldElement, FieldSpec

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, the first k bases), from the table above
_MR_RANGES = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13),
))

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class PrimalityBoundError(RuntimeError):
    """Input exceeds the deterministic Miller-Rabin range."""


class SearchLimitExceeded(RuntimeError):
    """Prime search passed SEARCH_CEILING."""


class FactorizationError(RuntimeError):
    """Pollard rho gave up within its iteration budget."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for psi, bases in _MR_RANGES:
        if n < psi:
            break
    else:
        raise PrimalityBoundError(f"{n} exceeds the deterministic primality range")
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SEARCH_CEILING = 10**9


def smallest_prime_in_progression(l: int) -> int:
    """Least prime p = 1 (mod l), scanning l+1, 2l+1, ... up to SEARCH_CEILING."""
    if l < 2:
        raise ValueError("modulus must be at least 2")
    candidate = l + 1
    while candidate <= SEARCH_CEILING:
        if is_prime(candidate):
            return candidate
        candidate += l
    raise SearchLimitExceeded(f"no prime = 1 (mod {l}) found below ceiling {SEARCH_CEILING}")


def linnik_ratio(p: int, l: int) -> float:
    """Observed p / l^5.18 (Xylouris exponent); reported, never asserted."""
    return p / l**5.18


_RHO_MAX_ITER = 10**7  # steps per constant c before factorize gives up


def _pollard_rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 10000."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            count += 1
            if count > _RHO_MAX_ITER:
                raise FactorizationError(f"factorization budget exhausted on {n}")
        if d != n:
            return d
    raise FactorizationError(f"pollard rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division then Pollard rho."""
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in range(2, 10000):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if p * p > n:
            break
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n <= 0:
        raise ValueError("phi of a positive integer only")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def is_quadratic_residue(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    for s in range(2, p):
        if not is_quadratic_residue(s, p):
            return s
    raise ValueError(f"no nonresidue modulo {p}; is it prime and odd?")


def sqrt_mod_p(a: int, p: int) -> Optional[int]:
    """Canonical square root of a modulo an odd prime, or None.

    Tonelli-Shanks with the smallest nonresidue as auxiliary; the root in
    [0, (p-1)/2] is returned so certificates are deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
    else:
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = pow(smallest_nonresidue(p), q, p)
        m, c, t, x = s, z, pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t = t * c % p
            x = x * b % p
    return min(x, p - x)


def quadratic_extension(base: FieldSpec) -> FieldSpec:
    """F_{p^2} over the prime field base, with w^2 the smallest nonresidue."""
    if base.degree != 1:
        raise ValueError("quadratic_extension needs a prime field")
    return FieldSpec(base.p, 2, smallest_nonresidue(base.p))


def primitive_root(p: int) -> int:
    """Smallest generator of F_p^*, verified against every factor of p-1."""
    factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found modulo {p}")


def root_of_unity(spec: FieldSpec, l: int) -> FieldElement:
    """Element of exact multiplicative order l in F_p, from the smallest
    primitive root; the order is verified against every maximal proper
    divisor of l.  It is returned over spec, of characteristic p."""
    p = spec.p
    if (p - 1) % l != 0:
        raise ValueError(f"{l} does not divide p-1 = {p - 1}")
    g = primitive_root(p)
    z = pow(g, (p - 1) // l, p)
    for q in factorize(l):
        if pow(z, l // q, p) == 1:
            raise ArithmeticError(f"order verification failed for l={l}, p={p}")
    return FieldElement(spec, z)


def imaginary_unit(spec: FieldSpec) -> FieldElement:
    """A square root of -1: in F_p when p = 1 (mod 4), else u*w in F_{p^2}."""
    p = spec.p
    if p % 4 == 1:
        root = sqrt_mod_p(p - 1, p)
        assert root is not None
        return FieldElement(spec, root)
    if spec.degree != 2:
        raise ValueError(f"-1 is not a square in F_{p}")
    u2 = (-pow(spec.s, p - 2, p)) % p  # (-1)/s is a residue: both are nonresidues
    u = sqrt_mod_p(u2, p)
    assert u is not None
    return FieldElement(spec, 0, u)
