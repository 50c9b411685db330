"""Order checks and word evaluation in PSL(2, F), for the producers.

The matrices are psl's.  has_order, the builders' order check,
multiplies no matrices: by Cayley-Hamilton with det 1, the traces
V_k = tr(M^k) satisfy V_(k+1) = tr(M)*V_k - V_(k-1), and M^k = +-I iff
V_k = +-2 when tr(M) != +-2.  So "order exactly n" is a walk of at most
n - 1 scalar multiply-adds, with no factorization of n; a trace of +-2
means order 1 or p.  projective_order, which finds an unknown order,
descends from the trace class's order bound by matrix powers; no
producer calls it, only criterion 2, unit tests and perfbench's order
check span.  Both order checks, like galois.root_of_unity and
imaginary_unit, assume a field, and the checker calls neither.
"""

from __future__ import annotations

from typing import Sequence

from .galois import factorize, is_quadratic_residue
from .presentation import Word
from .psl import _IDENTITY, ProjMatrix, _from_coords, fold_letters, letter_coords


def has_order(m: ProjMatrix, n: int) -> bool:
    """True iff M has projective order exactly n, decided from its trace t.

    M = +-I has order 1.  When t = +-2 and M != +-I, M is +-(I + N) with
    N nilpotent and nonzero, so M^k = +-(I + kN) and the order is p.
    Otherwise M has distinct eigenvalues x, 1/x (in F_q or its quadratic
    extension), so M^k = +-I iff x^k = +-1.  V_k = tr(M^k) = x^k + x^-k
    satisfies V_0 = 2, V_1 = t, V_(k+1) = t*V_k - V_(k-1) (Cayley-Hamilton
    with det 1), and V_k = 2 iff (x^k - 1)^2 = 0, V_k = -2 iff
    (x^k + 1)^2 = 0: so M^k = +-I iff V_k = +-2.  The order is n iff V_n
    is +-2 and no earlier V_k is, which the walk decides in at most n - 1
    scalar multiply-adds: linear in n, as is the charge of the fold of
    x^n that verifies the certificate afterwards."""
    if n < 1:
        raise ValueError("order must be at least 1")
    v = m.coords
    if v == _IDENTITY:
        return n == 1
    p, s = m.spec.p, m.spec.s or 0
    t0, t1 = (v[0] + v[6]) % p, (v[1] + v[7]) % p
    minus_two = p - 2
    if t1 == 0 and (t0 == 2 or t0 == minus_two):
        return n == p
    if not t1:
        # F_p, or a trace in F_p: every V_k stays in F_p
        u, w = 2, t0  # V_(k-1), V_k
        for _ in range(1, n):
            if w == 2 or w == minus_two:
                return False
            u, w = w, (t0 * w - u) % p
        return w == 2 or w == minus_two
    u0, u1, w0, w1 = 2, 0, t0, t1
    for _ in range(1, n):
        if w1 == 0 and (w0 == 2 or w0 == minus_two):
            return False
        u0, u1, w0, w1 = (
            w0, w1, (t0 * w0 + s * t1 * w1 - u0) % p, (t0 * w1 + t1 * w0 - u1) % p
        )
    return w1 == 0 and (w0 == 2 or w0 == minus_two)


def _order_bound(m: ProjMatrix) -> int:
    """A multiple of M's order from its trace class (Dickson): p when
    tr = +-2; (q-1)/2 when tr^2 - 4 is a nonzero square in F_q (M is
    diagonalizable over F_q); (q+1)/2 otherwise."""
    spec = m.spec
    p, q, s = spec.p, spec.p**spec.degree, spec.s or 0
    v = m.coords
    t0, t1 = (v[0] + v[6]) % p, (v[1] + v[7]) % p
    if t1 == 0 and t0 in (2, p - 2):
        return p
    u0, u1 = (t0 * t0 + s * t1 * t1 - 4) % p, 2 * t0 * t1 % p
    # u = tr^2 - 4; over F_{p^2} it is a square iff its norm to F_p is
    disc = u0 if spec.degree == 1 else (u0 * u0 - s * u1 * u1) % p
    return (q - 1) // 2 if is_quadratic_residue(disc, p) else (q + 1) // 2


def projective_order(m: ProjMatrix) -> int:
    """Least k with M^k trivial in PSL, by divisor descent from the
    order bound of M's trace class rather than naive iteration."""
    n = _order_bound(m)
    if not m.power(n).is_identity():
        raise ArithmeticError("matrix power of its order bound is not the identity")
    for q in factorize(n):
        while n % q == 0 and m.power(n // q).is_identity():
            n //= q
    return n


def evaluate_word(images: Sequence[ProjMatrix], word: Word) -> ProjMatrix:
    """Left-to-right product of generator images."""
    if not images:
        raise ValueError("no generator images")
    spec = images[0].spec
    top = word.max_generator()
    if top >= len(images):
        raise ValueError(f"no image for generator {top}")
    return _from_coords(spec, fold_letters(spec, letter_coords(images), word.letters))

