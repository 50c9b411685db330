import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenscert import psl
from lenscert.checker import bit_size_spec
from lenscert.galois import factorize, quadratic_extension, sqrt_mod_p
from lenscert.certificate import parse_word
from lenscert.presentation import Word
from lenscert.projmat import evaluate_word, has_order, projective_order
from lenscert.psl import (
    _IDENTITY,
    _mul_coords,
    _power_coords,
    _sign_normalized,
    FieldSpec,
    ProjMatrix,
    coord_table,
    fold_letters,
    letter_coords,
)

from oracles import (
    equal_up_to_sign,
    field_elements,
    letter_by_letter_fold,
    matrix_inverse,
    matrix_product,
    naive_projective_order,
    power_has_order,
    psl_elements,
    psl_group_order,
    square_and_multiply_power,
)

SPEC5 = FieldSpec(5)
SPEC337 = FieldSpec(337)
# fields small enough for naive powering: element orders are at most 31
SMALL_SPECS = (
    SPEC5,
    FieldSpec(17),
    FieldSpec(31),
    quadratic_extension(FieldSpec(3)),
    quadratic_extension(FieldSpec(5)),
    quadratic_extension(FieldSpec(7)),
)
SPECS = SMALL_SPECS + (
    SPEC337,
    quadratic_extension(FieldSpec(17)),
    quadratic_extension(SPEC337),
)


@st.composite
def sl2_entries(draw, specs=SPECS):
    """Entries (a, b, c, d) of a determinant-1 matrix, a = 0 included."""
    spec = draw(st.sampled_from(specs))
    coord = st.integers(0, spec.p - 1)

    def element(nonzero=False):
        x = spec.element(draw(coord), draw(coord) if spec.degree == 2 else 0)
        return spec.one() if nonzero and x.is_zero() else x

    a = element()
    if a.is_zero():
        b = element(nonzero=True)
        return (a, b, -b.inverse(), element())
    b, c = element(), element()
    return (a, b, c, (spec.one() + b * c) * a.inverse())


def order_limit(spec):
    return max(spec.p, (spec.p**spec.degree + 1) // 2)


def random_matrix(spec, rng):
    """Random element of PSL(2, F) with a != 0."""

    def coord():
        return rng.randrange(spec.p) if spec.degree == 2 else 0

    while True:
        a, b, c = (spec.element(rng.randrange(spec.p), coord()) for _ in range(3))
        if not a.is_zero():
            d = (spec.one() + b * c) * a.inverse()
            return ProjMatrix(a, b, c, d)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        ProjMatrix(SPEC5.element(1), SPEC5.zero(), SPEC5.zero(), SPEC5.element(2))
    spec = quadratic_extension(FieldSpec(5))
    w = spec.element(0, 1)
    with pytest.raises(ValueError, match="determinant"):
        ProjMatrix(w, spec.zero(), spec.zero(), w)  # det = w^2 = s
    assert ProjMatrix(w, spec.zero(), spec.zero(), w.inverse()).spec == spec


def test_sign_normalization_identifies_negatives():
    rng = random.Random(11)
    for _ in range(10**4):
        m = random_matrix(SPEC337, rng)
        negated = ProjMatrix(-m.a, -m.b, -m.c, -m.d)
        assert negated == m


def test_normalization_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        m = random_matrix(SPEC337, rng)
        again = ProjMatrix(m.a, m.b, m.c, m.d)
        assert again == m
        coord = next(
            e.a if e.a != 0 else e.b for e in m.entries() if not e.is_zero()
        )
        assert coord <= (337 - 1) // 2


def test_mul_inverse_identity():
    rng = random.Random(17)
    for _ in range(100):
        m = random_matrix(SPEC337, rng)
        assert m.mul(m.inverse()).is_identity()
        assert m.inverse().mul(m).is_identity()


def test_product_inverse_reverses():
    rng = random.Random(19)
    for _ in range(100):
        a, b = random_matrix(SPEC337, rng), random_matrix(SPEC337, rng)
        assert a.mul(b).inverse() == b.inverse().mul(a.inverse())


def test_det_preserved_under_ops():
    rng = random.Random(23)
    one = SPEC337.one()
    for _ in range(50):
        a, b = random_matrix(SPEC337, rng), random_matrix(SPEC337, rng)
        prod = a.mul(b)
        assert prod.a * prod.d - prod.b * prod.c == one


def test_mixed_fields_rejected():
    spec25 = quadratic_extension(FieldSpec(5))
    with pytest.raises(ValueError, match="different fields"):
        ProjMatrix(SPEC5.one(), SPEC5.zero(), spec25.zero(), SPEC5.one())
    with pytest.raises(ValueError, match="different fields"):
        ProjMatrix(SPEC5.one(), SPEC5.zero(), SPEC5.zero(), FieldSpec(7).one())


def test_matrices_are_immutable():
    m = ProjMatrix.identity(SPEC5)
    with pytest.raises(AttributeError):
        m.coords = (1, 0, 0, 0, 0, 0, 1, 0)
    with pytest.raises(AttributeError):
        del m.spec


@settings(max_examples=300)
@given(sl2_entries(), st.data())
def test_mul_and_inverse_match_reference_product(entries, data):
    spec = entries[0].spec
    other = data.draw(sl2_entries(specs=(spec,)))
    m, n = ProjMatrix(*entries), ProjMatrix(*other)
    assert equal_up_to_sign(m.mul(n).entries(), matrix_product(entries, other))
    assert equal_up_to_sign(m.inverse().entries(), matrix_inverse(entries))
    assert equal_up_to_sign(m.entries(), entries)


@settings(max_examples=300)
@given(sl2_entries())
def test_negation_is_equal_and_hashes_alike(entries):
    m = ProjMatrix(*entries)
    negated = ProjMatrix(*(-x for x in entries))
    assert negated == m
    assert hash(negated) == hash(m)
    assert str(negated) == str(m)
    assert len({m, negated}) == 1


@settings(max_examples=300)
@given(sl2_entries())
def test_str_formats_entries(entries):
    m = ProjMatrix(*entries)
    assert str(m) == f"[[{m.a},{m.b}],[{m.c},{m.d}]]"


@settings(max_examples=300)
@given(sl2_entries())
def test_from_reduced_matches_field_constructor(entries):
    m = ProjMatrix(*entries)
    coords = tuple(x for e in entries for x in (e.a, e.b))
    assert ProjMatrix.from_reduced(m.spec, coords) == m
    assert ProjMatrix.from_reduced(m.spec, coords).coords == m.coords


def test_from_reduced_checks_the_determinant():
    spec25 = quadratic_extension(FieldSpec(5))
    assert ProjMatrix.from_reduced(SPEC5, (1, 0, 1, 0, 0, 0, 1, 0)).coords == (1, 0, 1, 0, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="matrix determinant is 2, not 1"):
        ProjMatrix.from_reduced(SPEC5, (1, 0, 0, 0, 0, 0, 2, 0))
    with pytest.raises(ValueError, match="determinant is 2\\+0\\*w"):
        ProjMatrix.from_reduced(spec25, (1, 0, 0, 0, 0, 0, 2, 0))


def _oracle_fold(spec, factors):
    """Left fold of oracles.matrix_product from the identity."""
    one, zero = spec.one(), spec.zero()
    out = (one, zero, zero, one)
    for entries in factors:
        out = matrix_product(out, entries)
    return out


@st.composite
def images_and_word(draw):
    """1-3 generator images over one field and a word in them, not
    necessarily reduced, that may use ^-1 letters."""
    spec = draw(st.sampled_from(SPECS))
    k = draw(st.integers(1, 3))
    images = [draw(sl2_entries(specs=(spec,))) for _ in range(k)]
    letter = st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1)))
    return spec, images, Word(tuple(draw(st.lists(letter, max_size=14))))


@settings(max_examples=300)
@given(images_and_word())
def test_evaluate_word_matches_oracle_fold(case):
    spec, entries, word = case
    images = [ProjMatrix(*e) for e in entries]
    factors = [entries[g] if e == 1 else matrix_inverse(entries[g]) for g, e in word.letters]
    value = evaluate_word(images, word)
    assert equal_up_to_sign(value.entries(), _oracle_fold(spec, factors))
    assert fold_letters(spec, letter_coords(images), word.letters) == value.coords
    # the same product as one ProjMatrix.mul per letter and one inverse per ^-1
    product = ProjMatrix.identity(spec)
    for g, e in word.letters:
        product = product.mul(images[g] if e == 1 else images[g].inverse())
    assert product == value


MERSENNE_61 = FieldSpec(2**61 - 1)
WIDE_SPECS = (MERSENNE_61, quadratic_extension(MERSENNE_61))


@st.composite
def wide_words(draw):
    """1-3 images over p = 2^61 - 1 or its quadratic extension and a word
    of at most 14 letters in them, with ^-1 letters."""
    spec = draw(st.sampled_from(WIDE_SPECS))
    k = draw(st.integers(1, 3))
    images = [ProjMatrix(*draw(sl2_entries(specs=(spec,)))) for _ in range(k)]
    letter = st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1)))
    return spec, images, tuple(draw(st.lists(letter, max_size=14)))


def _short_word_examples(test):
    """The empty word, one letter, a ^-1 first letter and words of 2-5
    letters over both degrees, run before the drawn cases."""
    words = (
        (),
        ((1, 1),),
        ((2, -1),),
        ((0, -1), (1, 1)),
        ((1, 1), (2, -1), (0, 1)),
        ((2, -1), (0, 1), (0, 1), (1, -1)),
        ((0, 1), (1, 1), (2, -1), (1, 1), (0, -1)),
    )
    for spec in WIDE_SPECS:
        rng = random.Random(spec.degree)
        images = [random_matrix(spec, rng) for _ in range(3)]
        for letters in words:
            test = example((spec, images, letters))(test)
    return test


@settings(max_examples=200)
@given(wide_words())
@_short_word_examples
def test_fold_letters_matches_the_letter_by_letter_oracle_beyond_64_bits(case):
    """Over p = 2^61 - 1 a product of two coordinates needs up to 122
    bits, so fold_letters agrees with the oracle's plain fold, which
    shares no code with it, only if it assumes no fixed width."""
    spec, images, letters = case
    expected = letter_by_letter_fold(spec.p, spec.s or 0, [m.coords for m in images], letters)
    assert fold_letters(spec, letter_coords(images), letters) == expected[0]


FOLD_SPECS = (
    SPEC337,
    quadratic_extension(SPEC337),
    MERSENNE_61,
    quadratic_extension(MERSENNE_61),
)


@st.composite
def periodic_words(draw):
    """1-3 images over one field and a word w^k u, with |w| <= 6, k <= 60
    and u a proper prefix of w, in mixed +-1 exponents; near-periodic
    with one letter changed when the drawn flag says so."""
    spec = draw(st.sampled_from(FOLD_SPECS))
    g = draw(st.integers(1, 3))
    images = [ProjMatrix(*draw(sl2_entries(specs=(spec,)))) for _ in range(g)]
    letter = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
    w = draw(st.lists(letter, min_size=1, max_size=6))
    letters = w * draw(st.integers(0, 60)) + w[: draw(st.integers(0, len(w) - 1))]
    if letters and draw(st.booleans()):
        i = draw(st.integers(0, len(letters) - 1))
        gen, exp = letters[i]
        letters[i] = draw(st.sampled_from([(gen, -exp)] + [(h, exp) for h in range(g) if h != gen]))
    return spec, images, tuple(letters)


@settings(max_examples=400)
@given(periodic_words())
def test_fold_letters_matches_the_letter_by_letter_oracle_on_periodic_words(case):
    """A word with a short period is folded as w^k u by square-and-multiply;
    its coordinates equal a plain fold's, letter by letter, and so do a
    near-periodic word's."""
    spec, images, letters = case
    value = fold_letters(spec, letter_coords(images), letters)
    expected = letter_by_letter_fold(spec.p, spec.s or 0, [m.coords for m in images], letters)
    assert value == expected[0]


@pytest.mark.parametrize("spec", (SPEC337, quadratic_extension(SPEC337)), ids=("F_p", "F_p2"))
@pytest.mark.parametrize("k", (3, 4, 7, 64, 1000, 4097))
@pytest.mark.parametrize("tail", ((), ((0, 1),)), ids=("", "x"))
def test_period_two_word_costs_logarithmic_products(monkeypatch, spec, k, tail):
    """(x y)^k, and (x y)^k x, take at most d + 2*log2(k) + 2 products for
    the period d = 2, every one a _mul_coords call: those of the folds
    of w = x y and u, one per letter after the first, the powering's and
    the one that appends u."""
    kernel_calls, inner_folds = [], []
    kernel, fold = psl._mul_coords, psl.fold_letters

    def counted_kernel(*args):
        kernel_calls.append(None)
        return kernel(*args)

    def counted_fold(spec, table, letters):
        inner_folds.append(len(letters))
        return fold(spec, table, letters)

    monkeypatch.setattr(psl, "_mul_coords", counted_kernel)
    # the outer call below is this module's fold_letters, so only the
    # folds it makes of w and u are counted
    monkeypatch.setattr(psl, "fold_letters", counted_fold)
    rng = random.Random(k)
    images = [random_matrix(spec, rng) for _ in range(2)]
    letters = ((0, 1), (1, 1)) * k + tail
    value = fold_letters(spec, letter_coords(images), letters)
    assert inner_folds == [2] + [1] * len(tail)  # w^k u, not letter by letter
    assert len(kernel_calls) <= 2 + 2 * math.log2(k) + 2
    expected = letter_by_letter_fold(spec.p, spec.s or 0, [m.coords for m in images], letters)
    assert value == expected[0]


@settings(max_examples=200)
@given(images_and_word(), st.integers(0, 5))
def test_evaluate_word_rejects_unmapped_generator(case, excess):
    spec, entries, word = case
    images = [ProjMatrix(*e) for e in entries]
    bad = Word(word.letters + ((len(images) + excess, 1),))
    with pytest.raises(ValueError, match="no image"):
        evaluate_word(images, bad)
    with pytest.raises(ValueError):
        evaluate_word([], word)


@settings(max_examples=200)
@given(sl2_entries(), st.integers(-20, 20))
def test_power_matches_oracle_fold(entries, n):
    m = ProjMatrix(*entries)
    factor = entries if n >= 0 else matrix_inverse(entries)
    assert equal_up_to_sign(m.power(n).entries(), _oracle_fold(m.spec, [factor] * abs(n)))
    assert m.power(n) == evaluate_word([m], Word(((0, 1 if n >= 0 else -1),) * abs(n)))


# the rings a FieldSpec names: prime fields, fields of p^2 elements, and
# rings that are not fields (Z/9, Z/15, and Z/7[w]/(w^2 - 2) = F_7 x F_7)
POWER_SPECS = (
    SPEC5,
    SPEC337,
    MERSENNE_61,
    quadratic_extension(FieldSpec(5)),
    quadratic_extension(SPEC337),
    FieldSpec(9),
    FieldSpec(15),
    FieldSpec(7, 2, 2),
)


@st.composite
def ring_sl2(draw, specs=POWER_SPECS):
    """A spec and the coordinates of a determinant-1 matrix over its ring:
    a product of elementary matrices [[1, x], [0, 1]] and [[1, 0], [y, 1]],
    which have determinant 1 over any commutative ring."""
    spec = draw(st.sampled_from(specs))
    p, s = spec.p, spec.s or 0
    element = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1) if s else st.just(0))
    v = _IDENTITY
    for _ in range(draw(st.integers(1, 3))):
        (x0, x1), (y0, y1) = draw(element), draw(element)
        v = _mul_coords(p, s, v, (1, 0, x0, x1, 0, 0, 1, 0))
        v = _mul_coords(p, s, v, (1, 0, 0, 0, y0, y1, 1, 0))
    return spec, v


@settings(max_examples=400)
@given(ring_sl2(), st.integers(0, 10**6))
@example((SPEC5, (1, 0, 1, 0, 0, 0, 1, 0)), 0)
@example((FieldSpec(9), (1, 0, 3, 0, 0, 0, 1, 0)), 1)
@example((FieldSpec(15), (0, 0, 1, 0, 14, 0, 0, 0)), 2)
@example((FieldSpec(7, 2, 2), (3, 1, 1, 0, 6, 0, 0, 0)), 3)
def test_power_coords_are_square_and_multiply_coords(case, k):
    """The Cayley-Hamilton doubling gives v^k coordinate for coordinate as
    the square-and-multiply reference does, before any sign
    normalization, over fields and over rings that are not fields."""
    spec, v = case
    p, s = spec.p, spec.s or 0
    assert _power_coords(p, s, v, k) == square_and_multiply_power(p, s, v, k)


@settings(max_examples=200)
@given(ring_sl2(), st.integers(-(10**6), -1))
def test_a_negative_power_is_the_inverse_powered(case, n):
    spec, v = case
    p, s = spec.p, spec.s or 0
    m = ProjMatrix.from_reduced(spec, v)
    a0, a1, b0, b1, c0, c1, d0, d1 = v  # the adjugate is the inverse
    inverse = (d0, d1, -b0 % p, -b1 % p, -c0 % p, -c1 % p, a0, a1)
    assert m.power(n).coords == _sign_normalized(p, square_and_multiply_power(p, s, inverse, -n))


@settings(max_examples=60)
@given(st.data(), st.integers(0, 10**6))
def test_fold_letters_takes_powers_of_periodic_words_exactly(data, k):
    """x^k and (xy)^k fold to the sign-normalized square-and-multiply
    power of x and of xy: by the Cayley-Hamilton power for k >= 6 (x^k)
    or k >= 3 ((xy)^k), letter by letter below."""
    spec, u = data.draw(ring_sl2())
    _, v = data.draw(ring_sl2(specs=(spec,)))
    p, s = spec.p, spec.s or 0
    table = coord_table(p, [u, v])
    assert fold_letters(spec, table, ((0, 1),) * k) == _sign_normalized(
        p, square_and_multiply_power(p, s, u, k)
    )
    assert fold_letters(spec, table, ((0, 1), (1, 1)) * k) == _sign_normalized(
        p, square_and_multiply_power(p, s, _mul_coords(p, s, u, v), k)
    )


# ----------------------------------------------------------------------
# projective order


def test_identity_order_one():
    assert projective_order(ProjMatrix.identity(SPEC337)) == 1


def test_unipotent_order_p():
    for spec in (SPEC5, SPEC337, quadratic_extension(FieldSpec(3))):
        m = ProjMatrix(spec.one(), spec.one(), spec.zero(), spec.one())
        assert projective_order(m) == spec.p


def test_x_image_237_has_order_two():
    # [[0,1],[-1,0]] is the standard order-2 generator image
    m = ProjMatrix(SPEC337.zero(), SPEC337.one(), -SPEC337.one(), SPEC337.zero())
    assert projective_order(m) == 2


def test_order_divides_group_order():
    rng = random.Random(29)
    for spec in (SPEC5, FieldSpec(7), quadratic_extension(FieldSpec(3))):
        group_order = psl_group_order(spec)
        for _ in range(60):
            m = random_matrix(spec, rng) if spec.degree == 1 else None
            if m is None:
                a = spec.element(rng.randrange(spec.p), rng.randrange(spec.p))
                if a.is_zero():
                    continue
                b = spec.element(rng.randrange(spec.p), rng.randrange(spec.p))
                c = spec.element(rng.randrange(spec.p), rng.randrange(spec.p))
                m = ProjMatrix(a, b, c, (spec.one() + b * c) * a.inverse())
            assert group_order % projective_order(m) == 0


def test_order_matches_naive_iteration():
    # PSL(2, 17) has split orders 2, 4, 8 and non-split 3, 9; PSL(2, 31)
    # has split 3, 5, 15 and non-split 2, 4, 8, 16
    rng = random.Random(31)
    seen = set()
    for spec, count in ((FieldSpec(13), 80), (FieldSpec(17), 300), (FieldSpec(31), 300)):
        for _ in range(count):
            m = random_matrix(spec, rng)
            power = m
            naive = 1
            while not power.is_identity():
                power = power.mul(m)
                naive += 1
            assert projective_order(m) == naive
            assert has_order(m, naive) and not has_order(m, 2 * naive)
            seen.add(naive)
    assert {4, 8, 9, 16, 17, 31} <= seen


@settings(max_examples=150)
@given(sl2_entries(specs=SMALL_SPECS))
def test_orders_match_naive_powering(entries):
    m = ProjMatrix(*entries)
    naive = naive_projective_order(entries, order_limit(m.spec))
    assert projective_order(m) == naive
    assert has_order(m, naive)
    for k in range(1, 2 * naive + 2):
        assert has_order(m, k) == (k == naive)


def _diagonal_of_order(spec, n):
    """diag(x, 1/x) for the first x of multiplicative order 2n, conjugated
    so that no entry is zero; its projective order is n."""
    one = spec.one()
    for x in field_elements(spec):
        if x.is_zero():
            continue
        powers = [one]
        while len(powers) <= 2 * n and (len(powers) == 1 or powers[-1] != one):
            powers.append(powers[-1] * x)
        if len(powers) == 2 * n + 1 and powers[-1] == one:
            break
    else:
        raise ValueError(f"no element of order {2 * n} in {spec}")
    g = (one, one, one, one + one)
    diag = (x, spec.zero(), spec.zero(), x.inverse())
    return matrix_product(matrix_product(g, diag), matrix_inverse(g))


@pytest.mark.parametrize(
    "spec,n",
    [
        (FieldSpec(17), 4),
        (FieldSpec(17), 8),
        (FieldSpec(97), 16),
        (FieldSpec(19), 9),
        (quadratic_extension(FieldSpec(17)), 4),
        (quadratic_extension(FieldSpec(17)), 8),
        (quadratic_extension(FieldSpec(17)), 9),
        (quadratic_extension(FieldSpec(17)), 16),
        (quadratic_extension(FieldSpec(17)), 144),
    ],
)
def test_orders_with_repeated_prime_factors(spec, n):
    entries = _diagonal_of_order(spec, n)
    m = ProjMatrix(*entries)
    assert naive_projective_order(entries, order_limit(spec)) == n
    assert projective_order(m) == n
    assert has_order(m, n)
    for ell in factorize(n):
        assert not has_order(m, n // ell)
        assert not has_order(m, n * ell)


# has_order walks the trace recurrence; power_has_order is the check by
# matrix powers and the prime factors of n that it replaced
ORDER_PRIMES = (3, 5, 7, 13, 337, 2**61 - 1)
# orders of n = 1 .. 3p are compared, up to this many
ORDER_N_CAP = 100


def _sqrt(spec, x):
    """A square root of x in spec (x in F_p), or None."""
    p = spec.p
    root = sqrt_mod_p(x.a, p)
    if root is not None:
        return spec.element(root)
    if spec.degree == 2:
        # x/s is a residue when x is not, so sqrt(x) = sqrt(x/s) * w
        return spec.element(0, sqrt_mod_p(x.a * pow(spec.s, p - 2, p), p))
    return None


@st.composite
def order_cases(draw):
    """(matrix, the n to check it at): a random det-1 matrix, I, -I, a
    unipotent, an involution, or a conjugate of [[t, 1], [-1, 0]] for a
    trace t of small order (0, +-1, +-sqrt 2, +-sqrt 3, (+-1 +- sqrt 5)/2)."""
    p = draw(st.sampled_from(ORDER_PRIMES))
    spec = FieldSpec(p)
    if draw(st.booleans()):
        spec = quadratic_extension(spec)
    one, zero = spec.one(), spec.zero()

    def conjugate(entries):
        g = ProjMatrix(*draw(sl2_entries(specs=(spec,))))
        return g.mul(ProjMatrix(*entries)).mul(g.inverse())

    kind = draw(
        st.sampled_from(("random", "identity", "minus", "unipotent", "involution", "trace"))
    )
    if kind == "random":
        m = ProjMatrix(*draw(sl2_entries(specs=(spec,))))
    elif kind == "identity":
        m = ProjMatrix.identity(spec)
    elif kind == "minus":
        m = ProjMatrix(-one, zero, zero, -one)
    elif kind == "unipotent":
        x = spec.element(draw(st.integers(1, p - 1)))
        sign = draw(st.sampled_from((one, -one)))
        m = conjugate((sign, sign * x, zero, sign))
    elif kind == "involution":
        m = conjugate((zero, one, -one, zero))
    else:
        two = spec.element(2)
        roots = [_sqrt(spec, spec.element(k)) for k in (2, 3, 5)]
        traces = [zero, one, -one] + [sign * r for r in roots[:2] if r for sign in (one, -one)]
        if roots[2] is not None:
            traces += [(a + b * roots[2]) / two for a in (one, -one) for b in (one, -one)]
        m = conjugate((draw(st.sampled_from(traces)), one, -one, zero))
    ns = list(range(1, min(3 * p, ORDER_N_CAP) + 1))
    if m.trace() in (spec.element(2), spec.element(-2)):
        # I and the unipotents have order 1 or p, and p is past the cap
        # for the large primes
        ns.append(p)
    return m, ns


@settings(max_examples=300)
@given(order_cases())
def test_has_order_matches_power_oracle(case):
    m, ns = case
    assert [has_order(m, n) for n in ns] == [power_has_order(m, n) for n in ns]


@pytest.mark.parametrize(
    "spec",
    [FieldSpec(3), FieldSpec(5), FieldSpec(7), quadratic_extension(FieldSpec(3))],
    ids=["F3", "F5", "F7", "F9"],
)
def test_has_order_matches_power_oracle_on_the_whole_group(spec):
    # every element of PSL(2, q) at every n = 1 .. 3p, which covers its order
    for m in psl_elements(spec):
        order = projective_order(m)
        for n in range(1, 3 * spec.p + 1):
            assert has_order(m, n) == power_has_order(m, n) == (n == order)


def test_has_order_rejects_order_zero():
    with pytest.raises(ValueError):
        has_order(ProjMatrix.identity(SPEC5), 0)


# ----------------------------------------------------------------------
# word evaluation


def test_empty_word_is_identity():
    images = [ProjMatrix.identity(SPEC5)]
    assert evaluate_word(images, Word()).is_identity()


def test_x_xinv_is_identity():
    rng = random.Random(37)
    m = random_matrix(SPEC337, rng)
    word = Word(((0, 1), (0, -1)))
    assert evaluate_word([m], word).is_identity()


def test_figure8_relator_dies_in_d10():
    spec = quadratic_extension(FieldSpec(5))
    x = spec.element(sqrt_mod_p(4, 5))
    a = ProjMatrix(x, spec.zero(), spec.zero(), -x)
    b = ProjMatrix(x, -x, spec.zero(), -x)
    relator = parse_word("a b a^-1 b^-1 a b a b^-1 a^-1 b^-1", ("a", "b"))
    assert evaluate_word([a, b], relator).is_identity()
    assert not evaluate_word([a, b], parse_word("a b", ("a", "b"))).is_identity()


def test_letter_coords_holds_the_inverse_of_every_image():
    rng = random.Random(43)
    for spec in (SPEC337, quadratic_extension(FieldSpec(7))):
        images = [random_matrix(spec, rng) for _ in range(3)]
        table = letter_coords(images)
        assert table[1] == [m.coords for m in images]
        assert len(table[-1]) == len(images)
        for k, m in enumerate(images):
            assert _sign_normalized(spec.p, table[-1][k]) == m.inverse().coords
            for word in (((k, 1), (k, -1)), ((k, -1), (k, 1))):
                assert fold_letters(spec, table, word) == ProjMatrix.identity(spec).coords


def test_word_evaluation_is_multiplicative():
    rng = random.Random(41)
    images = [random_matrix(SPEC337, rng) for _ in range(3)]
    for _ in range(50):
        u = Word(tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))))
        v = Word(tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))))
        assert evaluate_word(images, Word(u.letters + v.letters)) == evaluate_word(images, u).mul(
            evaluate_word(images, v)
        )


def test_unmapped_generator():
    with pytest.raises(ValueError):
        evaluate_word([ProjMatrix.identity(SPEC5)], Word(((1, 1),)))


# ----------------------------------------------------------------------
# bit size: the checker's rule for a matrix in a report


@pytest.mark.parametrize(
    "p,deg,expected",
    [(5, 2, 16), (3, 1, 4), (337, 2, 72), (337, 1, 36)],
)
def test_bit_size(p, deg, expected):
    spec = FieldSpec(p) if deg == 1 else quadratic_extension(FieldSpec(p))
    assert bit_size_spec(spec) == expected
