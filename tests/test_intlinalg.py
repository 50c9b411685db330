import math
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscert.intlinalg import (
    AbelianGroup,
    IntMatrix,
    _unit_pivot_core,
    abelianization,
    format_abelian,
    hadamard_torsion_bound,
    is_cyclic,
    smith_normal_form,
)
import lenscert.intlinalg as intlinalg
from lenscert.presentation import GroupPresentation, Word, closure, parse_word
from conftest import MANIFOLD_FIXTURES, load_fixture
from lenscert.presentation import fundamental_group
from oracles import (
    det_int,
    exponent_matrix,
    int_identity,
    int_matmul,
    invariant_factors_by_minors,
    min_unit_pivot_core,
    random_presentation,
    two_sided_smith_normal_form,
    word_power,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
from make_fixtures import lens_space  # noqa: E402


def triangle_presentation_333():
    x, y = Word(((0, 1),)), Word(((1, 1),))
    return GroupPresentation(
        2, (word_power(x, 3), word_power(y, 3), word_power(x * y, 3)), labels=("x", "y")
    )


# ----------------------------------------------------------------------
# Smith normal form


def test_snf_already_diagonal():
    result = smith_normal_form(IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 6]]))
    assert result.diag == (1, 2, 6)
    assert result.rank == 3


def test_snf_triangle_exponents():
    result = smith_normal_form(IntMatrix([[3, 0], [0, 3], [3, 3]]))
    assert result.diag[: result.rank] == (3, 3)


def test_snf_divisibility_fixup():
    result = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert result.diag == (1, 6)


def test_snf_zero_matrix():
    result = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
    assert result.diag == (0, 0)
    assert result.rank == 0


def test_snf_empty_matrix():
    result = smith_normal_form(IntMatrix([], cols=3))
    assert result.diag == ()
    assert result.rank == 0


def _random_matrices():
    rng = random.Random(7)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        yield IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


def test_snf_diag_and_v_equal_the_two_sided_oracle():
    for a in _random_matrices():
        result = smith_normal_form(a)
        diag, rank, u, v = two_sided_smith_normal_form(a)
        assert (result.diag, result.rank) == (diag, rank)
        # and the oracle's transforms do diagonalize a: N = U*A*V
        n = int_matmul(int_matmul(u, a), v)
        for i in range(a.rows):
            for j in range(a.cols):
                assert n.entries[i][j] == (diag[i] if i == j else 0)


def test_snf_matches_minors_oracle_500_random():
    rng = random.Random(20240811)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        result = smith_normal_form(IntMatrix(entries))
        nonzero = [d for d in result.diag if d != 0]
        assert nonzero == invariant_factors_by_minors(entries)
        for i in range(1, len(nonzero)):
            assert nonzero[i] % nonzero[i - 1] == 0


def test_snf_invariant_under_unimodular_multiplication():
    rng = random.Random(99)

    def random_unimodular(n):
        m = int_identity(n)
        entries = [list(r) for r in m.entries]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                for k in range(n):
                    entries[i][k] += c * entries[j][k]
        return IntMatrix(entries)

    for _ in range(40):
        n = rng.randint(2, 4)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        u, v = random_unimodular(n), random_unimodular(n)
        assert abs(det_int(u.entries)) == 1 and abs(det_int(v.entries)) == 1
        assert smith_normal_form(a).diag == smith_normal_form(int_matmul(int_matmul(u, a), v)).diag


# ----------------------------------------------------------------------
# abelianization


def test_abelianization_triangle_333():
    group = abelianization(triangle_presentation_333())
    assert group.free_rank == 0
    assert group.torsion == (3, 3)


def test_abelianization_figure8():
    labels = ("a", "b")
    relator = parse_word("a b a^-1 b^-1 a b a b^-1 a^-1 b^-1", labels)
    group = abelianization(GroupPresentation(2, (relator,), labels))
    assert group.free_rank == 1
    assert group.torsion == ()


def test_abelianization_free_group():
    group = abelianization(GroupPresentation(4, ()))
    assert group.free_rank == 4
    assert group.torsion == ()


def test_format_abelian():
    assert format_abelian(AbelianGroup(0)) == "Z^0"
    assert format_abelian(AbelianGroup(1, (2, 4))) == "Z^1 + Z/2 + Z/4"


def test_abelian_group_rejects_broken_chain():
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


# ----------------------------------------------------------------------
# cyclicity


@pytest.mark.parametrize(
    "group,expected",
    [
        (AbelianGroup(0, ()), True),  # trivial
        (AbelianGroup(0, (5,)), True),
        (AbelianGroup(1, ()), True),  # Z
        (AbelianGroup(0, (3, 3)), False),
        (AbelianGroup(1, (2,)), False),  # Z + Z/2
        (AbelianGroup(2, ()), False),
    ],
)
def test_is_cyclic(group, expected):
    assert is_cyclic(group) == expected


# ----------------------------------------------------------------------
# Hadamard torsion bound


def test_bound_three_relators_of_length_three():
    pres = GroupPresentation(
        2,
        (
            Word(((0, 1), (0, 1), (0, 1))),
            Word(((1, 1), (1, 1), (1, 1))),
            Word(((0, 1), (1, 1), (0, 1))),
        ),
    )
    assert hadamard_torsion_bound(pres) == 27


def test_bound_triangle_333():
    # (xy)^3 spelled out has length 6, so the stored-length bound is 6^3;
    # the torsion order 9 respects the length-3 figure as well
    pres = triangle_presentation_333()
    assert hadamard_torsion_bound(pres) == 216
    assert abelianization(pres).torsion_order() == 9
    assert 9 <= 27


def test_bound_needs_relators():
    with pytest.raises(ValueError):
        hadamard_torsion_bound(GroupPresentation(2, ()))


def test_bound_for_triangulation_shape():
    # 2t relators of length <= 3 gives the bound 3^(2t)
    from lenscert.presentation import fundamental_group
    from conftest import load_fixture

    tri = load_fixture("t3_torus.tri")
    pres = fundamental_group(tri)
    bound = hadamard_torsion_bound(pres)
    length = max(len(w) for w in pres.relators)
    assert bound == length ** (2 * tri.t)
    assert bound <= 3 ** (2 * tri.t)


def test_hadamard_bound_on_500_random_presentations():
    rng = random.Random(616)
    for _ in range(500):
        pres = random_presentation(rng)
        group = abelianization(pres)
        assert group.torsion_order() <= hadamard_torsion_bound(pres)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hadamard_bound_property(data):
    g = data.draw(st.integers(1, 5))
    relators = data.draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1))),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    pres = GroupPresentation(g, tuple(Word(tuple(w)) for w in relators))
    assert abelianization(pres).torsion_order() <= hadamard_torsion_bound(pres)


# ----------------------------------------------------------------------
# sparse unit-pivot elimination in abelianization


def dense_abelianization(pres) -> AbelianGroup:
    """G^ab from the dense SNF of the whole exponent matrix."""
    snf = smith_normal_form(exponent_matrix(pres))
    torsion = tuple(d for d in snf.diag[: snf.rank] if d > 1)
    return AbelianGroup(free_rank=pres.g - snf.rank, torsion=torsion)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_abelianization_matches_minors_oracle(data):
    # exponents +-2 and +-3 leave non-unit pivots, so the dense core is
    # often non-trivial
    g = data.draw(st.integers(1, 4))
    relators = data.draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1, 2, -2, 3, -3))),
                max_size=4,
            ),
            max_size=6,
        )
    )
    words = tuple(
        Word(tuple((gen, 1 if k > 0 else -1) for gen, k in rel for _ in range(abs(k))))
        for rel in relators
    )
    pres = GroupPresentation(g, words)
    factors = invariant_factors_by_minors([list(row) for row in exponent_matrix(pres).entries])
    expected = AbelianGroup(g - len(factors), tuple(d for d in factors if d > 1))
    assert abelianization(pres) == expected


def test_abelianization_matches_dense_snf_on_random_presentations():
    rng = random.Random(5150)
    for _ in range(500):
        pres = random_presentation(rng)
        assert abelianization(pres) == dense_abelianization(pres)


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_abelianization_matches_dense_snf_on_fixtures(name):
    pres = fundamental_group(load_fixture(name))
    assert abelianization(pres) == dense_abelianization(pres)


@pytest.mark.parametrize("p,q", [(97, 29), (240, 61), (500, 163), (1000, 331)])
def test_large_lens_space_homology(p, q):
    pres = fundamental_group(lens_space(p, q))
    assert abelianization(pres) == AbelianGroup(0, (p,))
    # one seed writes every generator, so H1 is one gcd
    assert len(closure(pres).seeds) == 1
    # every generator but one is a unit pivot: the dense SNF sees one column
    rows = [w.nonzero_exponent_sums() for w in pres.relators]
    pivots, left = _unit_pivot_core(rows, pres.g)
    assert (len(pivots), _core(left).cols) == (pres.g - 1, 1)


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_abelianization_runs_one_snf_on_the_seed_core(name, monkeypatch):
    # one call, through the module-level name perfbench traces, on at
    # most k x k entries for k seeds; the sparse eliminator is step 1's
    pres = fundamental_group(load_fixture(name))
    k = len(closure(pres).seeds)
    calls = []

    def counted(a):
        calls.append((a.rows, a.cols))
        return smith_normal_form(a)

    def refused(*args):
        raise AssertionError("abelianization called _unit_pivot_core")

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    monkeypatch.setattr(intlinalg, "_unit_pivot_core", refused)
    assert abelianization(pres) == dense_abelianization(pres)
    assert len(calls) == 1
    rows, cols = calls[0]
    assert rows <= k and cols == k


def _core(left):
    """The dense core of the rows left, as abelianization builds it."""
    cols = sorted({j for row in left for j in row})
    return IntMatrix([[row.get(j, 0) for j in cols] for row in left], cols=len(cols))


def test_unit_pivot_core_revisits_changed_rows():
    # row 0 has no unit until row 1's pivot clears column 0 from it
    pivots, left = _unit_pivot_core([{0: 2, 1: 3}, {0: 1, 1: 1}], 2)
    core = _core(left)
    assert (len(pivots), core.rows, core.cols) == (2, 0, 0)
    pivots, left = _unit_pivot_core([{0: 2, 1: 4}, {0: 1, 1: 1}], 2)
    assert (len(pivots), _core(left).entries) == (1, ((2,),))


def _short_relator_rows(data, g):
    """Exponent rows of relators of at most three letters over g
    generators, or squares and cubes of one letter, which leave entries
    +-2 and +-3."""
    letter = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
    power = st.builds(lambda x, k: [x] * k, letter, st.integers(2, 3))
    relators = data.draw(
        st.lists(st.one_of(st.lists(letter, min_size=1, max_size=3), power), max_size=2 * g + 2)
    )
    return [Word(tuple(w)).nonzero_exponent_sums() for w in relators]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_pivot_core_matches_min_pivot_oracle(data):
    # at sizes beyond the minors oracle; a core often remains, and a
    # pivot taken in another column shows in it
    g = data.draw(st.integers(1, 40))
    rows = _short_relator_rows(data, g)
    expected = min_unit_pivot_core([dict(row) for row in rows], g)
    pivots, left = _unit_pivot_core(rows, g)
    assert (len(pivots), _core(left)) == expected


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((0, 2, 3, 4, 5, 6, 12)))
def test_unit_pivot_core_contract(data, n):
    """Over Z (n = 0) and Z/n: no row left holds a unit, each pivot's row
    names only columns pivoted later or never, and every assignment of
    the columns that are neither pivoted nor in a row left, lifted
    through the pivots in reverse, kills every original row mod n
    (exactly, for n = 0).  Every unit mod 12 is its own inverse, so only
    n = 5 tells a pivot's recorded inverse from its unit."""
    g = data.draw(st.integers(1, 40))
    original = _short_relator_rows(data, g)
    if n:
        rows = [{c: x % n for c, x in row.items() if x % n} for row in original]
    else:
        rows = [dict(row) for row in original]
    pivots, left = _unit_pivot_core(rows, g, n)
    for row in left:
        assert row and all(math.gcd(x, n) != 1 for x in row.values())
        if n:
            assert all(0 < x < n for x in row.values())
    pivoted = [j for j, _, _ in pivots]
    for k, (j, inverse, row) in enumerate(pivots):
        assert math.gcd(inverse, n) == 1
        assert not row.keys() & set(pivoted[: k + 1])
    named = {c for row in left for c in row}
    assert not named & set(pivoted)
    free = [c for c in range(g) if c not in named and c not in pivoted]
    # the lift is linear, so the unit vectors stand for every assignment
    for c0 in free:
        x = [0] * g
        x[c0] = 1
        for j, inverse, row in reversed(pivots):
            x[j] = -inverse * sum(v * x[c] for c, v in row.items())
            if n:
                x[j] %= n
        for row in original:
            value = sum(v * x[c] for c, v in row.items())
            assert (value % n if n else value) == 0


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1729)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        ours = [d for d in smith_normal_form(IntMatrix(entries)).diag if d]
        theirs = invariant_factors(sympy.Matrix(entries), domain=sympy.ZZ)
        assert ours == [abs(int(d)) for d in theirs if d]
