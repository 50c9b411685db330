import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscert.intlinalg import (
    AbelianGroup,
    IntMatrix,
    abelianization,
    closure,
    format_abelian,
    hadamard_torsion_bound,
    is_cyclic,
    seed_core,
    smith_normal_form,
)
import lenscert.intlinalg as intlinalg
from lenscert.certificate import parse_word
from lenscert.presentation import GroupPresentation, Word
from conftest import MANIFOLD_FIXTURES, load_fixture
from lenscert.presentation import fundamental_group
from make_fixtures import lens_space
from oracles import (
    det_int,
    exponent_matrix,
    int_identity,
    int_matmul,
    invariant_factors_by_minors,
    random_presentation,
    two_sided_smith_normal_form,
    word_power,
)


def triangle_presentation_333():
    x, y, xy = Word(((0, 1),)), Word(((1, 1),)), Word(((0, 1), (1, 1)))
    return GroupPresentation(
        2, (word_power(x, 3), word_power(y, 3), word_power(xy, 3)), labels=("x", "y")
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


def _int_matrices():
    """Integer matrices of 0 to 5 columns and 0 to 6 rows, some of them
    rows of zeros."""
    def rows_of(cols):
        row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
        rows = st.lists(st.one_of(st.just([0] * cols), row), max_size=6)
        return rows.map(lambda entries: IntMatrix(entries, cols=cols))

    return st.integers(0, 5).flatmap(rows_of)


@settings(max_examples=300)
@given(_int_matrices())
def test_snf_v_is_a_unimodular_column_transform(a):
    """V is unimodular, column j of a*V is 0 beyond the rank and divisible
    by diag j below it, and diag is the two-sided oracle's."""
    result = smith_normal_form(a)
    assert (result.v.rows, result.v.cols) == (a.cols, a.cols)
    assert det_int(result.v.entries) in (1, -1)
    av = int_matmul(a, result.v)
    for j in range(a.cols):
        column = [row[j] for row in av.entries]
        if j < result.rank:
            assert all(x % result.diag[j] == 0 for x in column)
        else:
            assert not any(column)
    assert result.diag == two_sided_smith_normal_form(a)[0]


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


@settings(max_examples=150)
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
# abelianization through the seed core


def dense_abelianization(pres) -> AbelianGroup:
    """G^ab from the dense SNF of the whole exponent matrix."""
    snf = smith_normal_form(exponent_matrix(pres))
    torsion = tuple(d for d in snf.diag[: snf.rank] if d > 1)
    return AbelianGroup(free_rank=pres.g - snf.rank, torsion=torsion)


@settings(max_examples=300)
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
    # the dense SNF sees one entry: the gcd of the left-over images
    assert seed_core(pres).snf.diag == (p,)


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_abelianization_runs_one_snf_on_the_seed_core(name, monkeypatch):
    # one call, through the module-level name perfbench traces, on at
    # most k x k entries for k seeds
    pres = fundamental_group(load_fixture(name))
    k = len(closure(pres).seeds)
    calls = []

    def counted(a):
        calls.append((a.rows, a.cols))
        return smith_normal_form(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    assert abelianization(pres) == dense_abelianization(pres)
    assert len(calls) == 1
    rows, cols = calls[0]
    assert rows <= k and cols == k


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
