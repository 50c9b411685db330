import functools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MANIFOLD_FIXTURES, fixture_path, load_fixture
from lenscert.cli import main as cli_main
from lenscert.certificate import parse_word
from lenscert.intlinalg import AbelianGroup, Closure, abelianization, closure, lift
from lenscert.presentation import (
    LABEL_PATTERN,
    GroupPresentation,
    Word,
    format_presentation,
    format_word,
    fundamental_group,
    letter_table,
    read_word,
)
from lenscert.psl import FieldSpec, ProjMatrix
from lenscert.triangulation import parse_triangulation, validate
from make_fixtures import enumerate_tables, lens_space, prism_manifold
from oracles import (
    cell_structure,
    chain_complex_h1,
    closure_by_rescan,
    dual_presentation,
    exponent_matrix,
    inverse_word,
    is_connected,
    psl_elements,
    random_gluing_table,
    random_presentation,
    reduced_word,
    s4_homomorphism_count,
    word_power,
)

MINIMAL_ONE_TET = """
t=1
0:0 -> 0:1 perm=1203
0:2 -> 0:3 perm=0231
"""


# ----------------------------------------------------------------------
# words


def test_free_reduction():
    w = Word(((0, 1), (0, -1), (1, 1)))
    assert reduced_word(w) == Word(((1, 1),))
    nested = Word(((0, 1), (1, 1), (1, -1), (0, -1), (2, 1)))
    assert reduced_word(nested) == Word(((2, 1),))


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=30
    )
)
def test_reduction_idempotent(letters):
    w = Word(tuple(letters))
    assert reduced_word(reduced_word(w)) == reduced_word(w)


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=15)
)
def test_word_inverse_cancels(letters):
    w = Word(tuple(letters))
    assert reduced_word(Word(w.letters + inverse_word(w).letters)) == Word()


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=12)
)
def test_is_reduced_agrees_with_reduction(letters):
    w = Word(tuple(letters))
    assert w.is_reduced() == (reduced_word(w) == w)
    assert reduced_word(w).is_reduced()


def test_is_reduced_small_cases():
    assert Word().is_reduced()
    assert Word(((0, -1),)).is_reduced()
    assert Word(((0, 1), (0, 1), (1, -1), (0, -1))).is_reduced()
    assert not Word(((0, 1), (1, 1), (1, -1))).is_reduced()
    assert not Word(((1, -1), (1, 1))).is_reduced()


def test_word_format_roundtrip():
    labels = ("a", "b")
    w = parse_word("a b^-1 a a", labels)
    assert format_word(w, labels) == "a b^-1 a a"
    # a surjection file may space its tokens with runs of spaces and tabs
    assert parse_word(" a\tb^-1  a \t a ", labels) == w
    assert parse_word("", labels) == parse_word(" \t ", labels) == Word()
    # and with nothing else: other whitespace is part of a token
    for blank in ("\n", "\xa0", "\u3000"):
        with pytest.raises(ValueError) as raised:
            parse_word(f"a{blank}b", labels)
        assert str(raised.value) == f"unknown generator {f'a{blank}b'!r} in word"


@settings(max_examples=300)
@given(st.data())
def test_parse_word_reads_back_format_word(data):
    label = st.from_regex(LABEL_PATTERN, fullmatch=True)
    labels = tuple(data.draw(st.lists(label, min_size=1, max_size=5, unique=True)))
    letters = st.tuples(st.integers(0, len(labels) - 1), st.sampled_from((1, -1)))
    w = Word(tuple(data.draw(st.lists(letters, max_size=12))))
    text = format_word(w, labels)
    assert parse_word(text, labels) == w
    assert read_word(text, letter_table(labels)) == w


@pytest.mark.parametrize(
    "token",
    ["x^2", "x^0", "x^1", "x^-2", "x^+1", "x^+3", "y^0_2", "x^٣", "x^03", "x^", "x^-", "x^--1"],
)
def test_parse_word_exponent_is_a_canonical_decimal(token):
    # the one exponent a word spells is '^-1': every other, canonical
    # decimal or not, is refused by name
    with pytest.raises(ValueError) as raised:
        parse_word(f"y {token} y", ("x", "y"))
    assert str(raised.value) == f"exponent in {token!r}: certificate words allow only '^-1'"


def test_read_word_names_an_unknown_generator():
    table = letter_table(("x", "y"))
    for text in ("x z", "x z^-1", "x z^2", "x  y", "x "):
        name = text.split(" ")[1].partition("^")[0]
        with pytest.raises(ValueError) as raised:
            read_word(text, table)
        assert str(raised.value) == f"unknown generator {name!r} in word"


# ----------------------------------------------------------------------
# presentation checks at construction

LETTERS = st.tuples(st.integers(0, 7), st.sampled_from((1, -1)))


@settings(max_examples=100)
@given(st.integers(0, 6), st.lists(st.lists(LETTERS, max_size=4), max_size=5))
def test_presentation_rejects_exactly_the_relators_past_its_generators(g, words):
    relators = tuple(Word(tuple(letters)) for letters in words)
    top = max((gen for letters in words for gen, _ in letters), default=-1)
    for labels in ((), tuple(f"g{k}" for k in range(g))):
        if top < g:
            pres = GroupPresentation(g, relators, labels)
            assert pres.labels == (labels or tuple(f"x{k}" for k in range(g)))
        else:
            with pytest.raises(ValueError, match="unknown generator"):
                GroupPresentation(g, relators, labels)


@pytest.mark.parametrize(
    "labels,message",
    [(("a",), "label count"), (("a", "a"), "duplicate"), (("a", "1b"), "bad generator label"),
     (("a", "b-c"), "bad generator label"), (("a", ""), "bad generator label")],
)
def test_presentation_label_checks(labels, message):
    with pytest.raises(ValueError, match=message):
        GroupPresentation(2, (), labels)


# ----------------------------------------------------------------------
# cell structure (the oracle pi1 was once read from)


def test_one_tet_has_two_face_classes():
    cs = cell_structure(parse_triangulation(MINIMAL_ONE_TET))
    assert len(cs.face_classes) == 2


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_face_class_count(name):
    tri = load_fixture(name)
    cs = cell_structure(tri)
    assert len(cs.face_classes) == 2 * tri.t


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_cell_counts_match_validation(name):
    tri = load_fixture(name)
    cs = cell_structure(tri)
    report = validate(tri)
    assert cs.n_vertices == report.v
    assert cs.n_edges == report.e


def test_one_vertex_fixture_edge_classes():
    tri = load_fixture("t3_torus.tri")
    cs = cell_structure(tri)
    assert cs.n_vertices == 1
    assert cs.n_edges == tri.t + 1


def test_two_vertex_fixture():
    cs = cell_structure(load_fixture("lens_5_2.tri"))
    assert cs.n_vertices == 2


# ----------------------------------------------------------------------
# fundamental group


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_presentation_shape(name):
    tri = load_fixture(name)
    report = validate(tri)
    pres = fundamental_group(tri)
    assert pres.g == report.e - (report.v - 1)
    assert len(pres.relators) == 2 * tri.t
    assert all(len(w) <= 3 for w in pres.relators)
    assert all(w.is_reduced() for w in pres.relators)


def test_one_vertex_counts():
    # 1-vertex: exactly e = t+1 generators survive (empty tree)
    for name in ("t3_torus.tri", "onevertex_t2.tri", "prism_q8.tri", "prism_q12.tri"):
        tri = load_fixture(name)
        report = validate(tri)
        if report.v != 1:
            continue
        pres = fundamental_group(tri)
        assert pres.g == tri.t + 1
        assert len(pres.relators) == 2 * tri.t


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_abelianization_matches_fixture_metadata(name, fixture_metadata):
    tri = load_fixture(name)
    group = abelianization(fundamental_group(tri))
    expected = fixture_metadata[name]["h1"]
    assert group.free_rank == expected["free_rank"]
    assert list(group.torsion) == expected["torsion"]


# restricted to fixtures whose boundary matrices keep the minors oracle cheap
SMALL_FIXTURES = [
    "lens_2_1.tri",
    "lens_3_1.tri",
    "lens_4_1.tri",
    "lens_5_2.tri",
    "t3_torus.tri",
    "prism_q8.tri",
    "prism_q12.tri",
    "onevertex_t2.tri",
]


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_abelianization_matches_chain_complex_oracle(name):
    tri = load_fixture(name)
    group = abelianization(fundamental_group(tri))
    free, torsion = chain_complex_h1(tri)
    assert group.free_rank == free
    assert sorted(group.torsion) == torsion


def test_lens_space_homology_is_cyclic_of_order_p():
    for name, p in (("lens_3_1.tri", 3), ("lens_4_1.tri", 4), ("lens_7_2.tri", 7)):
        group = abelianization(fundamental_group(load_fixture(name)))
        assert group.free_rank == 0
        assert group.torsion == (p,)


def test_pi1_has_as_many_homomorphisms_into_s4_as_the_dual_presentation():
    """On every fixture, every L(p,q) with p < 30, prism_manifold(2..15)
    and a seeded sample of the closed connected tables on two
    tetrahedra, the presentation read off the edges and the one read off
    the dual complex have the same number of homomorphisms into S4."""
    tris = [load_fixture(name) for name in MANIFOLD_FIXTURES]
    tris += [lens_space(p, q) for p in range(2, 30) for q in range(1, p) if math.gcd(p, q) == 1]
    tris += [prism_manifold(m) for m in range(2, 16)]
    rng = random.Random(2)
    sample = [tri for tri in enumerate_tables(2) if rng.random() < 0.01]
    tris += [tri for tri in sample if validate(tri).passed and is_connected(tri)]
    assert len(tris) == 12 + 269 + 14 + 44
    counts = set()
    for tri in tris:
        count = s4_homomorphism_count(fundamental_group(tri))
        assert count == s4_homomorphism_count(dual_presentation(tri))
        counts.add(count)
    assert counts == {1, 9, 10, 16, 18, 24, 40, 52, 76, 100, 504}


def test_relator_lengths_on_random_legal_tables():
    rng = random.Random(424242)
    checked = 0
    for _ in range(40):
        tri = random_gluing_table(rng.randint(1, 5), rng)
        try:
            pres = fundamental_group(tri)
        except Exception:
            continue  # reversed edges make the orientation convention void
        checked += 1
        assert all(len(w) <= 3 for w in pres.relators)
        assert len(pres.relators) == 2 * tri.t
        assert pres.g <= cell_structure(tri).n_edges
    assert checked >= 10


# ----------------------------------------------------------------------
# exponent matrix


def test_exponent_matrix_triangle_group():
    x, y, xy = Word(((0, 1),)), Word(((1, 1),)), Word(((0, 1), (1, 1)))
    pres = GroupPresentation(
        2,
        (word_power(x, 3), word_power(y, 3), word_power(xy, 3)),
        labels=("x", "y"),
    )
    assert exponent_matrix(pres).entries == ((3, 0), (0, 3), (3, 3))


def test_exponent_matrix_figure8():
    labels = ("a", "b")
    relator = parse_word("a b a^-1 b^-1 a b a b^-1 a^-1 b^-1", labels)
    pres = GroupPresentation(2, (relator,), labels)
    assert exponent_matrix(pres).entries == ((1, -1),)


def test_exponent_matrix_no_relators():
    pres = GroupPresentation(3, ())
    matrix = exponent_matrix(pres)
    assert matrix.rows == 0 and matrix.cols == 3


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))), max_size=24))
@example([])
@example([(0, 1), (0, 1), (2, -1)])  # a repeated letter
@example([(1, 1), (0, 1), (1, -1)])  # a sum that cancels
@example([(3, -1), (1, 1), (3, 1), (1, -1)])  # every sum cancels
def test_nonzero_exponent_sums_match_a_letter_count(letters):
    # five generators and up to 24 letters, so letters repeat and cancel
    counts = [0] * 5
    first_seen: list[int] = []
    for gen, exp in letters:
        counts[gen] += exp
        if gen not in first_seen:
            first_seen.append(gen)
    expected = [(gen, counts[gen]) for gen in first_seen if counts[gen]]
    word = Word(tuple(letters))
    sums = word.nonzero_exponent_sums()
    assert list(sums.items()) == expected
    # each call returns a new dict, so a caller's edits do not leak
    sums[0] = 99
    assert list(word.nonzero_exponent_sums().items()) == expected


def test_presentation_size(capsys):
    """lenscert pi1 reports the presentation's size: its generators plus
    its relator letters, 3 + 4 * 2 on L(2,1)."""
    assert cli_main(["pi1", fixture_path("lens_2_1.tri")]) == 0
    assert capsys.readouterr().out.endswith("x0 x1^-1\nx0 x1\nsize=11\n")


def test_format_presentation_block():
    pres = GroupPresentation(2, (Word(((0, 1), (1, -1))),), labels=("a", "b"))
    assert format_presentation(pres) == ["gens 2 a b", "rels 1", "a b^-1"]


# ----------------------------------------------------------------------
# closure and lift


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_closure_follows_its_stated_order(seed):
    pres = random_presentation(random.Random(seed))
    assert closure(pres) == Closure(*closure_by_rescan(pres))


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_closure_of_fixtures_follows_its_stated_order(name):
    pres = fundamental_group(load_fixture(name))
    assert closure(pres) == Closure(*closure_by_rescan(pres))


def test_closure_edge_cases():
    # no relators: every generator is a seed
    assert closure(GroupPresentation(3, ())) == Closure((0, 1, 2), (), ())
    # a one-letter relator defines its generator before any seed, and an
    # empty relator is left over
    pres = GroupPresentation(2, (Word(), Word(((1, 1), (0, -1))), Word(((1, -1),))))
    assert closure(pres) == Closure((), ((1, 2), (0, 1)), (0,))
    # a square never defines: its generator is a seed, the square left over
    pres = GroupPresentation(1, (Word(((0, 1), (0, 1))),))
    assert closure(pres) == Closure((0,), (), (0,))


@functools.cache
def _psl25_table() -> tuple[list[list[int]], list[int], int]:
    """PSL(2,5) as the indices of `psl_elements`: its multiplication
    table, each element's inverse and the identity's index."""
    elements = psl_elements(FieldSpec(5))
    index = {m: i for i, m in enumerate(elements)}
    table = [[index[a.mul(b)] for b in elements] for a in elements]
    inverse = [index[a.inverse()] for a in elements]
    return table, inverse, index[ProjMatrix.identity(FieldSpec(5))]


def _psl25_word(images, word: Word) -> int:
    table, inverse, one = _psl25_table()
    value = one
    for gen, exp in word.letters:
        value = table[value][images[gen] if exp == 1 else inverse[images[gen]]]
    return value


def _psl25_homomorphisms(pres, order: list[int], limit: int, budget: int) -> list[tuple]:
    """Up to `limit` homomorphisms of pres into PSL(2,5), by backtracking
    over the generators in index order and the elements in `order`: a
    relator is checked once its top generator has an image.  Stops after
    `budget` partial assignments."""
    one = _psl25_table()[2]
    by_top: list[list[Word]] = [[] for _ in range(pres.g)]
    for word in pres.relators:
        if word.letters:
            by_top[word.max_generator()].append(word)
    found: list[tuple] = []
    images: list[int] = []
    visits = 0

    def extend() -> None:
        nonlocal visits
        if len(images) == pres.g:
            found.append(tuple(images))
            return
        for m in order:
            if len(found) == limit or visits == budget:
                return
            visits += 1
            images.append(m)
            if all(_psl25_word(images, w) == one for w in by_top[len(images) - 1]):
                extend()
            images.pop()

    extend()
    return found


def _check_lift_into_psl25(pres, rng) -> int:
    """lift rebuilds every homomorphism into PSL(2,5) that a seeded search
    finds from its seed images, and kills every defining relator for any
    seed images; returns the number of non-trivial homomorphisms checked."""
    table, inverse, one = _psl25_table()
    closed = closure(pres)

    def lifted(seed_images):
        return lift(pres, closed, seed_images, lambda a, b: table[a][b], inverse.__getitem__, one)

    order = list(range(len(table)))
    rng.shuffle(order)
    homs = _psl25_homomorphisms(pres, order, limit=20, budget=2000)
    homs.append((one,) * pres.g)  # the trivial one, which the search may not reach
    for hom in homs:
        images = lifted([hom[s] for s in closed.seeds])
        assert images == list(hom)
        assert all(_psl25_word(images, pres.relators[r]) == one for r in closed.left)
    # so a choice of seed images is a homomorphism iff it kills the
    # relators left over
    for _ in range(5):
        images = lifted([rng.choice(order) for _ in closed.seeds])
        for _, r in closed.program:
            assert _psl25_word(images, pres.relators[r]) == one
    return len({hom for hom in homs if hom != (one,) * pres.g})


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_lift_rebuilds_every_homomorphism_into_psl_2_5(rng):
    # PSL(2,5) is non-abelian, so a lift that multiplied B and A in the
    # wrong order, or inverted u^e wrongly, would show here
    _check_lift_into_psl25(random_presentation(rng), rng)


def test_lift_rebuilds_homomorphisms_of_the_235_triangle_group():
    # T(2,3,5) = <x, y | x^2, y^3, (xy)^5> is A5 = PSL(2,5): the search
    # finds many non-trivial homomorphisms, all rebuilt from the seeds
    x, y = Word(((0, 1),)), Word(((1, 1),))
    xy = Word(((0, 1), (1, 1)))
    pres = GroupPresentation(2, (word_power(x, 2), word_power(y, 3), word_power(xy, 5)))
    assert len(closure(pres).seeds) == 2
    assert _check_lift_into_psl25(pres, random.Random(235)) == 20


def test_every_small_lens_space_has_one_seed():
    for p in range(2, 60):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                pres = fundamental_group(lens_space(p, q))
                assert len(closure(pres).seeds) == 1, (p, q)
                assert abelianization(pres) == AbelianGroup(0, (p,))


def test_prism_manifolds_have_two_seeds_and_the_3_torus_three():
    for name in ("prism_q8.tri", "prism_q12.tri"):
        assert len(closure(fundamental_group(load_fixture(name))).seeds) == 2, name
    for m in range(2, 41):
        assert len(closure(fundamental_group(prism_manifold(m))).seeds) == 2, m
    assert len(closure(fundamental_group(load_fixture("t3_torus.tri"))).seeds) == 3


def _best_of(repeats: int, run) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "small, large",
    [((lens_space, 2500, 751), (lens_space, 10000, 3001)),
     ((prism_manifold, 2500), (prism_manifold, 10000))],
    ids=["lens_space", "prism_manifold"],
)
def test_closure_takes_linear_time(small, large):
    # four times the generators: about four times the time when linear,
    # sixteen when quadratic; the constant covers timer noise at the
    # small size
    pres_small, pres_large = (fundamental_group(build(*args)) for build, *args in (small, large))
    t_small = _best_of(3, lambda: closure(pres_small))
    t_large = _best_of(3, lambda: closure(pres_large))
    assert t_large < 8 * t_small + 0.02
    assert t_large < 1.0


def fibonacci_chain(n: int) -> GroupPresentation:
    """x1 = x0, x(i+2) = x(i) x(i+1) and x(n-1) = 1 on n generators:
    x(i) is F(i+1) times x0 in H1, so H1 = Z/F(n), F(1) = F(2) = 1."""
    relators = [Word(((1, 1), (0, -1)))]
    relators += [Word(((i, 1), (i + 1, 1), (i + 2, -1))) for i in range(n - 2)]
    relators.append(Word(((n - 1, 1),)))
    return GroupPresentation(n, tuple(relators))


@pytest.mark.parametrize("n", [3, 10, 2000])
def test_fibonacci_chain_homology_grows_past_any_word_size(n):
    # the lift's images are F(1), F(2), ..., F(n - 1): about 1390 bits at
    # n = 2000, so exponent growth in lift is measured, not assumed small
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    pres = fibonacci_chain(n)
    start = time.perf_counter()
    group = abelianization(pres)
    assert time.perf_counter() - start < 1.0
    assert group == AbelianGroup(0, (a,))
    assert len(closure(pres).seeds) == 1
