"""The shared orbit pass (`Triangulation.orbit_walk`) and its readers,
checked against the independent orbit oracles in `oracles.py`, and
against the chain they replaced (three orbit passes, the dual-graph
orientation check, pi1 from a cell structure)."""

import itertools
import random
import signal
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MANIFOLD_FIXTURES, load_fixture
from lenscert.intlinalg import abelianization
from lenscert.presentation import GroupPresentation, fundamental_group
from lenscert.triangulation import (
    _GLUING_SIGN,
    DIRECTED_INDEX,
    EDGE_INDEX,
    DisconnectedError,
    OrientationResult,
    Permutation4,
    TriangulationError,
    format_triangulation,
    make_triangulation,
    orientation_check,
    parse_triangulation,
    validate,
)
from make_fixtures import lens_space
from oracles import (
    _edge_orbits,
    _vertex_orbits,
    cell_fundamental_group,
    cell_structure,
    chain_complex_h1,
    disjoint_union,
    is_connected,
    link_euler_characteristics,
    perm_is_odd,
    random_gluing_table,
    relabel_triangulation,
    table_built_directly,
    three_pass_orbit_roots,
    tree_orientation_check,
)

ALL_FIXTURES = MANIFOLD_FIXTURES + ["badlink_torus.tri"]
# fixtures whose boundary matrices keep the minors oracle cheap; the other
# manifolds are checked against the H1 recorded in fixtures/metadata.json
SMALL_FIXTURES = [
    "lens_2_1.tri",
    "lens_3_1.tri",
    "lens_4_1.tri",
    "lens_5_2.tri",
    "t3_torus.tri",
    "prism_q8.tri",
    "prism_q12.tri",
    "onevertex_t2.tri",
    "badlink_torus.tri",
]


def _random_tables(count: int, seed: int, max_t: int):
    rng = random.Random(seed)
    return [random_gluing_table(rng.randint(1, max_t), rng) for _ in range(count)]


def _min_slots(orbits, slot_of) -> list[int]:
    """Slot -> smallest slot of its oracle class."""
    out = {}
    for members in orbits.classes().values():
        slots = [slot_of(m) for m in members]
        for s in slots:
            out[s] = min(slots)
    return [out[s] for s in range(len(out))]


def _oracle_report(tri):
    vertices = _vertex_orbits(tri)
    edges, directed = _edge_orbits(tri)
    v, e = vertices.count(), edges.count()
    reversed_edges = len({
        edges.find((tet, a, b))
        for tet, a, b in edges.parent
        if directed.find((tet, a, b)) == directed.find((tet, b, a))
    })
    chi = link_euler_characteristics(tri)
    classes = vertices.classes()
    links = [chi[root] for root in sorted(classes, key=lambda r: min(classes[r]))]
    return v, e, reversed_edges, links


def _check_against_oracles(tri, h1_oracle=True):
    vertices = _vertex_orbits(tri)
    edges, directed = _edge_orbits(tri)
    vroot, droot, edge_roots, _ = tri.orbit_walk
    assert list(vroot) == _min_slots(vertices, lambda m: 4 * m[0] + m[1])
    assert list(droot) == _min_slots(directed, lambda m: 12 * m[0] + DIRECTED_INDEX[m[1:]])
    eroot = _min_slots(edges, lambda m: 6 * m[0] + EDGE_INDEX[m[1:]])
    assert edge_roots == tuple(x for x, root in enumerate(eroot) if x == root)

    v, e, reversed_edges, links = _oracle_report(tri)
    report = validate(tri)
    assert (report.v, report.e, report.f, report.t) == (v, e, 2 * tri.t, tri.t)
    assert report.euler == v - e + tri.t
    assert report.reversed_edges == reversed_edges
    assert list(report.vertex_link_eulers) == links
    assert report.passed == (report.euler == 0 and set(links) <= {2} and not reversed_edges)

    if reversed_edges:
        with pytest.raises(TriangulationError):
            cell_structure(tri)
        with pytest.raises(TriangulationError):
            fundamental_group(tri)
        return False
    cs = cell_structure(tri)
    assert (cs.n_vertices, cs.n_edges, len(cs.face_classes)) == (v, e, 2 * tri.t)
    edge_mins = sorted(min(m) for m in edges.classes().values())
    assert list(cs.edge_reps) == [(tet, EDGE_INDEX[(a, b)]) for tet, a, b in edge_mins]
    if h1_oracle:
        group = abelianization(fundamental_group(tri))
        free_rank, torsion = chain_complex_h1(tri)
        assert (group.free_rank, sorted(group.torsion)) == (free_rank, torsion)
    return True


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_orbits_match_oracles(name, fixture_metadata):
    tri = load_fixture(name)
    _check_against_oracles(tri, h1_oracle=name in SMALL_FIXTURES)
    if name not in SMALL_FIXTURES:
        group = abelianization(fundamental_group(tri))
        expected = fixture_metadata[name]["h1"]
        assert (group.free_rank, list(group.torsion)) == (expected["free_rank"], expected["torsion"])


def test_random_table_orbits_match_oracles():
    with_pi1 = sum(_check_against_oracles(tri) for tri in _random_tables(200, 8128, 6))
    assert with_pi1 >= 20  # enough draws without reversed edges reach H1


def _outcome(fn, tri):
    try:
        return fn(tri)
    except TriangulationError as exc:
        return str(exc)


def test_results_do_not_depend_on_call_order():
    for tri in _random_tables(60, 31337, 6) + [load_fixture(n) for n in ALL_FIXTURES]:
        text = format_triangulation(tri)
        first, second = parse_triangulation(text), parse_triangulation(text)
        report_first = validate(first)
        pres_first = _outcome(fundamental_group, first)
        pres_second = _outcome(fundamental_group, second)
        report_second = validate(second)
        assert report_first == report_second
        assert pres_first == pres_second


def test_memo_belongs_to_one_instance():
    rng = random.Random(4711)
    moved = 0
    for tri in _random_tables(60, 2718, 6):
        walk = tri.orbit_walk
        twin = parse_triangulation(format_triangulation(tri))
        assert twin == tri and "orbit_walk" not in vars(twin)
        perm = list(range(tri.t))
        rng.shuffle(perm)
        relabelled = relabel_triangulation(tri, perm)
        assert "orbit_walk" not in vars(relabelled)
        _check_against_oracles(relabelled)
        moved += relabelled.orbit_walk != walk
        assert tri.orbit_walk is walk
    assert moved >= 20  # a memo shared with the original would be caught


@pytest.mark.parametrize("p,q", [(500, 201), (1000, 331)])
def test_large_lens_space_validates_with_cyclic_h1(p, q):
    tri = parse_triangulation(format_triangulation(lens_space(p, q)))
    assert validate(tri).passed
    group = abelianization(fundamental_group(tri))
    assert (group.free_rank, group.torsion) == (0, (p,))


def test_permutation_tables_match_brute_force():
    for images in itertools.permutations(range(4)):
        perm = Permutation4(images)
        inverse = perm.inverse()
        assert all(inverse(perm(v)) == v for v in range(4))
        assert inverse.inverse() == perm
        # parity from the cycle count, independent of inversion counting
        seen, cycles = set(), 0
        for v in range(4):
            if v not in seen:
                cycles += 1
                while v not in seen:
                    seen.add(v)
                    v = images[v]
        odd = (4 - cycles) % 2 == 1
        assert perm_is_odd(perm) == odd
        assert _GLUING_SIGN[perm.index] == (1 if odd else -1)
    with pytest.raises(TriangulationError):
        Permutation4((0, 0, 1, 2))



# ----------------------------------------------------------------------
# the one-walk chain against the chain it replaced


def _result(fn, tri):
    try:
        return fn(tri)
    except TriangulationError as exc:
        return type(exc), str(exc)


def _assert_chain_matches_replaced(tri):
    *tables, edge_roots, tails = tri.orbit_walk
    vroot, eroot, droot = three_pass_orbit_roots(tri)
    assert tables == [vroot, droot]
    # the roots the walk lists as it meets them are the oracle's own
    assert edge_roots == tuple(x for x, root in enumerate(eroot) if x == root)
    assert tails == tuple(x // 3 for x, root in enumerate(droot) if x == root)
    assert _result(orientation_check, tri) == _result(tree_orientation_check, tri)
    assert _result(fundamental_group, tri) == _result(cell_fundamental_group, tri)


@settings(max_examples=150)
@given(st.integers(1, 12), st.booleans(), st.randoms(use_true_random=False))
def test_chain_equals_replaced_chain_on_random_tables(t, connected, rnd):
    _assert_chain_matches_replaced(random_gluing_table(t, rnd, connected=connected))


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
def test_chain_equals_replaced_chain_on_disjoint_unions(t1, t2, rnd):
    tri = disjoint_union(random_gluing_table(t1, rnd), random_gluing_table(t2, rnd))
    with pytest.raises(DisconnectedError):
        orientation_check(tri)
    _assert_chain_matches_replaced(tri)


def test_empty_triangulation_has_the_empty_presentation():
    empty = make_triangulation(0, [])
    assert fundamental_group(empty) == cell_fundamental_group(empty) == GroupPresentation(0, ())
    assert validate(empty).v == 0 and empty.orbit_walk == ((), (), (), ())


def test_empty_triangulation_is_orientable():
    """Like is_connected and the empty presentation: no tetrahedron, no
    sign to set and no pairing to violate."""
    empty = make_triangulation(0, [])
    assert is_connected(empty)
    assert orientation_check(empty) == OrientationResult(True, (), None)


def test_walk_stops_on_gluings_that_do_not_pair_faces_both_ways():
    """A walk round such a table can cycle without meeting its start; it
    must stop at the first slot labelled before.  The alarm turns a
    walk that never stops into a failure."""

    def expire(signum, frame):
        raise TimeoutError("orbit walk did not stop")

    rng = random.Random(99)
    rejected = 0
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        for _ in range(50):
            try:
                table_built_directly(rng).orbit_walk
            except TriangulationError as exc:
                assert "both ways" in str(exc)
                rejected += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # a few tables happen to give every directed edge a cycle
    assert rejected >= 40


@st.composite
def lens_parameters(draw):
    p = draw(st.integers(2, 90))
    q = draw(st.sampled_from([q for q in range(1, p) if gcd(p, q) == 1]))
    return p, q


@settings(max_examples=60)
@given(lens_parameters(), st.randoms(use_true_random=False))
def test_chain_equals_replaced_chain_on_relabelled_lens_spaces(pq, rnd):
    tri = lens_space(*pq)
    perm = list(range(tri.t))
    rnd.shuffle(perm)
    relabelled = relabel_triangulation(tri, perm)
    _assert_chain_matches_replaced(relabelled)
    assert abelianization(fundamental_group(relabelled)).torsion == (pq[0],)
