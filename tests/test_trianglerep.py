import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lenscert.galois import euler_phi, is_quadratic_residue, quadratic_extension, root_of_unity
from lenscert.presentation import GroupPresentation, Word
from lenscert.projmat import evaluate_word, projective_order
from lenscert.psl import FieldSpec, ProjMatrix
from lenscert import trianglerep
from lenscert.certificate import triangle_certificate
from lenscert.checker import NonAbelianRep, NonCyclicAbelian, serialize
from lenscert.cli import main as cli_main
from lenscert.trianglerep import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    RepVerificationError,
    bound_report,
    build_hyperbolic_rep,
    build_nonhyperbolic_cert,
    classify,
    cosine_norm,
    cyclotomic_eval,
    field_degree_report,
    hyperbolic_triples,
    reduced_cosines,
    solve_r,
    triangle_image,
    triangle_presentation,
)
from oracles import (
    conjugate_by_translation,
    cyclotomic_by_division,
    cyclotomic_poly,
    field_dihedral_pair,
    field_reduced_cosines,
    field_solve_r,
    float_cosine_norm,
    fraction_classify,
    hyperbolic_parameters,
    primes_in_progression_by_scan,
    spherical_pair_by_search,
    word_power,
)


# ----------------------------------------------------------------------
# classification


def test_classify_237():
    t = classify(2, 3, 7)
    assert t.curvature == HYPERBOLIC
    assert t.ell == 84
    assert t.d == 1


def test_classify_333():
    t = classify(3, 3, 3)
    assert t.curvature == EUCLIDEAN
    assert t.d == 3


def test_classify_235():
    assert classify(2, 3, 5).curvature == SPHERICAL


def test_classify_sorts():
    assert classify(7, 2, 3).triple == (2, 3, 7)


def test_classify_rejects_small():
    with pytest.raises(ValueError):
        classify(1, 3, 7)
    with pytest.raises(ValueError):
        classify(1, 2, 3)


def test_classify_matches_fraction_oracle_up_to_60():
    # every sorted triple with entries 2..60, passed unsorted
    for a in range(2, 61):
        for b in range(a, 61):
            for c in range(b, 61):
                assert classify(c, a, b) == fraction_classify(a, b, c)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(2, 7), st.integers(2, 10**12)), min_size=3, max_size=3))
@example([2, 3, 6])
@example([2, 4, 4])
@example([10**12, 10**12, 10**12])
def test_classify_matches_fraction_oracle_on_large_entries(ns):
    assert classify(*ns) == fraction_classify(*ns)


def test_triangle_presentation_equals_checked_construction():
    # the words built without validation are the ones Word and
    # GroupPresentation accept
    for triple in [(2, 3, 7), (2, 2, 5), (3, 3, 3), (4, 5, 19)]:
        t = classify(*triple)
        x, y = Word(((0, 1),)), Word(((1, 1),))
        xy = Word(((0, 1), (1, 1)))
        relators = (word_power(x, t.n1), word_power(y, t.n2), word_power(xy, t.n3))
        expected = GroupPresentation(g=2, relators=relators, labels=("x", "y"))
        assert triangle_presentation(t) == expected


def test_triangle_presentation_shape():
    pres = triangle_presentation(classify(2, 3, 7))
    assert pres.g == 2
    assert [len(w) for w in pres.relators] == [2, 3, 14]


# ----------------------------------------------------------------------
# reduced cosines and the quadratic


def _zeta_and_cosines(spec, ell, triple):
    """(zeta, C1, C2, C3) for zeta the root_of_unity of order ell in the
    prime field spec."""
    zeta = root_of_unity(spec, ell).a
    return (zeta, *reduced_cosines(spec, ell, zeta, triple))


def test_cosine_images_small_orders():
    zeta, c1, c2, c3 = _zeta_and_cosines(FieldSpec(337), 84, (2, 3, 7))
    assert c1 == 0  # 2cos(pi/2) = 0
    assert c2 == 1  # 2cos(pi/3) = 1
    assert c3 != 2


def test_cosine_images_never_two_unless_power_of_two():
    # C_k = 2 would make 2c - 2 = 0, whose norm is 1 for n not a power of 2
    for triple in [(2, 3, 7), (3, 4, 5), (2, 5, 9), (5, 6, 7)]:
        t = classify(*triple)
        from lenscert.galois import smallest_prime_in_progression

        p = smallest_prime_in_progression(t.ell)
        _, c1, c2, c3 = _zeta_and_cosines(FieldSpec(p), t.ell, t.triple)
        for n, c in zip(t.triple, (c1, c2, c3)):
            if n & (n - 1) != 0:
                assert c != 2


def test_solve_r_replay():
    p = 337
    spec = FieldSpec(p)
    _, c1, c2, c3 = _zeta_and_cosines(spec, 84, (2, 3, 7))
    out_spec, r = solve_r(spec, c1, c2, c3)
    lifted = [out_spec.element(c) for c in (c1, c2, c3)]
    r = out_spec.element(*r)
    check = r * r + r * (lifted[0] - lifted[1]) + (
        out_spec.element(2) - lifted[0] * lifted[1] - lifted[2]
    )
    assert check.is_zero()


def test_solve_r_degenerate_zero():
    # C1 = C2 and C3 = 2 - C1^2 forces r = 0
    spec = FieldSpec(337)
    c1 = 5
    c3 = (2 - c1 * c1) % 337
    out_spec, r = solve_r(spec, c1, c1, c3)
    assert out_spec == spec
    assert r == (0, 0)


def test_solve_r_residue_verdict_recorded():
    p = 337
    spec = FieldSpec(p)
    _, c1, c2, c3 = (spec.element(c) for c in _zeta_and_cosines(spec, 84, (2, 3, 7)))
    lin = c1 - c2
    disc = lin * lin - spec.element(4) * (spec.element(2) - c1 * c2 - c3)
    out_spec, _ = solve_r(spec, c1.a, c2.a, c3.a)
    assert (out_spec.degree == 1) == is_quadratic_residue(disc.a, p)


@settings(max_examples=150)
@given(st.lists(st.integers(2, 40), min_size=3, max_size=3), st.integers(0, 2))
@example([2, 3, 7], 0)  # F_337
@example([2, 3, 8], 0)  # F_97^2
def test_int_construction_matches_field_oracles(entries, k):
    """Cosines and r on ints equal the FieldElement construction, for the
    k-th prime p = 1 (mod ell), over F_p and F_{p^2} alike."""
    t = classify(*entries)
    assume(t.curvature == HYPERBOLIC)
    p = primes_in_progression_by_scan(t.ell, k + 1)[-1]
    spec = FieldSpec(p)
    cosines = _zeta_and_cosines(spec, t.ell, t.triple)
    expected = field_reduced_cosines(p, t.ell, t.triple)
    assert cosines == tuple(x.a for x in expected)
    out_spec, r = solve_r(spec, *cosines[1:])
    oracle_spec, oracle_r = field_solve_r(spec, *expected[1:])
    assert out_spec == oracle_spec
    assert r == (oracle_r.a, oracle_r.b)


@settings(max_examples=200)
@given(st.sampled_from([5, 13, 97, 337, 1009, 65537]), st.data())
def test_solve_r_matches_field_oracle_on_any_coefficients(p, data):
    spec = FieldSpec(p)
    c1, c2, c3 = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    out_spec, r = solve_r(spec, c1, c2, c3)
    oracle_spec, oracle_r = field_solve_r(spec, *(spec.element(c) for c in (c1, c2, c3)))
    assert out_spec == oracle_spec
    assert r == (oracle_r.a, oracle_r.b)


def test_oracle_examples_reach_both_degrees():
    degrees = set()
    for triple in ((2, 3, 7), (2, 3, 8)):
        t = classify(*triple)
        spec = FieldSpec(primes_in_progression_by_scan(t.ell)[0])
        degrees.add(solve_r(spec, *_zeta_and_cosines(spec, t.ell, t.triple)[1:])[0].degree)
    assert degrees == {1, 2}


def test_solve_r_needs_a_prime_field():
    with pytest.raises(ValueError, match="prime field"):
        solve_r(FieldSpec(5, 2, 2), 0, 1, 1)


# ----------------------------------------------------------------------
# hyperbolic builds


def test_build_237():
    x, y = build_hyperbolic_rep(classify(2, 3, 7))
    assert x.spec.p == 337 and y.spec == x.spec
    assert x.spec.p**x.spec.degree in (337, 337**2)
    # independent order check by naive matrix powering
    for matrix, n in ((x, 2), (y, 3), (x.mul(y), 7)):
        power = matrix
        count = 1
        while not power.is_identity():
            power = power.mul(matrix)
            count += 1
        assert count == n
    assert x.mul(y) != y.mul(x)


def test_build_345():
    t = classify(3, 4, 5)
    assert t.ell == 120
    x, y = build_hyperbolic_rep(t)
    assert x.spec.p == 241  # smallest prime = 1 mod 120
    orders = tuple(projective_order(m) for m in (x, y, x.mul(y)))
    assert orders == (3, 4, 5)


def test_build_deterministic():
    a = build_hyperbolic_rep(classify(2, 3, 7))
    b = build_hyperbolic_rep(classify(2, 3, 7))
    assert a == b


def test_build_with_alternate_root_of_unity():
    """Any exact-order-ell root gives a valid (conjugate) build."""
    t = classify(2, 3, 7)
    p, ell = build_hyperbolic_rep(t)[0].spec.p, t.ell
    base = FieldSpec(p).element(_zeta_and_cosines(FieldSpec(p), ell, t.triple)[0])
    alt = base**5  # gcd(5,84)=1, so another valid generator choice
    cs = []
    for n in t.triple:
        zk = alt ** (ell // (2 * n))
        cs.append(zk + zk.inverse())
    spec, r = solve_r(FieldSpec(p), *(c.a for c in cs))
    r = spec.element(*r)
    c1, c2 = spec.element(cs[0].a), spec.element(cs[1].a)
    x = ProjMatrix(c1, spec.one(), -spec.one(), spec.zero())
    t_r = ProjMatrix(spec.one(), r, spec.zero(), spec.one())
    y = t_r.mul(ProjMatrix(c2, spec.one(), -spec.one(), spec.zero())).mul(t_r.inverse())
    xy = x.mul(y)
    assert (
        projective_order(x),
        projective_order(y),
        projective_order(xy),
    ) == t.triple
    assert xy != y.mul(x)


def test_trace_of_xy_is_plus_minus_c3():
    for triple in [(2, 3, 7), (3, 4, 5), (2, 4, 5)]:
        t = classify(*triple)
        (x, y), params = build_hyperbolic_rep(t), hyperbolic_parameters(t)
        trace = x.mul(y).trace()
        assert trace in (params.c3, -params.c3)


def test_small_sweep_builds_and_verifies():
    for t in hyperbolic_triples(8):
        if t.d != 1:
            continue
        x, y = build_hyperbolic_rep(t)
        xy = x.mul(y)
        assert (
            projective_order(x),
            projective_order(y),
            projective_order(xy),
        ) == t.triple


# ----------------------------------------------------------------------
# the per-ell field cache and the closed-form y


def _certificates(triples):
    out = []
    for triple in triples:
        cert, info = triangle_certificate(*triple)
        out.append((serialize(cert), info))
    return out


def test_field_cache_gives_the_same_certificates_cold_and_warm():
    triples = [
        (a, b, c) for a in range(2, 20) for b in range(a, 20) for c in range(b, 20)
    ]
    cold = []
    for triple in triples:
        trianglerep._cyclotomic_field.cache_clear()
        cold += _certificates([triple])
    _certificates(triples)  # every ell is in the cache from here on
    assert _certificates(triples) == cold


def test_sweep_sets_up_each_field_once_per_ell(monkeypatch, capsys):
    """A count, not a timing: the prime search and root_of_unity run once
    per distinct ell of the coprime hyperbolic triples in the sweep."""
    primes, roots = [], []
    search, root = trianglerep.smallest_prime_in_progression, trianglerep.root_of_unity

    def counted_search(ell):
        primes.append(ell)
        return search(ell)

    def counted_root(spec, ell):
        roots.append(ell)
        return root(spec, ell)

    monkeypatch.setattr(trianglerep, "smallest_prime_in_progression", counted_search)
    monkeypatch.setattr(trianglerep, "root_of_unity", counted_root)
    trianglerep._cyclotomic_field.cache_clear()
    assert cli_main(["sweep", "--max-n", "19", "--json"]) == 0
    capsys.readouterr()
    ells = sorted({t.ell for t in hyperbolic_triples(19) if t.d == 1})
    assert len(ells) == 301
    assert sorted(primes) == ells
    assert sorted(roots) == ells


def test_closed_form_y_matches_the_product_oracle():
    """y = T S T^-1 in closed form is the product the oracle multiplies
    out, for every coprime hyperbolic triple up to 19, over F_p and
    F_{p^2} alike."""
    degrees = set()
    for t in hyperbolic_triples(19):
        if t.d != 1:
            continue
        (x, y), params = build_hyperbolic_rep(t), hyperbolic_parameters(t)
        assert params.spec == x.spec, t.triple
        assert y == conjugate_by_translation(x.spec, params.c2, params.r), t.triple
        degrees.add(x.spec.degree)
    assert degrees == {1, 2}


@settings(max_examples=200)
@given(st.sampled_from([5, 13, 97, 337, 65537]), st.booleans(), st.data())
def test_closed_form_conjugate_matches_the_product_oracle_on_any_c_and_r(p, extend, data):
    spec = quadratic_extension(FieldSpec(p)) if extend else FieldSpec(p)
    c, r0 = (data.draw(st.integers(0, p - 1)) for _ in range(2))
    r1 = data.draw(st.integers(0, p - 1)) if extend else 0
    expected = conjugate_by_translation(spec, spec.element(c), spec.element(r0, r1))
    assert trianglerep._conjugated_standard(spec, c, r0, r1) == expected


# ----------------------------------------------------------------------
# non-hyperbolic certificates


def test_dihedral_2_2_15():
    x, y = build_nonhyperbolic_cert(classify(2, 2, 15))
    assert y.spec == x.spec
    assert x.spec.p == 3 and x.spec.degree == 2  # F_9 adjoining i
    xy = x.mul(y)
    assert projective_order(xy) == 3
    relator = word_power(Word(((0, 1), (1, 1))), 15)
    assert evaluate_word([x, y], relator).is_identity()
    assert xy != y.mul(x)


def test_dihedral_images_match_the_field_element_construction():
    """The int-built x = diag(i, -i) and y = [[i, i], [0, -i]] are the
    matrices the FieldElement construction gives, for every odd m up to
    99: over F_p when p = 1 (mod 4) and over F_{p^2} when p = 3 (mod 4)."""
    degrees = set()
    for m in range(3, 100, 2):
        built = build_nonhyperbolic_cert(classify(2, 2, m))
        x, y = field_dihedral_pair(m)
        assert (built[0].spec, *built) == (x.spec, x, y), m
        degrees.add(built[0].spec.degree)
    assert degrees == {1, 2}


def test_spherical_235_lands_in_psl25():
    x, y = build_nonhyperbolic_cert(classify(2, 3, 5))
    assert y.spec == x.spec
    assert x.spec.p**x.spec.degree == 5
    orders = (projective_order(x), projective_order(y), projective_order(x.mul(y)))
    assert orders == (2, 3, 5)


def test_field_small_for_all_nonhyperbolic():
    triples = [(2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6)]
    triples += [(2, 2, m) for m in range(3, 100, 2)]
    for triple in triples:
        x, y = build_nonhyperbolic_cert(classify(*triple))
        assert y.spec == x.spec
        assert x.spec.p**x.spec.degree <= triple[2] ** 2


def test_236_relators_die_on_reused_images():
    x, y = build_nonhyperbolic_cert(classify(2, 3, 6))
    for relator in triangle_presentation(classify(2, 3, 6)).relators:
        assert evaluate_word([x, y], relator).is_identity()
    assert x.mul(y) != y.mul(x)


@pytest.mark.parametrize(
    "build,triple",
    [
        (build_hyperbolic_rep, (2, 3, 7)),
        (build_nonhyperbolic_cert, (2, 3, 5)),
        (build_nonhyperbolic_cert, (2, 2, 5)),
    ],
)
def test_wrong_order_fails_the_postcondition(monkeypatch, build, triple):
    monkeypatch.setattr(trianglerep, "has_order", lambda m, n: False)
    with pytest.raises(RepVerificationError, match="image of x does not have order"):
        build(classify(*triple))


def test_commuting_images_fail_the_postcondition(monkeypatch):
    monkeypatch.setattr(trianglerep, "has_order", lambda m, n: True)
    x = ProjMatrix.from_reduced(FieldSpec(5), (0, 0, 1, 0, 4, 0, 0, 0))
    with pytest.raises(RepVerificationError, match="abelian"):
        trianglerep._checked_xy(x, x, (2, 2, 2))


@pytest.mark.parametrize(
    "triple, searched",
    [((2, 3, 3), (2, 3, 3)), ((2, 3, 4), (2, 3, 4)), ((2, 3, 5), (2, 3, 5)),
     ((2, 3, 6), (2, 3, 3))],
)
def test_spherical_table_is_first_pair_of_search(triple, searched):
    # the fixed pairs are what an exhaustive search of PSL(2, q) finds
    # first, q = 3, 5, 7 in turn; it never reaches F_9
    a, b = spherical_pair_by_search(*searched)
    assert a.spec.degree == 1
    x, y = build_nonhyperbolic_cert(classify(*triple))
    assert (x.spec, x, y) == (a.spec, a, b)


def test_triangle_image_dispatch(monkeypatch):
    import lenscert.trianglerep as trianglerep

    calls = []
    for name in ("build_hyperbolic_rep", "build_nonhyperbolic_cert"):
        original = getattr(trianglerep, name)
        monkeypatch.setattr(
            trianglerep, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    x, y = triangle_image(classify(2, 3, 7))
    assert x.spec.p == 337 and y.spec == x.spec
    assert triangle_image(classify(2, 4, 6)) is None
    assert triangle_image(classify(2, 3, 5))[0].spec.p == 5
    x, y = triangle_image(classify(2, 2, 7))
    assert y.spec == x.spec
    # a common divisor is answered before either builder is called
    assert calls == ["build_hyperbolic_rep"] + ["build_nonhyperbolic_cert"] * 2
    # every triple with entries up to 19 and no common divisor gets a pair
    # over one field, the matrices of its triangle certificate; a triple
    # with common divisor d > 1 gets the (Z/d)^2 certificate
    witness = (Word(((0, 1), (1, 1))), Word(((1, 1), (0, 1))))
    coprime = 0
    for triple in itertools.combinations_with_replacement(range(2, 20), 3):
        t = classify(*triple)
        cert = triangle_certificate(*triple)[0]
        if t.d > 1:
            assert cert == NonCyclicAbelian(
                presentation=triangle_presentation(t),
                target=(t.d, t.d),
                abelian_images=((1, 0), (0, 1)),
            ), triple
            continue
        x, y = triangle_image(t)
        assert y.spec == x.spec, triple
        assert cert == NonAbelianRep(
            presentation=triangle_presentation(t),
            field=x.spec,
            rep_gens=("x", "y"),
            rep_images=(x, y),
            witness=witness,
        ), triple
        coprime += 1
    assert coprime == 914


def test_triangle_image_is_none_exactly_at_a_common_divisor():
    # triangle_image alone reads d: no builder is asked for a pair when
    # d > 1, and every coprime triple, of any curvature, gets one
    common = 0
    for triple in itertools.combinations_with_replacement(range(2, 20), 3):
        t = classify(*triple)
        assert (triangle_image(t) is None) == (t.d > 1), triple
        common += t.d > 1
    assert common == 226


# ----------------------------------------------------------------------
# cosine norms


@pytest.mark.parametrize(
    "n,variant,expected",
    [
        (4, "plain", 4),
        (6, "plain", 9),
        (5, "minus_two", 1),
        (8, "minus_two", 4),
        (9, "plain", 1),
        (18, "plain", 9),
        (7, "plain", 1),
        (16, "plain", 4),
        (4, "minus_two", 4),
        (12, "plain", 1),
    ],
)
def test_cosine_norm_closed_forms(n, variant, expected):
    assert cosine_norm(n, variant) == expected


def test_cosine_norm_rejects_small_n():
    with pytest.raises(ValueError):
        cosine_norm(2)


def test_cosine_norm_against_float_products():
    for n in range(3, 201):
        assert abs(cosine_norm(n, "plain") - float_cosine_norm(n, 0.0)) < 1e-6
        assert abs(cosine_norm(n, "minus_two") - float_cosine_norm(n, 2.0)) < 1e-6


# ----------------------------------------------------------------------
# cyclotomic evaluation


@pytest.mark.parametrize(
    "k,at,expected",
    [(1, -1, -2), (6, 1, 1), (9, 1, 3), (2, -1, 0), (1, 1, 0), (4, -1, 2), (12, -1, 1)],
)
def test_cyclotomic_quoted_values(k, at, expected):
    assert cyclotomic_eval(k, at) == expected


def test_cyclotomic_matches_closed_forms_to_500():
    for k in range(1, 501):
        assert cyclotomic_eval(k, 1) == cyclotomic_by_division(k, 1)
        assert cyclotomic_eval(k, -1) == cyclotomic_by_division(k, -1)


def test_cyclotomic_polynomial_product():
    # prod over d | k of Phi_d(x) = x^k - 1, spot check at x = 2
    for k in (12, 30, 105):
        product = 1
        for d in range(1, k + 1):
            if k % d == 0:
                product *= sum(c * 2**i for i, c in enumerate(cyclotomic_poly(d)))
        assert product == 2**k - 1


# ----------------------------------------------------------------------
# field degree scan


def test_degree_report_237():
    report = field_degree_report(classify(2, 3, 7))
    assert report.trace_degree == 12  # phi(84)/2
    assert report.candidate_degrees == (12, 24)
    assert report.witness_l is not None
    assert report.verdict == "degree_phi"


def test_degree_report_requires_hyperbolic():
    message = r"^triple \(2, 3, 6\) is euclidean; the scan needs hyperbolic$"
    with pytest.raises(ValueError, match=message):
        field_degree_report(classify(2, 3, 6))


def test_phi_inequality_with_documented_exception():
    """phi(n) < n <= phi(n)^2 for n > 2 fails exactly at n = 6
    (phi(6)^2 = 4 < 6); every relevant modulus here has ell >= 12."""
    assert euler_phi(6) ** 2 == 4 < 6
    for n in range(3, 10001):
        assert euler_phi(n) < n
        if n != 6:
            assert n <= euler_phi(n) ** 2
    # no hyperbolic triple has ell = 6, so the bound chain never hits the gap
    ells = {t.ell for t in hyperbolic_triples(19)}
    assert 6 not in ells
    assert all(ell <= euler_phi(ell) ** 2 for ell in ells)


# ----------------------------------------------------------------------
# bound report


def test_bound_report_237_t10():
    t = classify(2, 3, 7)
    report = bound_report(t, t=10, spec=build_hyperbolic_rep(t)[0].spec)
    assert report.ell_bound == 2**20 * 3**120
    assert report.ell_within_bound
    assert report.degree_bound == 2**9 * 3**60
    assert report.degree_bound_bits == (2**9 * 3**60).bit_length()
    assert report.degree_within_bound
    assert report.field_size in (337, 337**2)
    assert report.field_within_ell10
    assert 0 <= report.field_ratio_ell10 < 1
    assert report.linnik_ratio == 337 / 84**5.18


def test_bound_report_needs_a_positive_tetrahedron_count():
    t = classify(2, 3, 7)
    for count in (0, -2):
        with pytest.raises(ValueError, match="must be at least 1"):
            bound_report(t, t=count)
    assert bound_report(t, t=1).degree_bound == 3**6
    assert bound_report(t, t=1).degree_bound_bits == (3**6).bit_length()


def test_bound_report_without_optionals():
    report = bound_report(classify(2, 3, 7))
    assert report.t is None and report.field_size is None
    assert report.ell == 84 and report.d == 1


@pytest.mark.parametrize("t", [*range(1, 65), 1000])
def test_bound_bits_and_verdicts_equal_the_big_int_computation(t):
    ell_bound, degree_bound = 2 ** (2 * t) * 3 ** (12 * t), 2 ** (t - 1) * 3 ** (6 * t)
    for triple in ((2, 3, 7), (2, 4, 6), (3, 4, 5), (17, 18, 19)):
        t_type = classify(*triple)
        report = bound_report(t_type, t=t)
        assert report.ell_bound == ell_bound
        assert report.ell_bound_bits == ell_bound.bit_length()
        assert report.degree_bound == degree_bound
        assert report.degree_bound_bits == degree_bound.bit_length()
        assert report.ell_within_bound == (t_type.ell <= ell_bound)
        assert report.degree_within_bound == (report.trace_degree <= degree_bound)
    # the verdicts where they are decided: around each bound and at the
    # ends of its bit length
    for (a, b), bound in (((2 * t, 12 * t), ell_bound), ((t - 1, 6 * t), degree_bound)):
        bits = bound.bit_length()
        for n in (1, 2 ** (bits - 1), bound - 1, bound, bound + 1, 2**bits - 1, 2**bits):
            assert trianglerep._at_most_power(n, a, b) == (bits, n <= bound), (n, a, b)


def test_bound_bits_are_refused_where_the_bracket_straddles_an_integer(monkeypatch):
    # with log2 3 bracketed by [1 - 10^-80, 1], b = 1 has no floor from the
    # bracket: the bit length is refused, and 3^1 is not formed instead
    monkeypatch.setattr(trianglerep, "_LOG2_3", 10**80 - 1)
    for n in (96, 97):
        with pytest.raises(ValueError, match=r"cannot place floor\(1 log2 3\)"):
            trianglerep._at_most_power(n, 5, 1)
    # b = 12t straddles too, and the report's one refusal names t
    with pytest.raises(ValueError, match=r"^tetrahedron count t=1: the 80-digit bracket"):
        bound_report(classify(2, 3, 7), t=1)


def test_bound_report_places_both_bit_lengths_at_t_10_to_the_39():
    from decimal import ROUND_FLOOR, Context

    t = 10**39
    report = bound_report(classify(2, 3, 7), t=t)
    assert report.ell_bound_bits == 2 * t + 12 * t * trianglerep._LOG2_3 // 10**80 + 1
    # the floors against log2 3 to 120 digits, not the bracket
    ctx = Context(prec=120, rounding=ROUND_FLOOR)
    log2_3 = ctx.divide(ctx.ln(3), ctx.ln(2))
    for bits, (a, b) in (
        (report.ell_bound_bits, (2 * t, 12 * t)),
        (report.degree_bound_bits, (t - 1, 6 * t)),
    ):
        assert bits == a + int(ctx.multiply(log2_3, b)) + 1
    assert report.ell_within_bound and report.degree_within_bound


def test_bound_report_gives_no_ratio_for_a_field_past_float_range():
    # |F| = (10^200 + 1)^2 over 84^10 has no float: the report raises rather
    # than state a ratio of 0.0 beside field_within_ell10 False
    with pytest.raises(OverflowError):
        bound_report(classify(2, 3, 7), spec=FieldSpec(10**200 + 1, 2, 3))


def test_log2_3_bracket_holds():
    from decimal import Context

    ctx = Context(prec=100)
    log2_3 = ctx.divide(ctx.ln(3), ctx.ln(2))
    assert int(ctx.multiply(log2_3, 10**80)) == trianglerep._LOG2_3

