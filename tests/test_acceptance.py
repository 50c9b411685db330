"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 2's sweep quantifies over every sorted hyperbolic triple with
entries up to 19: 1116 triples, of which 901 have coprime entries and get
the full matrix-image build; the rest get the abelian certificate.
"""

import json
import random
import re
import time

from conftest import MANIFOLD_FIXTURES, fixture_text, load_fixture
from lenscert.certificate import parse_word, pipeline, triangle_certificate
from lenscert.checker import (
    NON_ABELIAN,
    Certificate,
    CertificateSyntaxError,
    NonAbelianRep,
    parse,
    serialize,
    verify,
    verify_bound,
)
from lenscert.intlinalg import IntMatrix, abelianization, hadamard_torsion_bound, smith_normal_form
from lenscert.presentation import GroupPresentation, fundamental_group
from lenscert.projmat import projective_order
from lenscert.psl import ProjMatrix
from lenscert.trianglerep import (
    bound_report,
    build_hyperbolic_rep,
    classify,
    cosine_norm,
    cyclotomic_eval,
    field_degree_report,
    hyperbolic_triples,
    triangle_presentation,
)
from lenscert.triangulation import orientation_check, validate
from oracles import (
    cyclotomic_closed_form,
    exhaustive_orientation,
    float_cosine_norm,
    hyperbolic_parameters,
    invariant_factors_by_minors,
    random_gluing_table,
    random_presentation,
    relabel_triangulation,
)


def report(number: int, description: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget:.0f}s): {description}")
    assert elapsed < budget


def test_criterion_1_figure8_worked_example():
    start = time.monotonic()
    cert = parse(fixture_text("fig8.cert"))
    outcome = verify(cert)
    assert outcome.accepted
    assert outcome.relator_mat_mults == 10  # the length-10 relator, exactly
    # witness (ab, ba) images differ; with no surjection the witness
    # words are over the matrix generators themselves
    from lenscert.projmat import evaluate_word

    assert cert.surjection is None
    w1, w2 = cert.witness
    m1 = evaluate_word(list(cert.rep_images), w1)
    m2 = evaluate_word(list(cert.rep_images), w2)
    assert m1 != m2
    # the image group order divides |D_10| = 10
    seen = {ProjMatrix.identity(cert.field)}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for g in cert.rep_images:
            for nxt in (m.mul(g), m.mul(g.inverse())):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert 10 % len(seen) == 0
    report(1, "figure-eight certificate over F_25, 10 multiplications", time.monotonic() - start, 1)


def test_criterion_2_hyperbolic_sweep():
    start = time.monotonic()
    triples = hyperbolic_triples(19)
    assert len(triples) == 1116  # every sorted hyperbolic triple with n_k <= 19
    coprime = [t for t in triples if t.d == 1]
    assert len(coprime) == 901
    sampled_order_check = 0
    for index, t in enumerate(triples):
        if t.d == 1:
            (x, y), params = build_hyperbolic_rep(t), hyperbolic_parameters(t)
            assert y.spec == x.spec
            xy = x.mul(y)
            # exact orders, non-abelian witness, traces +-C_k, r satisfies
            # its quadratic
            assert (
                projective_order(x),
                projective_order(y),
                projective_order(xy),
            ) == t.triple
            assert xy != y.mul(x)
            c1, c2, c3, r = params.c1, params.c2, params.c3, params.r
            assert params.spec == x.spec
            assert x.trace() in (c1, -c1)
            assert y.trace() in (c2, -c2)
            assert xy.trace() in (c3, -c3)
            check = r * r + r * (c1 - c2) + (x.spec.element(2) - c1 * c2 - c3)
            assert check.is_zero()
            cert = NonAbelianRep(
                presentation=triangle_presentation(t),
                field=x.spec,
                rep_gens=("x", "y"),
                rep_images=(x, y),
                witness=(parse_word("x y", ("x", "y")), parse_word("y x", ("x", "y"))),
            )
            if index % 97 == 0:
                # independent naive-powering oracle on a deterministic sample
                power, count = xy, 1
                while not power.is_identity():
                    power = power.mul(xy)
                    count += 1
                assert count == t.n3
                sampled_order_check += 1
        else:
            cert, _ = triangle_certificate(*t.triple)
        # soundness harness: emitted certificates round-trip and verify
        assert parse(serialize(cert)) == cert
        assert verify(cert).accepted
        scan = field_degree_report(t)
        assert scan.witness_l is not None  # the fields differ in every case
    assert sampled_order_check >= 9
    report(
        2,
        f"{len(triples)} hyperbolic triples (901 coprime builds) verified, "
        "embedding witness found for every one",
        time.monotonic() - start,
        300,
    )


def test_criterion_3_cosine_norms_and_cyclotomics():
    start = time.monotonic()
    for n in range(3, 201):
        assert abs(cosine_norm(n, "plain") - float_cosine_norm(n, 0.0)) < 1e-6
        assert abs(cosine_norm(n, "minus_two") - float_cosine_norm(n, 2.0)) < 1e-6
    for k in range(1, 501):
        assert cyclotomic_eval(k, 1) == cyclotomic_closed_form(k, 1)
        assert cyclotomic_eval(k, -1) == cyclotomic_closed_form(k, -1)
    report(3, "cosine norms to n=200 and cyclotomic values to k=500", time.monotonic() - start, 30)


def test_criterion_4_snf_and_hadamard():
    start = time.monotonic()
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
    rng = random.Random(616)
    for _ in range(500):
        pres = random_presentation(rng)
        assert abelianization(pres).torsion_order() <= hadamard_torsion_bound(pres)
    report(4, "SNF vs gcd-of-minors oracle (500) and Hadamard bound (500)", time.monotonic() - start, 60)


def test_criterion_5_orientability():
    start = time.monotonic()
    rng = random.Random(987123)
    for name in MANIFOLD_FIXTURES + ["badlink_torus.tri"]:
        tri = load_fixture(name)
        assert orientation_check(tri).orientable == (exhaustive_orientation(tri) is not None)
    for _ in range(200):
        t = rng.randint(1, 12)
        tri = random_gluing_table(t, rng)
        verdict = orientation_check(tri).orientable
        assert verdict == (exhaustive_orientation(tri) is not None)
        perm = list(range(tri.t))
        rng.shuffle(perm)
        assert orientation_check(relabel_triangulation(tri, perm)).orientable == verdict
    report(5, "orientation matches the 2^t oracle on fixtures and 200 random tables", time.monotonic() - start, 60)


def test_criterion_6_presentation_bounds():
    start = time.monotonic()
    one_vertex = 0
    meta = json.loads(fixture_text("metadata.json"))
    for name in MANIFOLD_FIXTURES:
        tri = load_fixture(name)
        if validate(tri).v != 1:
            continue
        one_vertex += 1
        pres = fundamental_group(tri)
        assert pres.g <= tri.t + 1
        assert len(pres.relators) <= 2 * tri.t
        assert all(len(w) <= 3 for w in pres.relators)
        group = abelianization(pres)
        expected = meta[name]["h1"]
        assert group.free_rank == expected["free_rank"]
        assert list(group.torsion) == expected["torsion"]
    assert one_vertex >= 3
    report(6, f"presentation bounds and recorded homology on {one_vertex} 1-vertex fixtures", time.monotonic() - start, 10)


def test_criterion_7_nonhyperbolic_coverage():
    start = time.monotonic()
    triples = [(2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 4), (3, 3, 3)]
    triples += [(2, 2, m) for m in range(3, 100, 2)]
    for triple in triples:
        cert, info = triangle_certificate(*triple)
        assert verify(cert).accepted
        if cert.kind == NON_ABELIAN:
            assert cert.field.p**cert.field.degree <= triple[2] ** 2
    report(7, f"{len(triples)} non-hyperbolic triples built and verified", time.monotonic() - start, 30)


# ----------------------------------------------------------------------
# criterion 8: tamper soundness


def _criterion_mutations(text: str):
    """The criterion's mutation surface: every matrix entry coordinate
    bumped by +-1, every relator letter swapped to another generator
    (exponent kept), every modulus (field p/deg/s, target a/b) bumped,
    and the witness replaced by a commuting pair u v | v u with u and v
    words in one generator."""
    lines = text.splitlines()
    gens: list[str] = []
    rels_start = rels = 0
    for i, line in enumerate(lines):
        if line.startswith("gens "):
            gens = line.split()[2:]
        if line.startswith("rels "):
            rels_start, rels = i + 1, int(line.split()[1])
    for i, line in enumerate(lines):
        if rels_start <= i < rels_start + rels:
            tokens = line.split()
            for k, token in enumerate(tokens):
                name, _, exp = token.partition("^")
                for alt in gens:
                    if alt == name:
                        continue
                    new_token = alt + ("^" + exp if exp else "")
                    mutated = tokens[:k] + [new_token] + tokens[k + 1:]
                    yield "\n".join(lines[:i] + [" ".join(mutated)] + lines[i + 1:]) + "\n"
        elif line.startswith(("field ", "target ")):
            for m in re.finditer(r"\d+", line):
                for delta in (1, -1):
                    new_line = line[: m.start()] + str(int(m.group()) + delta) + line[m.end():]
                    yield "\n".join(lines[:i] + [new_line] + lines[i + 1:]) + "\n"
        elif line.startswith("witness "):
            for name in gens:
                inv = name + "^-1"
                for u, v in (([name], [name]), ([name], [name, name]), ([inv], [inv, inv])):
                    new_line = f"witness {' '.join(u + v)} | {' '.join(v + u)}"
                    yield "\n".join(lines[:i] + [new_line] + lines[i + 1:]) + "\n"
        elif line.startswith("gen ") and "= [[" in line:
            offset = line.index("=") + 1
            for m in re.finditer(r"-?\d+", line[offset:]):
                for delta in (1, -1):
                    new_line = (
                        line[: offset + m.start()]
                        + str(int(m.group()) + delta)
                        + line[offset + m.end():]
                    )
                    yield "\n".join(lines[:i] + [new_line] + lines[i + 1:]) + "\n"


def _surjection_case_certificate() -> Certificate:
    """T_{2,3,7} on letters (a,b,c=ab) over the (2,3,7) matrices."""
    base, _ = triangle_certificate(2, 3, 7)
    labels = ("a", "b", "c")
    pres = GroupPresentation(
        3,
        (
            parse_word("a a", labels),
            parse_word("b b b", labels),
            parse_word("c c c c c c c", labels),
            parse_word("c b^-1 a^-1", labels),
        ),
        labels,
    )
    return NonAbelianRep(
        presentation=pres,
        field=base.field,
        rep_gens=("x", "y"),
        rep_images=base.rep_images,
        surjection=(
            parse_word("x", ("x", "y")),
            parse_word("y", ("x", "y")),
            parse_word("x y", ("x", "y")),
        ),
        witness=(parse_word("a b", labels), parse_word("b a", labels)),
    )


def test_criterion_8_tamper_soundness():
    start = time.monotonic()
    rep_cert, _ = triangle_certificate(2, 3, 7)
    abelian_cert, _ = triangle_certificate(3, 3, 3)
    surjection_cert = _surjection_case_certificate()
    total = 0
    for cert in (rep_cert, surjection_cert, abelian_cert):
        text = serialize(cert)
        assert verify(parse(text)).accepted
        for mutated in _criterion_mutations(text):
            if mutated == text:
                continue
            total += 1
            try:
                candidate = parse(mutated)
            except (CertificateSyntaxError, ValueError):
                continue  # parse error: detected
            assert not verify(candidate).accepted, mutated
    # triangulation swapped: a certificate about one manifold's group is
    # accepted, bound, on that triangulation and on no other fixture
    bound = {
        "prism_q8.tri": pipeline(load_fixture("prism_q8.tri"), (2, 2, 2))[0],
        "t3_torus.tri": pipeline(load_fixture("t3_torus.tri"), (2, 2, 2))[0],
        "prism_q12.tri": pipeline(
            load_fixture("prism_q12.tri"), (2, 2, 3), fixture_text("prism_q12.surj")
        )[0],
    }
    swaps = 0
    for own, cert in bound.items():
        cert = parse(serialize(cert))
        assert verify_bound(cert, load_fixture(own)).accepted
        for name in MANIFOLD_FIXTURES:
            if name != own:
                swaps += 1
                assert not verify_bound(cert, load_fixture(name)).accepted, (own, name)
    assert total >= 100
    report(
        8,
        f"{total} single-field mutations and {swaps} triangulation swaps all rejected or parse errors",
        time.monotonic() - start,
        60,
    )


def test_criterion_9_bound_reports():
    start = time.monotonic()
    t_type = classify(2, 3, 7)
    spec = build_hyperbolic_rep(t_type)[0].spec
    out = bound_report(t_type, t=10, spec=spec)
    assert out.ell_bound == 2**20 * 3**120
    assert out.ell_within_bound  # 84 <= 2^20 * 3^120, exact big-int comparison
    assert out.field_within_ell10  # |F| < 84^10
    assert 0 <= out.field_ratio_ell10 < 1
    assert out.linnik_ratio == spec.p / t_type.ell**5.18  # reported, never asserted
    assert out.degree_within_bound  # phi(84)/2 = 12 <= 2^9 * 3^60
    assert out.degree_bound == 2**9 * 3**60
    report(9, "bound report for (2,3,7) at t=10", time.monotonic() - start, 1)
