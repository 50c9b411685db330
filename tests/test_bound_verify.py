"""verify_bound: a certificate is accepted against a triangulation only
when the triangulation is a closed 3-manifold and the certificate's
presentation is that triangulation's own pi1.  So no certificate that
pipeline, trianglecert or the fixtures emit is accepted on a lens space,
and pipeline emits none for a cyclic H1 without a surjection."""

import re

import pytest

from conftest import (
    MANIFOLD_FIXTURES,
    ORIENTABLE_FIXTURES,
    TRI_FIXTURES,
    fixture_text,
    lens_pairs,
    load_fixture,
)
from lenscert.certificate import PipelineError, pipeline, triangle_certificate
from lenscert.checker import parse, serialize, verify, verify_bound
from lenscert.intlinalg import abelianization, format_abelian, is_cyclic
from lenscert.presentation import fundamental_group
from make_fixtures import lens_space
from oracles import disjoint_union

# pipeline's certificates, each about the triangulation it names
BOUND = {
    "prism_q8.tri": "prism_q8.tri",
    "t3_torus.tri": "t3_torus.tri",
    "prism_q12+surj": "prism_q12.tri",
}
# the triangle groups' own certificates for the bases pipeline is given
# here; the (2,3,7) text plus a `level orbifold` line is what pipeline
# once emitted for every cyclic-H1 fixture without a surjection
TRIANGLES = {"T(2,3,7)": (2, 3, 7), "T(2,2,3)": (2, 2, 3)}
PRESENTATION_MISMATCH = "presentation is not the triangulation's fundamental group"


@pytest.fixture(scope="module")
def fixture_certificates() -> dict:
    """pipeline's certificate for every fixture it accepts with base
    (2,3,7) and no surjection (step 1), for prism_q12 with base (2,2,3)
    and its surjection, and trianglecert's certificate of both bases,
    each read back from its text as the CLI reads it."""
    out = {}
    for name in MANIFOLD_FIXTURES:
        try:
            cert, _ = pipeline(load_fixture(name), (2, 3, 7))
        except PipelineError:
            continue
        out[name] = parse(serialize(cert))
    surjection = fixture_text("prism_q12.surj")
    cert, _ = pipeline(load_fixture("prism_q12.tri"), (2, 2, 3), surjection)
    out["prism_q12+surj"] = parse(serialize(cert))
    for key, triple in TRIANGLES.items():
        out[key] = parse(serialize(triangle_certificate(*triple)[0]))
    return out


@pytest.fixture(scope="module")
def triangulations() -> dict:
    return {name: load_fixture(name) for name in TRI_FIXTURES}


def test_each_bound_certificate_is_accepted_on_its_own_triangulation_only(
    fixture_certificates, triangulations
):
    assert set(fixture_certificates) == set(BOUND) | set(TRIANGLES)
    for key, own in BOUND.items():
        cert = fixture_certificates[key]
        for name, tri in triangulations.items():
            report = verify_bound(cert, tri)
            assert report.accepted == (name == own), (key, name, report.reason)


def test_pipeline_refuses_every_cyclic_h1_fixture_without_a_surjection(triangulations):
    """Step 2 needs a surjection: without one, pipeline emits nothing,
    whichever branch of the triangle dispatch the base takes."""
    refused = 0
    for name in ORIENTABLE_FIXTURES:
        tri = triangulations[name]
        h1 = abelianization(fundamental_group(tri))
        for base in ((2, 3, 7), (2, 2, 3), (2, 4, 4)):
            if not is_cyclic(h1):
                assert pipeline(tri, base)[1]["step"] == 1
                continue
            message = f"H1 = {format_abelian(h1)} is cyclic, so step 2 needs a surjection file"
            with pytest.raises(PipelineError, match=re.escape(message)):
                pipeline(tri, base)
            refused += 1
    assert refused == 9 * 3


def test_no_emitted_certificate_is_accepted_on_a_small_lens_space(fixture_certificates):
    """Every L(p,q) with p < 60 against the fixtures' certificates, the
    triangle certificates of (2,3,7), (2,2,3) and (3,3,3), and fig8.cert;
    pipeline on each L(p,q) with p <= 7 emits nothing.  A triangle
    group's certificate is refused for its presentation."""
    texts = {serialize(c) for c in fixture_certificates.values()}
    triangles = {serialize(triangle_certificate(*t)[0]) for t in (*TRIANGLES.values(), (3, 3, 3))}
    texts |= triangles
    texts.add(fixture_text("fig8.cert"))
    certs = [(parse(text), text in triangles) for text in sorted(texts)]
    pairs = lens_pairs(60)
    for p, q in pairs:
        tri = lens_space(p, q)
        if p <= 7:
            with pytest.raises(PipelineError, match="is cyclic"):
                pipeline(tri, (2, 3, 7))
        for cert, is_triangle in certs:
            report = verify_bound(cert, tri)
            assert not report.accepted, (p, q)
            if is_triangle:
                assert report.reason == PRESENTATION_MISMATCH, (p, q)
    assert len(pairs) == 1085


def test_a_rejection_before_verify_reports_no_operations(fixture_certificates, triangulations):
    cert = fixture_certificates["T(2,3,7)"]
    unbound = verify(cert)
    report = verify_bound(cert, triangulations["lens_7_2.tri"])
    assert not report.accepted
    assert (report.relator_mat_mults, report.mat_mults, report.field_ops) == (0, 0, 0)
    assert (report.cert_bits, report.matrix_bits) == (unbound.cert_bits, unbound.matrix_bits)


def test_an_accepted_bound_certificate_reports_what_verify_reports(
    fixture_certificates, triangulations
):
    for key, own in BOUND.items():
        cert = fixture_certificates[key]
        assert verify_bound(cert, triangulations[own]) == verify(cert)


def test_a_presentation_edit_is_rejected(fixture_certificates, triangulations):
    text = serialize(fixture_certificates["prism_q12+surj"])
    relabelled = parse(text.replace("x3", "z"))
    assert verify(relabelled).accepted
    report = verify_bound(relabelled, triangulations["prism_q12.tri"])
    assert report.reason == PRESENTATION_MISMATCH


def test_a_disconnected_triangulation_is_not_a_closed_3_manifold(
    fixture_certificates, triangulations
):
    tri = triangulations["prism_q8.tri"]
    report = verify_bound(fixture_certificates["prism_q8.tri"], disjoint_union(tri, tri))
    assert report.reason == "triangulation is not a closed 3-manifold: not connected"
