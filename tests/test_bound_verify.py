"""verify_bound: a certificate is accepted against a triangulation only
when the triangulation is a closed 3-manifold, the certificate carries no
level line, and its presentation is that triangulation's own pi1.  So no
certificate that pipeline, trianglecert or the fixtures emit is accepted
on a lens space."""

import math
import os
import sys

import pytest

from conftest import MANIFOLD_FIXTURES, fixture_text, load_fixture
from lenscert.certificate import (
    ORBIFOLD,
    PipelineError,
    parse,
    pipeline,
    serialize,
    triangle_certificate,
    verify,
    verify_bound,
)
from oracles import disjoint_union

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
from make_fixtures import lens_space  # noqa: E402

TRIANGULATIONS = MANIFOLD_FIXTURES + ["badlink_torus.tri"]
# the fixtures whose pipeline certificate is about the triangulation
BOUND = {
    "prism_q8.tri": "prism_q8.tri",
    "t3_torus.tri": "t3_torus.tri",
    "prism_q12+surj": "prism_q12.tri",
}


@pytest.fixture(scope="module")
def fixture_certificates() -> dict:
    """pipeline's certificate for every fixture it accepts with base
    (2,3,7), and for prism_q12 with base (2,2,3) and its surjection, each
    read back from its text as the CLI reads it."""
    out = {}
    for name in MANIFOLD_FIXTURES:
        try:
            cert, _ = pipeline(load_fixture(name), (2, 3, 7))
        except PipelineError:
            assert name == "s2xs1_twisted.tri"  # non-orientable: no certificate
            continue
        out[name] = parse(serialize(cert))
    surjection = fixture_text("prism_q12.surj")
    cert, _ = pipeline(load_fixture("prism_q12.tri"), (2, 2, 3), surjection)
    out["prism_q12+surj"] = parse(serialize(cert))
    return out


@pytest.fixture(scope="module")
def triangulations() -> dict:
    return {name: load_fixture(name) for name in TRIANGULATIONS}


def test_each_bound_certificate_is_accepted_on_its_own_triangulation_only(
    fixture_certificates, triangulations
):
    bound = {key for key, cert in fixture_certificates.items() if cert.level is None}
    assert bound == set(BOUND)
    for key, own in BOUND.items():
        cert = fixture_certificates[key]
        for name, tri in triangulations.items():
            report = verify_bound(cert, tri)
            assert report.accepted == (name == own), (key, name, report.reason)


def test_every_orbifold_certificate_is_rejected_for_its_level(
    fixture_certificates, triangulations
):
    orbifold = [c for c in fixture_certificates.values() if c.level is not None]
    assert len(orbifold) == 9
    for cert in orbifold:
        assert cert.level == ORBIFOLD
        assert verify(cert).accepted  # unbound, the claim about T(2,3,7) holds
        for name, tri in triangulations.items():
            reason = verify_bound(cert, tri).reason
            if name == "badlink_torus.tri":
                assert reason.startswith("triangulation is not a closed 3-manifold: "), reason
            else:
                assert reason == "level orbifold: the certificate is not about a triangulation"


def test_no_emitted_certificate_is_accepted_on_a_small_lens_space(fixture_certificates):
    """Every L(p,q) with p < 60 against the fixtures' certificates, the
    triangle certificates of (2,3,7) and (3,3,3), and fig8.cert; pipeline
    on each L(p,q) emits the orbifold certificate already among them."""
    texts = {serialize(c) for c in fixture_certificates.values()}
    texts |= {serialize(triangle_certificate(*t)[0]) for t in ((2, 3, 7), (3, 3, 3))}
    texts.add(fixture_text("fig8.cert"))
    certs = [parse(text) for text in sorted(texts)]
    lenses = 0
    for p in range(2, 60):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            tri = lens_space(p, q)
            lenses += 1
            if p <= 7:
                assert serialize(pipeline(tri, (2, 3, 7))[0]) in texts
            for cert in certs:
                assert not verify_bound(cert, tri).accepted, (p, q)
    assert lenses == 1085


def test_a_rejection_before_verify_reports_no_operations(fixture_certificates, triangulations):
    cert = fixture_certificates["lens_7_2.tri"]
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
    assert report.reason == "presentation is not the triangulation's fundamental group"


def test_a_disconnected_triangulation_is_not_a_closed_3_manifold(
    fixture_certificates, triangulations
):
    tri = triangulations["prism_q8.tri"]
    report = verify_bound(fixture_certificates["prism_q8.tri"], disjoint_union(tri, tri))
    assert report.reason == "triangulation is not a closed 3-manifold: not connected"
