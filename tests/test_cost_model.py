"""The paper's cost model and certificate bytes, pinned by one digest.

The digest covers, for every triangle certificate with entries up to 19,
the figure-eight fixture and the pipeline certificates of three
Seifert-fibered fixtures: the certificate text and the verifier's
relator_mat_mults, mat_mults, field_ops and cert_bits.  Any change to
arithmetic, accounting or serialization that moves one of them fails
here, whatever it does to speed.
"""

import hashlib
import itertools

from conftest import fixture_text, load_fixture
from lenscert.certificate import parse, pipeline, serialize, triangle_certificate, verify

# computed on the code before verification moved to int coordinates
COST_MODEL_SHA256 = "98814574a5e724c5ff865f51fa37a44829d95511faa3371d39522fae2bd8ebb0"

PIPELINE_CASES = (
    ("prism_q8.tri", (2, 2, 2), None),
    ("t3_torus.tri", (2, 3, 7), None),
    ("prism_q12.tri", (2, 2, 3), "prism_q12.surj"),
)


def certificates():
    for triple in itertools.combinations_with_replacement(range(2, 20), 3):
        yield triangle_certificate(*triple)[0]
    yield parse(fixture_text("fig8.cert"))
    for name, base, surj in PIPELINE_CASES:
        surj_text = fixture_text(surj) if surj else None
        yield pipeline(load_fixture(name), base, surjection_text=surj_text)[0]


def cost_model_digest() -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for cert in certificates():
        report = verify(cert)
        assert report.accepted
        costs = (report.relator_mat_mults, report.mat_mults, report.field_ops, report.cert_bits)
        digest.update(serialize(cert).encode())
        digest.update((" ".join(map(str, costs)) + "\n").encode())
        count += 1
    return digest.hexdigest(), count


def test_cost_model_digest_is_pinned():
    sha, count = cost_model_digest()
    assert count == 1140 + 1 + len(PIPELINE_CASES)
    assert sha == COST_MODEL_SHA256
