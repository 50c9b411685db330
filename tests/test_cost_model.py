"""The paper's cost model and certificate bytes, pinned by one digest.

The digest covers, for every triangle certificate with entries up to 19,
the figure-eight fixture and the pipeline certificates of three
Seifert-fibered fixtures: the certificate text and the verifier's
relator_mat_mults, mat_mults, field_ops and cert_bits.  Any change to
arithmetic, accounting or serialization that moves one of them fails
here, whatever it does to speed.

A second digest pins what the producers report: the info dict of every
triangle certificate, and the certificate and info (or the exception
class) of `pipeline` over every fixture triangulation, a set of bases
that reaches each branch of the triangle dispatch, with and without a
surjection file.
"""

import glob
import hashlib
import itertools
import json
import os
from dataclasses import replace

from conftest import FIXTURES, fixture_text, load_fixture
from lenscert.certificate import pipeline, triangle_certificate
from lenscert.checker import parse, serialize, verify

# re-pinned when step 1 came to read its images off the seed core's
# column transform V: with the earlier step-1 texts put back in place of
# the new ones, the earlier digest comes out again, so only the prism_q8
# and t3_torus records moved, with new images, the same target (2, 2) and
# the same bytes
COST_MODEL_SHA256 = "f5679359f1e128bffdb1b75677c95798557811baa3aef578f45d20d6aab353bb"

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


def test_parsed_certificate_verifies_as_built():
    """verify takes cert_bits from the bytes parse read, and serializes
    only a certificate built in code: every report field agrees."""
    count = 0
    for cert in certificates():
        built = replace(cert)  # a parsed fixture loses its record here
        parsed = parse(serialize(built))
        assert built.text_bytes is None and parsed.text_bytes is not None
        assert verify(parsed) == verify(built)
        count += 1
    assert count == 1140 + 1 + len(PIPELINE_CASES)


# re-pinned when the info dicts stopped copying what the certificate
# holds (kind, p, field_degree, target, orders, field_size): every
# serialized certificate and every raised exception is as before; only
# the info JSON of the 1,140 triangle records and of the 49 pipeline
# records that build a certificate (48 at step 1, prism_q12 over
# (2, 2, 3) at step 2) moved
BUILD_INFO_SHA256 = "f804d2fdb974ac0eb0521b75b73a84d89eed726a1eab23e9cf2dee22c9f1e29d"

BASES = (
    (2, 3, 7),  # hyperbolic, coprime
    (3, 4, 5),  # hyperbolic, coprime, quadratic extension
    (2, 4, 6),  # hyperbolic, common divisor 2
    (2, 3, 3),  # spherical pairs
    (2, 3, 4),
    (2, 3, 5),
    (2, 3, 6),  # euclidean, reuses the (2,3,3) pair
    (2, 2, 3),  # dihedral
    (2, 2, 5),
    (2, 4, 4),  # euclidean, common divisor 2
    (3, 3, 3),
    (1, 2, 3),  # not a triangle group
)


def build_info_records():
    for triple in itertools.combinations_with_replacement(range(2, 20), 3):
        info = triangle_certificate(*triple)[1]
        yield f"triangle {triple} {json.dumps(info, sort_keys=True)}\n"
    surj_text = fixture_text("prism_q12.surj")
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.tri"))):
        name = os.path.basename(path)
        tri = load_fixture(name)
        for base, surj in itertools.product(BASES, (None, surj_text)):
            head = f"pipeline {name} {base} {surj is not None}"
            try:
                cert, info = pipeline(tri, base, surjection_text=surj)
            except Exception as exc:
                yield f"{head} raises {type(exc).__name__}\n"
                continue
            yield f"{head}\n{serialize(cert)}{json.dumps(info, sort_keys=True)}\n"


def test_build_info_digest_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for record in build_info_records():
        digest.update(record.encode())
        count += 1
    assert count == 1140 + 13 * len(BASES) * 2
    assert digest.hexdigest() == BUILD_INFO_SHA256
