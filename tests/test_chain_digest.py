"""The triangulation chain's outputs, pinned by one digest.

For every fixture triangulation, every L(p,q) with p < 60, L(1000,331),
200 seeded random gluing tables (connected and not) and disjoint unions
of some of them, the digest covers `repr(validate(tri))`, the
orientation assignment and witness, the formatted `fundamental_group`
and its abelianization; an exception is recorded by class and message.
The digest was computed on the code that ran three orbit passes, built a
dual graph for the orientation and a cell structure for pi1, so a
rewrite of any of those stages that moves one output byte fails here.
"""

import hashlib
import random

from conftest import TRI_FIXTURES, lens_pairs, load_fixture
from lenscert.intlinalg import abelianization, format_abelian
from lenscert.presentation import format_presentation, fundamental_group
from lenscert.triangulation import TriangulationError, orientation_check, validate
from make_fixtures import lens_space
from oracles import disjoint_union, random_gluing_table

CHAIN_SHA256 = "33fe4bf2d1b9cd9299810d6f9e818bbe6c50b3c9cd5827c783457f099d0f521b"


def triangulations():
    yield from (load_fixture(name) for name in sorted(TRI_FIXTURES))
    yield from (lens_space(p, q) for p, q in lens_pairs(60))
    yield lens_space(1000, 331)
    rng = random.Random(20261018)
    draws = [random_gluing_table(rng.randint(1, 12), rng, connected=k % 2 == 0) for k in range(200)]
    yield from draws
    for a, b in zip(draws[:40:2], draws[1:40:2]):
        yield disjoint_union(a, b)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except TriangulationError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def chain_lines(tri):
    yield repr(validate(tri))
    orient, error = _outcome(orientation_check, tri)
    yield error or repr((orient.orientable, orient.assignment, orient.witness))
    pres, error = _outcome(fundamental_group, tri)
    if error:
        yield error
        return
    yield from format_presentation(pres)
    yield format_abelian(abelianization(pres))


def chain_digest() -> str:
    digest = hashlib.sha256()
    for tri in triangulations():
        for line in chain_lines(tri):
            digest.update(line.encode() + b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def test_chain_outputs_are_pinned():
    assert chain_digest() == CHAIN_SHA256
