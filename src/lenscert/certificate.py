"""Produce "not a lens space" certificates; checker parses, serializes
and verifies them.

triangle_certificate states a triangle group's own claim: the matrix
pair trianglerep.triangle_image returns, or, where it returns None as
the triple's entries share a factor d > 1, the abelian image (Z/d)^2.
triangle_image alone decides which; this module reads its answer.
pipeline states every claim about the triangulation's own presentation:
at step 1 the (Z/n)^2 image noncyclic_certificate reads off the Smith
normal form of the one intlinalg.seed_core that pipeline computes and
reads H1 off, at step 2 the triangle group's matrices, carried there by
a surjection, and without one nothing.  Step 2 never spells out the
triangle group's relators: it refuses a None image from the triple alone.
"""

from __future__ import annotations

import operator
import re
from typing import Optional, Sequence

# perfbench and bench_verify.py read parse and serialize here, where older trees define them
from .checker import (
    Certificate,
    CertificateSyntaxError,
    NonAbelianRep,
    NonCyclicAbelian,
    parse,  # noqa: F401
    serialize,  # noqa: F401
    verify,
)
from .intlinalg import SeedCore, format_abelian, is_cyclic, seed_core
from .presentation import GroupPresentation, Word, fundamental_group, letter_table, read_word
from .projmat import evaluate_word
from .trianglerep import classify, triangle_image, triangle_presentation
from .triangulation import _BLANKS, orientation_check, validate


class PipelineError(RuntimeError):
    """The certificate producer cannot proceed on this input."""


# Blanks in a surjection file are spaces and tabs, as in a triangulation.
# A line is stripped of them first, so an empty word leaves "gen <name> ->".
_BLANK_RUN = f"[{_BLANKS}]+"
_SURJ_FILE_RE = re.compile(rf"^gen{_BLANK_RUN}(\w+){_BLANK_RUN}->(?:{_BLANK_RUN}(.*))?$")


def noncyclic_certificate(pres: GroupPresentation, core: SeedCore) -> Certificate:
    """The step-1 certificate onto (Z/n)^2, given core = seed_core(pres).

    n is 2 if H1 = core.h1() has free rank >= 2, else its first torsion
    factor, so n divides two invariant factors.  They are read off the
    Smith normal form U C V = D of the seed core C over k seeds: at the
    first two indices j where n divides d_j (a free factor counts as 0),
    column j of V is a functional on Z^k that kills C mod n, and, V being
    unimodular, the two map Z^k onto (Z/n)^2.  A generator's image is its
    coordinates in Z^k paired with them, mod n.  Raises ValueError if H1
    is cyclic."""
    h1 = core.h1()
    if is_cyclic(h1):
        raise ValueError("abelianization is cyclic; no non-cyclic abelian certificate")
    n = 2 if h1.free_rank >= 2 else h1.torsion[0]
    snf = core.snf
    diag = snf.diag + (0,) * (snf.v.cols - len(snf.diag))
    picked = [j for j, d in enumerate(diag) if d % n == 0][:2]
    a, b = ([row[j] for row in snf.v.entries] for j in picked)
    images = tuple(
        (sum(map(operator.mul, x, a)) % n, sum(map(operator.mul, x, b)) % n)
        for x in zip(*core.coordinates)
    )
    cert = NonCyclicAbelian(presentation=pres, target=(n, n), abelian_images=images)
    outcome = verify(cert)
    if not outcome.accepted:
        raise ArithmeticError(f"built abelian certificate fails: {outcome.reason}")
    return cert


_XY_WITNESS = (Word(((0, 1), (1, 1))), Word(((1, 1), (0, 1))))
# the most letters a triangle certificate's relators x^n1, y^n2, (xy)^n3
# may spell: past it the certificate is refused, not written
MAX_RELATOR_LETTERS = 10**6


def triangle_certificate(n1: int, n2: int, n3: int) -> tuple[Certificate, dict]:
    """Certificate for the triangle group itself, plus the triangle's
    type; what the certificate holds is read off the certificate."""
    t = classify(n1, n2, n3)
    # the image first: past the prime search's ceiling, no relator is spelled out
    images = triangle_image(t)
    letters = t.n1 + t.n2 + 2 * t.n3
    if letters > MAX_RELATOR_LETTERS:
        raise ValueError(
            f"the relators of {t.triple} would spell {letters} letters, "
            f"more than {MAX_RELATOR_LETTERS}"
        )
    pres = triangle_presentation(t)
    if images is None:
        cert: Certificate = NonCyclicAbelian(
            presentation=pres, target=(t.d, t.d), abelian_images=((1, 0), (0, 1))
        )
    else:
        cert = NonAbelianRep(
            presentation=pres,
            field=images[0].spec,
            rep_gens=("x", "y"),
            rep_images=images,
            witness=_XY_WITNESS,
        )
    info = {"triple": t.triple, "ell": t.ell, "gcd": t.d, "curvature": t.curvature}
    outcome = verify(cert)
    if not outcome.accepted:
        raise ArithmeticError(f"built certificate fails verification: {outcome.reason}")
    return cert, info


def parse_word(text: str, labels: Sequence[str]) -> Word:
    """read_word over labels, with the tokens separated by spaces and tabs."""
    return read_word(re.sub(_BLANK_RUN, " ", text.strip(_BLANKS)), letter_table(labels))


def parse_surjection(text: str, pres_labels: tuple[str, ...]) -> tuple[Word, ...]:
    """Read 'gen <name> -> <word in x,y>' lines; every generator must appear."""
    words: dict[str, Word] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if not line or line == "surjection":
            continue
        m = _SURJ_FILE_RE.match(line)
        if not m:
            raise CertificateSyntaxError(f"line {lineno}: expected 'gen <name> -> <word>'")
        name = m.group(1)
        if name not in pres_labels:
            raise CertificateSyntaxError(f"line {lineno}: unknown generator {name!r}")
        if name in words:
            raise CertificateSyntaxError(f"line {lineno}: generator {name!r} mapped twice")
        try:
            word = parse_word(m.group(2) or "", ("x", "y"))
        except ValueError as exc:
            raise CertificateSyntaxError(f"line {lineno}: {exc}") from None
        if not word.is_reduced():
            raise CertificateSyntaxError(f"line {lineno}: word is not freely reduced")
        words[name] = word
    missing = [lab for lab in pres_labels if lab not in words]
    if missing:
        raise CertificateSyntaxError(f"surjection misses generators: {', '.join(missing)}")
    return tuple(words[lab] for lab in pres_labels)


def pipeline(
    tri,
    base: Optional[tuple[int, int, int]] = None,
    surjection_text: Optional[str] = None,
) -> tuple[Certificate, dict]:
    """Produce a certificate about a triangulated Seifert fiber space.

    Step 1 computes homology from the triangulation's own presentation
    and emits a non-cyclic abelian certificate when possible; it reads
    no base.  Step 2, when H1 is cyclic, needs the caller-asserted base
    orbifold and a user-supplied surjection from the presentation onto
    its triangle group: without either it is an error, the base named
    first, raised before the triangle group's image is built.  The
    surjection carries the image, built once, to the triangulation's
    presentation.  It cannot carry the abelian (Z/d)^2 image of a base
    with common divisor d > 1: every abelian image of the group factors
    through H1, which is cyclic in step 2, so that case is an error too.
    """
    report = validate(tri)
    if not report.passed:
        raise PipelineError(
            "triangulation is not a closed 3-manifold: " + "; ".join(report.failures)
        )
    orient = orientation_check(tri)
    if not orient.orientable:
        raise PipelineError("triangulation is non-orientable (already not a lens space)")

    pres = fundamental_group(tri)
    core = seed_core(pres)
    h1 = core.h1()
    info: dict = {"h1": format_abelian(h1), "t": tri.t}
    if not is_cyclic(h1):
        cert = noncyclic_certificate(pres, core)
        info["step"] = 1
        return cert, info

    if base is None:
        raise PipelineError(f"H1 = {info['h1']} is cyclic, so step 2 needs a base (--base)")
    t_type = classify(*base)
    if surjection_text is None:
        raise PipelineError(
            f"H1 = {info['h1']} is cyclic, so step 2 needs a surjection file (--surjection) "
            f"mapping the presentation generators onto the triangle group of base {t_type.triple}"
        )
    info.update(step=2, triple=t_type.triple, curvature=t_type.curvature)
    # the image's errors come before the surjection file's
    xy = triangle_image(t_type)
    surj = parse_surjection(surjection_text, pres.labels)
    if xy is None:
        raise PipelineError(
            f"a surjection cannot carry the abelian image (Z/{t_type.d})^2 of base "
            f"{t_type.triple}: every abelian image of the group factors through "
            f"H1 = {info['h1']}, which is cyclic"
        )
    images = [evaluate_word(xy, w) for w in surj]
    witness = None
    for i in range(pres.g):
        for j in range(i + 1, pres.g):
            if images[i].mul(images[j]) != images[j].mul(images[i]):
                witness = (Word(((i, 1), (j, 1))), Word(((j, 1), (i, 1))))
                break
        if witness:
            break
    if witness is None:
        raise PipelineError(
            "pushed generator images all commute; surjection does not "
            "carry a non-abelian image"
        )
    # the triangle group's matrices, carried to pres by the surjection
    cert = NonAbelianRep(
        presentation=pres,
        field=xy[0].spec,
        rep_gens=("x", "y"),
        rep_images=xy,
        surjection=surj,
        witness=witness,
    )
    outcome = verify(cert)
    if not outcome.accepted:
        raise PipelineError(f"certificate through the surjection fails verify: {outcome.reason}")
    return cert, info
