"""parse's outcome on a seeded mutation corpus, pinned by one digest.

Base texts: the certificate of every triangle triple with entries from 2
to 12 (over F_p and F_{p^2}, abelian, dihedral and spherical),
fixtures/fig8.cert and the three Seifert pipeline certificates, the
prism_q12 one with its surjection.  Each line of each base is edited in
each way that applies to it (see edited_texts), one edit per text.  The
digest covers, for every base and edited text, serialize(parse(text)) or
the class and message of the exception parse raised.
PARSE_OUTCOME_SHA256 was computed on the parser that read every matrix
coordinate with parse_coords (now psl's) and every label with
presentation.is_label, so a rewrite of the parse path that moves one
accepted byte or one error message fails here.
"""

import functools
import hashlib
import importlib
import inspect
import itertools
import re
import sys
import types

import pytest

from conftest import (
    MERSENNE_PRIMES,
    SEIFERT_PIPELINES,
    fixture_text,
    load_fixture,
    toy_certificate_text,
)
from lenscert import checker
from lenscert.certificate import pipeline, triangle_certificate
from lenscert.checker import HEADER, CertificateSyntaxError, parse, serialize, verify, verify_bound
from lenscert.triangulation import parse_triangulation
from test_import_graph import CHECKER

# re-pinned when step 1 came to read its images off the seed core's
# column transform V: the prism_q8 and t3_torus base texts have new
# step-1 images, and with the earlier texts put back in their place the
# earlier digest comes out again, so only outcomes of those two bases and
# their edits moved.  Re-pinned again when the field line came to be
# read as the ring Z/p[w]/(w^2 - s): only the 211 "+p" edits of a field
# line moved, each an even modulus 2p whose message went from "field
# characteristic must be an odd prime" to "field modulus must be odd and
# at least 3"; no text went from refused to accepted or back.  Re-pinned
# when psl came to bound every number at psl.MAX_DIGITS digits: only the
# 866 outcomes that were int()'s own refusal of a 5000-digit number
# ("Exceeds the limit (4300 digits) ...") moved, each to parse_decimal's
# message on the same line; mapping that message back to int()'s gives
# the earlier digest, and no text went from refused to accepted or back
PARSE_OUTCOME_SHA256 = "047669b267012d37640006339a14d9163af141e2bc6adb2646a3a010ec3e375b"

_NUMBER = re.compile(r"[0-9]+")
_FIELD_P = re.compile(r"^field p=([0-9]+) ", re.MULTILINE)


def base_texts() -> list[str]:
    texts = [
        serialize(triangle_certificate(*triple)[0])
        for triple in itertools.combinations_with_replacement(range(2, 13), 3)
    ]
    texts.append(fixture_text("fig8.cert"))
    for name, base, surj in SEIFERT_PIPELINES:
        surj_text = fixture_text(surj) if surj else None
        texts.append(serialize(pipeline(load_fixture(name), base, surjection_text=surj_text)[0]))
    return texts


def _matrix_line(name: str, coords: list[int], deg: int) -> str:
    if deg == 1:
        a, b, c, d = coords
        return f"gen {name} = [[{a},{b}],[{c},{d}]]"
    e = [f"{coords[k]}+{coords[k + 1]}*w" for k in range(0, 8, 2)]
    return f"gen {name} = [[{e[0]},{e[1]}],[{e[2]},{e[3]}]]"


def line_edits(line: str, p: int, label: str):
    """Each single-line edit that applies to line."""
    m = _NUMBER.search(line)
    if m:
        head, digits, tail = line[:m.start()], m.group(), line[m.end():]
        yield head + "0" + digits + tail  # leading zero
        yield head + str(int(digits) + p) + tail  # coordinate + p
        yield head + "٣" + digits[1:] + tail  # non-ASCII digit
        yield head + "9" * 5000 + tail  # more digits than psl.MAX_DIGITS
    if line.startswith("gen ") and " = [[" in line:
        name, entries = line[4:].split(" = ")
        coords = [int(x) for x in _NUMBER.findall(entries)]
        deg = len(coords) // 4
        yield _matrix_line(name, [-x % p for x in coords], deg)  # negated matrix
        yield _matrix_line(name, [(coords[0] + 1) % p] + coords[1:], deg)  # det bumped
    if "*w" in line:
        yield line.replace("*w", "", 1)
    tokens = line.split(" ")
    for k, token in enumerate(tokens):
        if token == label or token.startswith(label + "^"):
            for prefix in ("9", "é"):  # digit-first, non-ASCII label
                yield " ".join(tokens[:k] + [prefix + token] + tokens[k + 1:])
            break
    yield line + "^2"
    yield line + " "  # trailing space


def edited_texts(text: str):
    lines = text.split("\n")[:-1]
    field = _FIELD_P.search(text)
    p = int(field.group(1)) if field else 7
    label = next(x for x in lines if x.startswith("gens ")).split(" ")[2]
    for i, line in enumerate(lines):
        for new in line_edits(line, p, label):
            yield lines[:i] + [new] + lines[i + 1:]
        yield lines[:i] + [""] + lines[i:]  # blank line
        yield lines[:i] + lines[i + 1:]  # deleted line
        if i + 1 < len(lines):
            yield lines[:i] + [lines[i + 1], line] + lines[i + 2:]  # two lines swapped


@functools.lru_cache(maxsize=1)
def corpus() -> tuple[tuple[str, bool], ...]:
    """(text, whether it is a base text) for every base and its edits."""
    out = []
    for text in base_texts():
        out.append((text, True))
        out.extend(("\n".join(lines) + "\n", False) for lines in edited_texts(text))
    return tuple(out)


def outcome(text: str) -> str:
    try:
        return serialize(parse(text))
    except Exception as exc:  # the class and message are the outcome
        return f"{type(exc).__name__}: {exc}"


def test_parse_outcomes_are_pinned():
    digest = hashlib.sha256()
    for text, is_base in corpus():
        result = outcome(text)
        if is_base:
            assert result == text
        if result.startswith(HEADER):  # accepted: so its length is its byte count
            assert result.isascii()
        digest.update(result.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PARSE_OUTCOME_SHA256


@pytest.mark.parametrize("name", ["_diagnose_matrix"])
def test_diagnose_fallback_always_raises(monkeypatch, name):
    """A matrix line the accepting regex refuses is only diagnosed: the
    fallback raises a syntax error on every corpus text that reaches it."""
    diagnose = getattr(checker, name)
    calls, raised = [], []

    def recorded(*args):
        calls.append(args)
        try:
            diagnose(*args)
        except CertificateSyntaxError:
            raised.append(args)
            raise

    monkeypatch.setattr(checker, name, recorded)
    for text, _ in corpus():
        try:
            parse(text)
        except CertificateSyntaxError:
            pass
    assert calls and raised == calls


def test_parse_returns_the_record_its_kind_line_names():
    kinds = set()
    for text, is_base in corpus():
        if is_base:
            kind = text.split("\n")[1].removeprefix("kind ")
            assert type(parse(text)) is getattr(checker, kind)
            kinds.add(kind)
    assert kinds == {"NonAbelianRep", "NonCyclicAbelian"}


def test_the_checker_calls_no_primality_or_residue_test(monkeypatch):
    """parse, verify and verify_bound trust the field line's shape alone.
    With every binding of the producers' is_prime, is_quadratic_residue
    and smallest_nonresidue (galois, which the checker does not load)
    made to raise, each base text, the toy certificate over Mersenne
    primes beyond the primality range and over the rings Z/15 and Z/105
    (with w^2 = s or not) gets the reports it gets unpatched;
    verify_bound runs against the Seifert texts' own triangulations, and
    the other texts against L(7,2), whose group none of them is about."""
    # built unpatched, as the producers prove their primes
    bases = [text for text, is_base in corpus() if is_base]
    names = [name for name, _, _ in SEIFERT_PIPELINES]
    own = dict(zip(bases[-len(names):], map(load_fixture, names)))
    lens = load_fixture("lens_7_2.tri")
    texts = bases + [toy_certificate_text(p) for p in MERSENNE_PRIMES]
    texts += [toy_certificate_text(n, s, True) for n in (15, 105) for s in (None, 1, 2)]

    def reports():
        out = []
        for text in texts:
            cert = parse(text)
            out.append((serialize(cert), verify(cert), verify_bound(cert, own.get(text, lens))))
        return out

    expected = reports()

    def refuse(*args):
        raise AssertionError("the checker called a primality or residue test")

    patched = 0
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("lenscert"):
            for name in ("is_prime", "is_quadratic_residue", "smallest_nonresidue"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
                    patched += 1
    assert patched >= 4  # galois' three, and projmat's is_quadratic_residue
    assert reports() == expected
    assert all(report.accepted for _, report, _ in expected[len(bases):])
    assert [bound.accepted for _, _, bound in expected].count(True) == len(SEIFERT_PIPELINES)


# Why a function of the checker's modules stays there although the
# checker never runs it; any other function the checker does not run
# belongs in a producer module.
ITEM_15 = "perfbench reads it, so it moves with perfbench's rewrite (ROADMAP item 15)"
BUILT = "a certificate built in code needs it"
TABLE = "the boundary check for a gluing table built in code"
NOT_RUN = {
    **{
        f"checker.{name}": BUILT
        for name in (
            "_check_words", "NonCyclicAbelian.__post_init__", "NonAbelianRep.__post_init__",
        )
    },
    "psl.Frozen.__init_subclass__": "it runs at import, once per value type the modules define",
    "psl.Frozen.__hash__": "equal values must hash alike, as they did as frozen dataclasses",
    "psl.Frozen.__repr__": "tests and debugging show values with it, as the dataclass repr",
    **{
        f"psl.Frozen.{name}": "it refuses a write to a value, and the checker makes none"
        for name in ("__setattr__", "__delattr__")
    },
    "psl.FieldSpec.zero": "scripts/make_fixtures.py builds the figure-eight matrices with it",
    "psl.FieldSpec.one": ITEM_15,
    **{
        f"psl.FieldElement.{name}": ITEM_15
        for name in ("is_zero", "__add__", "__mul__", "inverse", "__truediv__")
    },
    "psl.FieldElement.__sub__": "tests/oracles.py solves the trace equations with it",
    "psl.FieldElement.__neg__": "scripts/make_fixtures.py and the acceptance tests negate with it",
    "psl.FieldElement.__pow__": "tests/oracles.py takes powers of field elements with it",
    **{
        f"psl.ProjMatrix.{name}": ITEM_15
        for name in (
            "__init__", "is_identity", "mul", "inverse", "_entry", "a", "b", "c", "d", "entries",
        )
    },
    "psl.ProjMatrix.power": "projmat.projective_order, a producer, runs it",
    "psl.ProjMatrix.trace": "the acceptance tests compare traces with it",
    **{f"psl.ProjMatrix.{name}": BUILT for name in ("identity", "__repr__")},
    "presentation.Word.__init__": BUILT,
    "presentation.Word.max_generator": BUILT,
    "presentation.GroupPresentation.__post_init__": BUILT,
    **{
        f"triangulation.{name}": ITEM_15
        for name in (
            "Permutation4.__init__", "Permutation4.__call__", "Permutation4.inverse",
            "Permutation4.__str__", "FacePairing.__init__", "FacePairing.reverse",
            "Triangulation.pairings", "format_triangulation", "orientation_check",
        )
    },
    "triangulation.make_triangulation": TABLE,
}


def _defined_functions(module) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of each def in module's source, nested
    ones included, mapped to its dotted name under the module's."""
    with open(module.__file__, encoding="utf-8") as handle:
        code = compile(handle.read(), module.__file__, "exec")
    found = {}
    todo = [(code, module.__name__.split(".")[-1])]
    while todo:
        code, prefix = todo.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                todo.append((const, name))
    return found


def test_the_checker_runs_every_function_of_its_modules():
    """Under sys.setprofile, the checker's real work runs every def in the
    modules `import lenscert.checker` loads, except those in NOT_RUN,
    and none of those: serialize(parse(text)) over the corpus, verify on
    every text that parses, and verify_bound of each base text against
    its own triangulation, read from its fixture (L(7,2) for a text
    without one).  So producer code cannot drift back into a trusted
    module, and an entry of NOT_RUN that the checker comes to run must
    go."""
    texts = corpus()
    bases = [text for text, is_base in texts if is_base]
    own = dict(zip(bases[-len(SEIFERT_PIPELINES):], (name for name, _, _ in SEIFERT_PIPELINES)))
    tri_texts = {name: fixture_text(name) for name in [*own.values(), "lens_7_2.tri"]}
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        tris = {name: parse_triangulation(text) for name, text in tri_texts.items()}
        for text, is_base in texts:
            try:
                cert = parse(text)
            except CertificateSyntaxError:
                continue
            serialize(cert)
            verify(cert)
            if is_base:
                verify_bound(cert, tris[own.get(text, "lens_7_2.tri")])
    finally:
        sys.setprofile(previous)
    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in called}
    defined = {}
    for module in CHECKER:
        defined.update(_defined_functions(importlib.import_module(f"lenscert.{module}")))
    not_run = {name for key, name in defined.items() if key not in ran}
    assert set(NOT_RUN) <= set(defined.values())  # every entry names a def
    assert not_run - set(NOT_RUN) == set()
    assert set(NOT_RUN) - not_run == set()
