import collections
import dataclasses
import hashlib
import itertools
import random
import re
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    MERSENNE_PRIMES,
    fixture_text,
    load_fixture,
    numeric_field_texts,
    toy_certificate_text,
)
from lenscert.certificate import (
    PipelineError,
    noncyclic_certificate,
    parse_surjection,
    parse_word,
    pipeline,
    triangle_certificate,
)
from lenscert.checker import (
    NON_ABELIAN,
    NON_CYCLIC,
    Certificate,
    CertificateSyntaxError,
    NonAbelianRep,
    NonCyclicAbelian,
    parse,
    serialize,
    subgroup_invariants,
    verify,
    verify_bound,
)
from lenscert import certificate, galois, trianglerep
from lenscert.cli import main as cli_main
from lenscert.galois import SearchLimitExceeded, is_prime, quadratic_extension
from lenscert.intlinalg import AbelianGroup, abelianization, is_cyclic, seed_core
from lenscert.presentation import GroupPresentation, Word, fundamental_group
from lenscert.psl import FieldSpec, ProjMatrix
from make_fixtures import prism_manifold
from oracles import (
    dense_abelian_report,
    equal_up_to_sign,
    letter_by_letter_fold,
    random_presentation,
    reduced_word,
    snf_subgroup_invariants,
    spliced_rep_verdict,
    spliced_word_image,
    word_power,
)


def fig8_certificate() -> Certificate:
    return parse(fixture_text("fig8.cert"))


# ----------------------------------------------------------------------
# serialization


def test_fig8_roundtrip_bytes():
    text = fixture_text("fig8.cert")
    assert serialize(parse(text)) == text


def test_roundtrip_all_builder_outputs():
    for triple in [(2, 3, 7), (3, 4, 5), (2, 3, 5), (2, 4, 4), (2, 2, 9), (3, 3, 3)]:
        cert, _ = triangle_certificate(*triple)
        text = serialize(cert)
        assert parse(text) == cert
        assert serialize(parse(text)) == text


def test_truncated_file_is_parse_error():
    text = fixture_text("fig8.cert")
    for cut in (len(text) // 3, len(text) // 2, len(text) - 10):
        with pytest.raises(CertificateSyntaxError):
            parse(text[:cut])


def test_field_line_parses_spec():
    cert = fig8_certificate()
    assert cert.field == FieldSpec(5, 2, 2)


def test_unreduced_word_rejected():
    text = fixture_text("fig8.cert").replace(
        "witness a b | b a", "witness a a^-1 | b a"
    )
    with pytest.raises(CertificateSyntaxError, match="reduced"):
        parse(text)


def test_certificate_words_allow_only_inverse_exponent():
    text = fixture_text("fig8.cert")
    for old, new in (
        ("witness a b | b a", "witness a^100000 | b a"),
        ("witness a b | b a", "witness a b^1 | b a"),
        ("a b a^-1 b^-1 a b a b^-1", "a b a^-1 b^-1 a b^2 b^-1"),
    ):
        with pytest.raises(CertificateSyntaxError, match="only '\\^-1'"):
            parse(text.replace(old, new))


# A certificate with an unlabelled `gens` line, which serialize never
# writes, and the valid certificate it would stand for with labels x0, x1.
UNLABELLED_CERT = """lenscert v1
kind NonAbelianRep
gens 2
rels 0
field p=5 deg=1
gen x0 = [[1,1],[0,1]]
gen x1 = [[1,0],[1,1]]
witness x0 x1 | x1 x0
"""
LABELLED_CERT = UNLABELLED_CERT.replace("gens 2\n", "gens 2 x0 x1\n")


def test_unlabelled_generator_count_is_capped_by_lines_left():
    with pytest.raises(CertificateSyntaxError):
        parse(UNLABELLED_CERT)
    # a gens line without labels fails its label count at once, however
    # large the count
    with pytest.raises(CertificateSyntaxError, match="generator count"):
        parse(UNLABELLED_CERT.replace("gens 2", "gens 6"))
    start = time.monotonic()
    with pytest.raises(CertificateSyntaxError, match="generator count"):
        parse("lenscert v1\nkind NonAbelianRep\ngens 1000000000\nrels 0\n")
    assert time.monotonic() - start < 0.5


# LABELLED_CERT with a relator block of two lines: ten lines in all
TEN_LINE_CERT = LABELLED_CERT.replace("rels 0\n", "rels 2\nx0 x0 x0 x0 x0\nx1 x1 x1 x1 x1\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        # no block: its lines are read as the field line
        ("rels 2\n", "rels 0\n", "line 5: expected 'field p=<p> deg=<d> [s=<s>]'"),
        # a block one line short of its count, or far more: the field
        # line is read as a relator
        ("rels 2\n", "rels 3\n", "line 7: unknown generator 'field' in word"),
        ("rels 2\n", "rels " + "1" + "0" * 100 + "\n", "line 7: unknown generator 'field' in word"),
        # the block's last line, x1 x1 x1 x1 x1, edited
        (" x1 x1\nfield", " x1 z\nfield", "line 6: unknown generator 'z' in word"),
        (
            " x1 x1\nfield",
            " x1 x1^-1\nfield",
            "line 6: word 'x1 x1 x1 x1 x1^-1' is not freely reduced",
        ),
    ],
)
def test_relator_block_errors_name_their_line(old, new, message):
    assert verify(parse(TEN_LINE_CERT)).accepted
    assert len(TEN_LINE_CERT.splitlines()) == 10
    text = TEN_LINE_CERT.replace(old, new)
    assert text != TEN_LINE_CERT
    start = time.monotonic()
    with pytest.raises(CertificateSyntaxError) as info:
        parse(text)
    assert time.monotonic() - start < 0.5
    assert str(info.value) == message


def test_a_relator_block_past_the_text_ends_there_at_once():
    """A count of 10^100 relators reads the lines the text has, and no
    more: the block runs out at the end of the text."""
    assert parse(LABELLED_CERT).presentation.relators == ()
    head = "lenscert v1\nkind NonAbelianRep\ngens 2 x0 x1\n"
    for r, block, line in (("1" + "0" * 100, "x0\nx1\n", 7), ("1", "", 5), ("2", "x0\n", 6)):
        start = time.monotonic()
        with pytest.raises(CertificateSyntaxError) as info:
            parse(f"{head}rels {r}\n{block}")
        assert time.monotonic() - start < 0.5
        assert str(info.value) == f"line {line}: unexpected end of file"


def test_gens_line_of_many_labels():
    g = 10**5
    labels = [f"g{k}" for k in range(g)]
    images = ["(1,0)", "(0,1)"] + ["(0,0)"] * (g - 2)

    def text(labels):
        head = f"lenscert v1\nkind NonCyclicAbelian\ngens {g} {' '.join(labels)}\nrels 0\n"
        lines = [f"gen {lab} = {image}\n" for lab, image in zip(labels, images)]
        return head + "target Z/2 x Z/2\n" + "".join(lines)

    cert = parse(text(labels))
    assert cert.presentation.labels == tuple(labels)
    assert verify(cert).accepted
    with pytest.raises(CertificateSyntaxError, match="bad generator label '9z'"):
        parse(text(labels[:-1] + ["9z"]))


def test_composite_modulus_certificate_is_accepted(tmp_path):
    """Non-commuting images over the rings Z/N and Z/N[w]/(w^2 - s) for
    odd composite N, s a square or not: SL(2, R)/{+-I} is a group, and
    x y != +-y x there, so the certificate is accepted, relators or not."""
    path = tmp_path / "ring.cert"
    for n, s, relators in itertools.product((15, 105), (None, 1, 2, 14), (False, True)):
        text = toy_certificate_text(n, s, relators)
        cert = parse(text)
        assert (cert.field.p, cert.field.s) == (n, s)
        assert serialize(cert) == text
        assert verify(cert).accepted
        # 4 letters of witness and 2n of relators, each charged one multiply
        assert verify(cert).mat_mults == 4 + 2 * n * relators
        path.write_text(text, encoding="utf-8")
        assert cli_main(["verify", str(path)]) == 0


@pytest.mark.parametrize(
    "field",
    ["field p=15 deg=2 s=0", "field p=16 deg=1", "field p=1 deg=1", "field p=15 deg=2 s=15"],
    ids=["deg=2 s=0", "even p", "p=1", "s=p"],
)
def test_field_line_of_the_wrong_shape_exits_two(field, tmp_path, capsys):
    """The field line names Z/p[w]/(w^2 - s) with p odd and at least 3
    and 0 < s < p.  s = 0 stays a syntax error: the fold reads s = 0 as a
    prime field and would drop the w coordinates."""
    text = toy_certificate_text(15).replace("field p=15 deg=1", field)
    with pytest.raises(CertificateSyntaxError, match="^line 5: "):
        parse(text)
    path = tmp_path / "shape.cert"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2
    assert "error: line 5: " in capsys.readouterr().err


def test_unknown_kind_rejected():
    text = fixture_text("fig8.cert").replace("NonAbelianRep", "Something")
    with pytest.raises(CertificateSyntaxError):
        parse(text)


# The (2,3,7) certificate over F_337 and the (7,7,7) one onto Z/7 x Z/7.
DEG1_CERT = serialize(triangle_certificate(2, 3, 7)[0])
Z7_CERT = serialize(triangle_certificate(7, 7, 7)[0])
FIG8_A = "gen a = [[2+0*w,0+0*w],[0+0*w,3+0*w]]"
DEG1_X = "gen x = [[0,1],[336,0]]"

# (certificate, line, replacement): each spells an integer non-canonically
NON_CANONICAL = [
    ("fig8", "gens 2 a b", "gens 0_2 a b"),
    ("fig8", "gens 2 a b", "gens +2 a b"),
    ("fig8", "gens 2 a b", "gens 02 a b"),
    ("fig8", "rels 1", "rels 0_1"),
    ("fig8", "rels 1", "rels +1"),
    ("fig8", "rels 1", "rels 01"),
    ("fig8", "field p=5 deg=2 s=2", "field p=05 deg=2 s=2"),
    ("fig8", "field p=5 deg=2 s=2", "field p=5 deg=2 s=٢"),
    ("fig8", "field p=5 deg=2 s=2", "field p=5 deg=02 s=2"),
    ("fig8", FIG8_A, "gen a = [[0_02+0*w,0+0*w],[0+0*w,3+0*w]]"),
    ("fig8", FIG8_A, "gen a = [[2++0*w,0+0*w],[0+0*w,3+0*w]]"),
    ("fig8", FIG8_A, "gen a = [[ 2+0*w,0+0*w],[0+0*w,3+0*w]]"),
    ("deg1", DEG1_X, "gen x = [[+0,1],[336,0]]"),
    ("deg1", DEG1_X, "gen x = [[-0,1],[336,0]]"),
    ("deg1", DEG1_X, "gen x = [[00,1],[336,0]]"),
    ("z7", "target Z/7 x Z/7", "target Z/07 x Z/7"),
    ("z7", "target Z/7 x Z/7", "target Z/7 x Z/٧"),
    ("z7", "gen x = (1,0)", "gen x = (8,0)"),
    ("z7", "gen x = (1,0)", "gen x = (7,0)"),
    ("z7", "gen y = (0,1)", "gen y = (0,8)"),
    ("z7", "gen x = (1,0)", "gen x = (-6,0)"),
    ("z7", "gen x = (1,0)", "gen x = (٣,0)"),
    ("z7", "gen x = (1,0)", "gen x = (01,0)"),
]


def certificate_text(name: str) -> str:
    return {"fig8": fixture_text("fig8.cert"), "deg1": DEG1_CERT, "z7": Z7_CERT}[name]


def test_non_canonical_cases_start_from_valid_certificates():
    for name in ("fig8", "deg1", "z7"):
        text = certificate_text(name)
        assert verify(parse(text)).accepted
        assert serialize(parse(text)) == text
    for name, old, _ in NON_CANONICAL:
        assert old in certificate_text(name).splitlines()


@pytest.mark.parametrize("name,old,new", NON_CANONICAL)
def test_non_canonical_integer_is_syntax_error(name, old, new, tmp_path, capsys):
    # each of these parsed under int() rules and then failed to round-trip
    text = certificate_text(name).replace(old, new, 1)
    with pytest.raises(CertificateSyntaxError):
        parse(text)
    path = tmp_path / "non_canonical.cert"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


SURJ_CERT = serialize(
    pipeline(
        load_fixture("prism_q12.tri"), (2, 2, 3), surjection_text=fixture_text("prism_q12.surj")
    )[0]
)
FIG8_RELATOR = "a b a^-1 b^-1 a b a b^-1 a^-1 b^-1"

# (certificate, line, replacement): each spaces a line's tokens other than
# serialize does, which parse read the same before and then failed to round-trip
NON_CANONICAL_SPACING = [
    ("fig8", "kind NonAbelianRep", "kind  NonAbelianRep"),
    ("fig8", "gens 2 a b", "gens  2 a b"),
    ("fig8", "gens 2 a b", "gens 2  a b"),
    ("fig8", "rels 1", "rels  1"),
    ("fig8", "rels 1", "rels 1 a"),
    ("fig8", FIG8_RELATOR, FIG8_RELATOR.replace("a b", "a  b", 1)),
    ("fig8", "field p=5 deg=2 s=2", "field  p=5 deg=2 s=2"),
    ("fig8", "field p=5 deg=2 s=2", "field p=5  deg=2 s=2"),
    ("fig8", FIG8_A, FIG8_A.replace(" = ", "  =  ")),
    ("fig8", FIG8_A, FIG8_A.replace("gen ", "gen  ")),
    ("fig8", "witness a b | b a", "witness a  b |  b a"),
    ("fig8", "witness a b | b a", "witness a b|b a"),
    ("fig8", "witness a b | b a", "witness a b  | b a"),
    ("z7", "target Z/7 x Z/7", "target Z/7  x Z/7"),
    ("z7", "target Z/7 x Z/7", "target  Z/7 x Z/7"),
    ("z7", "gen x = (1,0)", "gen x  = (1,0)"),
    ("surj", "gen x3 -> x y x", "gen x3 ->  x y x"),
    ("surj", "gen x3 -> x y x", "gen x3  -> x y x"),
    ("surj", "gen x3 -> x y x", "gen x3 -> x  y x"),
]


def spaced_text(name: str) -> str:
    return SURJ_CERT if name == "surj" else certificate_text(name)


@pytest.mark.parametrize("name,old,new", NON_CANONICAL_SPACING)
def test_non_canonical_spacing_is_syntax_error(name, old, new, tmp_path, capsys):
    text = spaced_text(name)
    assert old in text.splitlines()
    mutated = text.replace(old, new, 1)
    with pytest.raises(CertificateSyntaxError):
        parse(mutated)
    path = tmp_path / "spaced.cert"
    path.write_text(mutated, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _rename_matrix_generator(text: str, new: str, old: str = "x") -> str:
    """A surjection certificate with matrix generator old renamed, in its
    matrix line and in every surjection word."""
    lines = []
    for line in text.split("\n"):
        if line.startswith(f"gen {old} = "):
            line = f"gen {new} = " + line[len(f"gen {old} = "):]
        elif " -> " in line:
            head, _, word = line.partition(" -> ")
            tokens = (new if token == old else token for token in word.split(" "))
            line = f"{head} -> " + " ".join(tokens)
        lines.append(line)
    return "\n".join(lines)


def test_renamed_matrix_generator_round_trips():
    text = _rename_matrix_generator(SURJ_CERT, "_z9")
    assert "gen _z9 = [[" in text and "gen x3 -> _z9 y _z9" in text
    cert = parse(text)
    assert cert.rep_gens == ("_z9", "y") and verify(cert).accepted
    assert serialize(cert) == text


@pytest.mark.parametrize("name", ["é", "1", "٣", "1x", "xé"])
def test_matrix_generator_names_follow_the_label_rule(name, tmp_path, capsys):
    """A matrix generator name is ASCII with a letter or '_' first, as a
    presentation label is; each of these once verified and round-tripped."""
    text = _rename_matrix_generator(SURJ_CERT, name)
    with pytest.raises(CertificateSyntaxError, match=f"line 12: bad generator label '{name}'"):
        parse(text)
    path = tmp_path / "renamed.cert"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(CertificateSyntaxError, match="bad generator label"):
        replace(parse(SURJ_CERT), rep_gens=(name, "y"))


def test_matrix_generator_names_are_distinct():
    twice_x = (_rename_matrix_generator(SURJ_CERT, "x", "y"), DEG1_CERT.replace("gen y = ", "gen x = "))
    for text in twice_x:
        with pytest.raises(CertificateSyntaxError, match="duplicate matrix generator names"):
            parse(text)


@pytest.mark.parametrize("surjection", [None, ()], ids=["plain", "surjection"])
def test_representation_certificate_without_a_matrix_is_a_syntax_error(surjection):
    """On 0 generators a certificate with no matrix passes the name
    checks, but verify would index its first image and parse refuses the
    text serialize would write, so the constructor refuses it too."""
    with pytest.raises(CertificateSyntaxError, match="needs a matrix"):
        NonAbelianRep(
            presentation=GroupPresentation(g=0, relators=()),
            field=FieldSpec(5),
            rep_gens=(),
            rep_images=(),
            surjection=surjection,
            witness=(Word(()), Word(())),
        )
    with pytest.raises(CertificateSyntaxError, match="line 5: expected at least one 'gen"):
        parse("lenscert v1\nkind NonAbelianRep\ngens 0\nrels 0\nfield p=5 deg=1\nwitness  | \n")


@pytest.mark.parametrize(
    "labels,message",
    [
        ("x0 x0", "line 4: duplicate generator labels"),
        ("x0 1b", "line 4: bad generator label '1b'"),
        ("x0 é", "line 4: bad generator label 'é'"),
    ],
)
def test_presentation_labels_are_checked_by_parse(labels, message):
    text = LABELLED_CERT.replace("gens 2 x0 x1\n", f"gens 2 {labels}\n")
    with pytest.raises(CertificateSyntaxError, match=message):
        parse(text)


# (certificate, line, replacement): each parsed to a certificate that
# serialize writes differently, so the text's bytes were not its bytes
NON_CANONICAL_ORDER_OR_SIGN = [
    ("deg1", DEG1_X, "gen x = [[0,336],[1,0]]", "line 9: matrix is not sign-normalized"),
    (
        "fig8",
        FIG8_A,
        "gen a = [[3+0*w,0+0*w],[0+0*w,2+0*w]]",
        "line 7: matrix is not sign-normalized",
    ),
    (
        "z7",
        "gen x = (1,0)\ngen y = (0,1)",
        "gen y = (0,1)\ngen x = (1,0)",
        "line 9: expected generator 'x'",
    ),
    (
        "surj",
        "gen x1 -> x\ngen x2 -> y",
        "gen x2 -> y\ngen x1 -> x",
        "line 16: expected generator 'x1'",
    ),
]


@pytest.mark.parametrize("name,old,new,message", NON_CANONICAL_ORDER_OR_SIGN)
def test_negated_matrix_or_reordered_lines_are_syntax_errors(name, old, new, message, tmp_path):
    text = spaced_text(name)
    assert old in text
    mutated = text.replace(old, new, 1)
    with pytest.raises(CertificateSyntaxError, match=message):
        parse(mutated)
    path = tmp_path / "reordered.cert"
    path.write_text(mutated, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2


def test_text_bytes_is_recorded_by_parse_only():
    """parse records the bytes of the text it read; the record is not a
    constructor argument, not compared and not in repr, and a certificate
    built in code (or replaced) has none, so verify serializes it."""
    text = fixture_text("fig8.cert")
    parsed = parse(text)
    assert parsed.text_bytes == len(text.encode())
    built = replace(parsed)
    assert built.text_bytes is None
    assert built == parsed and hash(built) == hash(parsed) and repr(built) == repr(parsed)
    assert "text_bytes" not in repr(parsed)
    assert verify(built) == verify(parsed)
    assert NonAbelianRep(**_init_args(parsed)) == parsed
    with pytest.raises(TypeError):
        NonAbelianRep(**_init_args(parsed), text_bytes=1)


def test_serialize_keeps_its_text_on_the_certificate_it_was_given():
    """verify's byte count and a later serialize share one text; the
    stored text is not an init argument, not compared and not in repr."""
    cert = replace(fig8_certificate())  # built in code: no text_bytes
    assert cert.text_bytes is None and cert._text is None
    report = verify(cert)
    text = cert._text
    assert text == fixture_text("fig8.cert") and report.cert_bits == 8 * len(text.encode())
    assert serialize(cert) is text
    assert cert == fig8_certificate() and repr(cert) == repr(fig8_certificate())
    assert hash(cert) == hash(fig8_certificate())
    with pytest.raises(TypeError):
        NonAbelianRep(**_init_args(cert), _text=text)


def _init_args(cert: Certificate) -> dict:
    return {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}


def test_each_record_has_exactly_its_kinds_fields():
    """kind is a class attribute of each record, not a field: not in
    repr and not an argument of replace; field is None on the abelian
    record, which has no field of that name."""
    rep, abelian = fig8_certificate(), triangle_certificate(3, 3, 3)[0]
    assert type(rep) is NonAbelianRep and type(abelian) is NonCyclicAbelian
    assert list(_init_args(rep)) == [
        "presentation", "field", "rep_gens", "rep_images", "witness", "surjection",
    ]
    assert list(_init_args(abelian)) == ["presentation", "target", "abelian_images"]
    assert (rep.kind, abelian.kind) == (NON_ABELIAN, NON_CYCLIC)
    assert abelian.field is None and isinstance(rep, Certificate)
    for cert in (rep, abelian):
        assert "kind" not in repr(cert) and repr(cert).startswith(f"{cert.kind}(")
        with pytest.raises(TypeError):
            replace(cert, kind=cert.kind)


def test_a_record_refuses_the_other_kinds_fields():
    rep, abelian = fig8_certificate(), triangle_certificate(3, 3, 3)[0]
    for name in ("field", "rep_gens", "rep_images", "witness", "surjection"):
        with pytest.raises(TypeError):
            NonCyclicAbelian(**_init_args(abelian), **{name: getattr(rep, name)})
    for name in ("target", "abelian_images"):
        with pytest.raises(TypeError):
            NonAbelianRep(**_init_args(rep), **{name: getattr(abelian, name)})


def test_replace_never_returns_the_stored_text():
    cert = fig8_certificate()
    text = serialize(cert)
    same = replace(cert)
    assert same._text is None and serialize(same) == text and serialize(same) is not text
    w1, w2 = cert.witness
    swapped = replace(cert, witness=(w2, w1))
    assert swapped._text is None
    assert serialize(swapped) != text
    assert serialize(swapped) == serialize(replace(fig8_certificate(), witness=(w2, w1)))


def test_parse_never_sets_the_stored_text():
    text = fixture_text("fig8.cert")
    parsed = parse(text)
    assert parsed._text is None
    assert serialize(parsed) == text and parsed._text == text
    built, _ = triangle_certificate(2, 3, 7)
    reparsed = parse(serialize(built))
    assert reparsed._text is None
    assert serialize(reparsed) == serialize(built) and serialize(reparsed) is not built._text


def test_direct_construction_keeps_every_check():
    cert = fig8_certificate()
    labels = cert.presentation.labels
    with pytest.raises(CertificateSyntaxError, match="relator word is not freely reduced"):
        replace(cert, presentation=GroupPresentation(2, (Word(((0, 1), (0, -1))),), labels))
    with pytest.raises(CertificateSyntaxError, match="witness word uses unknown generator"):
        replace(cert, witness=(Word(((2, 1),)), cert.witness[1]))
    with pytest.raises(CertificateSyntaxError, match="matrix over the wrong field"):
        replace(cert, rep_images=(ProjMatrix.identity(FieldSpec(7)), cert.rep_images[1]))
    with pytest.raises(ValueError, match="determinant"):
        ProjMatrix.from_reduced(FieldSpec(5), (1, 0, 0, 0, 0, 0, 2, 0))
    with pytest.raises(ValueError, match="relator references unknown generator"):
        GroupPresentation(2, (Word(((2, 1),)),), labels)
    with pytest.raises(ValueError, match="exponent"):
        Word(((0, 2),))


def _empty_words_certificate() -> Certificate:
    cert = parse(SURJ_CERT)
    empty = Word(())
    return replace(
        cert,
        presentation=GroupPresentation(4, (empty,), cert.presentation.labels),
        surjection=(empty,) + cert.surjection[1:],
    )


def test_empty_words_round_trip():
    """An empty relator or surjection word serializes to an empty field,
    and the parser reads it back."""
    edited = _empty_words_certificate()
    text = serialize(edited)
    assert "\n\n" in text and "gen x0 -> \n" in text
    assert parse(text) == edited
    assert serialize(parse(text)) == text


EMITTED_TEXTS = [
    fixture_text("fig8.cert"),
    DEG1_CERT,
    Z7_CERT,
    SURJ_CERT,
    serialize(triangle_certificate(3, 4, 5)[0]),
    serialize(pipeline(load_fixture("prism_q8.tri"), (2, 2, 2))[0]),
    serialize(_empty_words_certificate()),
]


@pytest.mark.parametrize(
    "text",
    EMITTED_TEXTS + [LABELLED_CERT],
    ids=[f"text{i}" for i in range(len(EMITTED_TEXTS) + 1)],
)
def test_gens_line_without_its_labels_exits_two(text, tmp_path):
    assert verify(parse(text)).cert_bits == 8 * len(text.encode())
    gens = next(line for line in text.split("\n") if line.startswith("gens "))
    unlabelled = text.replace(gens + "\n", " ".join(gens.split(" ")[:2]) + "\n", 1)
    assert unlabelled != text
    with pytest.raises(CertificateSyntaxError, match="label count"):
        parse(unlabelled)
    path = tmp_path / "unlabelled.cert"
    path.write_text(unlabelled, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2


@settings(max_examples=300)
@given(st.sampled_from(EMITTED_TEXTS), st.data())
def test_spelling_edits_round_trip_or_are_syntax_errors(text, data):
    """One edit anywhere in an emitted certificate gives text that either
    parses and serializes back to itself or is a syntax error.  An edit
    deletes a character (a newline too), inserts a space, tab, 0, +, -, _,
    # or newline at any place, line ends included, or inserts a blank,
    padded or comment line."""
    assert serialize(parse(text)) == text
    edit = data.draw(st.sampled_from(["delete", "insert", "line"]))
    if edit == "delete":
        i = data.draw(st.integers(0, len(text) - 1))
        mutated = text[:i] + text[i + 1:]
    elif edit == "insert":
        i = data.draw(st.integers(0, len(text)))
        mutated = text[:i] + data.draw(st.sampled_from(" \t0+-_#\n")) + text[i:]
    else:
        i = data.draw(st.sampled_from([0] + [k + 1 for k, ch in enumerate(text) if ch == "\n"]))
        mutated = text[:i] + data.draw(st.sampled_from(["\n", " \n", "#\n", "# note\n"])) + text[i:]
    try:
        cert = parse(mutated)
    except CertificateSyntaxError:
        return
    assert serialize(cert) == mutated
    assert verify(cert).cert_bits == 8 * len(mutated.encode())


def _edit_lines(text: str, edit) -> str:
    lines = text.split("\n")[:-1]
    return "\n".join(edit(lines)) + "\n"


# (certificate, edit of its list of lines): each leaves every token as
# serialize writes it, and the reader once skipped or stripped the change
LINE_LEVEL_EDITS = [
    pytest.param("fig8", lambda lines: lines[:2] + [""] + lines[2:], id="blank-line"),
    pytest.param("fig8", lambda lines: lines + [""], id="trailing-blank-line"),
    pytest.param("fig8", lambda lines: ["# comment"] + lines, id="leading-comment"),
    pytest.param("fig8", lambda lines: lines[:5] + ["# the field"] + lines[5:], id="comment-line"),
    pytest.param("fig8", lambda lines: lines[:3] + ["   "] + lines[3:], id="spaces-line"),
    pytest.param("fig8", lambda lines: [" " + lines[0]] + lines[1:], id="leading-space"),
    pytest.param("fig8", lambda lines: lines[:-1] + [lines[-1] + " "], id="trailing-space"),
    pytest.param("fig8", lambda lines: lines[:5] + [lines[5] + "\t"] + lines[6:], id="trailing-tab"),
    pytest.param("z7", lambda lines: lines[:-1] + ["  " + lines[-1]], id="z7-leading-spaces"),
    pytest.param("surj", lambda lines: lines[:-1] + ["", lines[-1]], id="surj-blank-line"),
]


@pytest.mark.parametrize("name,edit", LINE_LEVEL_EDITS)
def test_line_level_edits_are_syntax_errors(name, edit, tmp_path, capsys):
    text = _edit_lines(spaced_text(name), edit)
    with pytest.raises(CertificateSyntaxError):
        parse(text)
    path = tmp_path / "edited.cert"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        fixture_text("fig8.cert").rstrip("\n"),
        fixture_text("fig8.cert").replace("\n", "\r\n"),
        serialize(_empty_words_certificate()).replace("gen x0 -> \n", "gen x0 ->\n"),
    ],
    ids=["no-final-newline", "crlf", "empty-surjection-word-unspaced"],
)
def test_line_ends_other_than_serialized_are_syntax_errors(text, tmp_path):
    with pytest.raises(CertificateSyntaxError):
        parse(text)
    path = tmp_path / "ends.cert"
    path.write_bytes(text.encode("utf-8"))
    assert cli_main(["verify", str(path)]) == 2


def test_abelian_images_must_be_reduced():
    with pytest.raises(CertificateSyntaxError, match=r"\(8,0\) is not reduced in Z/7 x Z/7"):
        parse(Z7_CERT.replace("gen x = (1,0)", "gen x = (8,0)"))
    reduced = parse(Z7_CERT.replace("gen x = (1,0)", "gen x = (6,0)"))
    assert reduced.abelian_images == ((6, 0), (0, 1))


# the free group on x and y onto Z/2 x Z/2, in seven lines
V4_CERT = (
    "lenscert v1\nkind NonCyclicAbelian\ngens 2 x y\nrels 0\n"
    "target Z/2 x Z/2\ngen x = (1,0)\ngen y = (0,1)\n"
)


def test_a_target_modulus_of_one_is_a_syntax_error(tmp_path):
    """Z/3 x Z/1 is refused by the grammar (exit 2), not read and then
    rejected by verify as a cyclic span (exit 1)."""
    assert verify(parse(V4_CERT)).accepted
    text = V4_CERT.replace("Z/2 x Z/2", "Z/3 x Z/1").replace("(0,1)", "(0,0)")
    with pytest.raises(CertificateSyntaxError, match=r"^abelian target moduli must exceed 1$"):
        parse(text)
    path = tmp_path / "z1.cert"
    path.write_text(text)
    assert cli_main(["verify", str(path)]) == 2


def test_an_image_equal_to_its_modulus_is_not_reduced():
    """(0,2) over Z/2 x Z/2 is refused, not reduced to (0,0): serialize
    would write a different text."""
    with pytest.raises(CertificateSyntaxError) as info:
        parse(V4_CERT.replace("(0,1)", "(0,2)"))
    assert str(info.value) == "line 7: abelian image (0,2) is not reduced in Z/2 x Z/2"


def test_a_missing_final_newline_names_the_last_line():
    with pytest.raises(CertificateSyntaxError) as info:
        parse(V4_CERT.rstrip("\n"))
    assert str(info.value) == "line 7: no newline at end of line"


# (certificate, replacement for its first matrix line, the error message
# the parser gave before matrix lines were read as ints, and still gives)
MALFORMED_MATRIX_LINES = [
    ("fig8", "gen a = [[1+0*w,0+0*w],[0+0*w,2+0*w]]", "line 7: matrix determinant is 2+0*w, not 1"),
    ("fig8", "gen a = [[7+0*w,0+0*w],[0+0*w,3+0*w]]", "line 7: coordinate 7 out of range for p=5"),
    ("fig8", "gen a = [[2+5*w,0+0*w],[0+0*w,3+0*w]]", "line 7: coordinate 5 out of range for p=5"),
    ("deg1", "gen x = [[0,1],[337,0]]", "line 9: coordinate 337 out of range for p=337"),
    ("deg1", "gen x = [[2,0],[0,2]]", "line 9: matrix determinant is 4, not 1"),
    (
        "deg1",
        "gen x = [[3+1*w,1],[336,0]]",
        "line 9: invalid literal for int() with base 10: '3+1*w'",
    ),
    ("deg1", "gen x = [[0,1],[336,1*w]]", "line 9: invalid literal for int() with base 10: '1*w'"),
    ("fig8", "gen a = [[2+0*v,0+0*w],[0+0*w,3+0*w]]", "line 7: bad degree-2 element syntax: '2+0*v'"),
    ("fig8", "gen a = [[2+0,0+0*w],[0+0*w,3+0*w]]", "line 7: bad degree-2 element syntax: '2+0'"),
    ("fig8", "gen a = [[2,0+0*w],[0+0*w,3+0*w]]", "line 7: bad degree-2 element syntax: '2'"),
    ("fig8", "gen a = [[2*w,0+0*w],[0+0*w,3+0*w]]", "line 7: bad degree-2 element syntax: '2*w'"),
    ("fig8", "gen a = [[2-0*w,0+0*w],[0+0*w,3+0*w]]", "line 7: bad degree-2 element syntax: '2-0*w'"),
    (
        "fig8",
        "gen a = [[2+0*w*w,0+0*w],[0+0*w,3+0*w]]",
        "line 7: invalid literal for int() with base 10: '0*w'",
    ),
    ("fig8", "gen a = [[+0*w,0+0*w],[0+0*w,3+0*w]]", "line 7: invalid literal for int() with base 10: ''"),
    ("fig8", "gen a = [[x+0*w,0+0*w],[0+0*w,3+0*w]]", "line 7: invalid literal for int() with base 10: 'x'"),
]


@pytest.mark.parametrize("name,new,message", MALFORMED_MATRIX_LINES)
def test_malformed_matrix_line_errors_are_unchanged(name, new, message):
    old = FIG8_A if name == "fig8" else DEG1_X
    with pytest.raises(CertificateSyntaxError) as info:
        parse(certificate_text(name).replace(old, new, 1))
    assert str(info.value) == message


# ----------------------------------------------------------------------
# verification: representation path


def test_fig8_verifies_with_ten_multiplications():
    report = verify(fig8_certificate())
    assert report.accepted
    assert report.relator_mat_mults == 10
    assert report.matrix_bits == (16, 16)


def test_fig8_image_is_d10():
    cert = fig8_certificate()
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
    assert len(seen) == 10


def test_fig8_entry_increment_rejected():
    # bumping the leading entry of the first matrix breaks the determinant
    text = fixture_text("fig8.cert").replace(
        "gen a = [[2+0*w,0+0*w],[0+0*w,3+0*w]]",
        "gen a = [[3+0*w,0+0*w],[0+0*w,3+0*w]]",
    )
    with pytest.raises(CertificateSyntaxError, match="determinant"):
        parse(text)


def test_failing_relator_rejected():
    labels = ("x",)
    spec = FieldSpec(5)
    m = ProjMatrix(spec.element(1), spec.element(1), spec.zero(), spec.element(1))
    cert = NonAbelianRep(
        presentation=GroupPresentation(1, (Word(((0, 1), (0, 1))),), labels),
        field=spec,
        rep_gens=labels,
        rep_images=(m,),
        witness=(Word(((0, 1),)), Word()),
    )
    report = verify(cert)
    assert not report.accepted
    assert "relator" in report.reason


def test_trivial_image_rejected():
    labels = ("x",)
    spec = FieldSpec(5)
    cert = NonAbelianRep(
        presentation=GroupPresentation(1, (), labels),
        field=spec,
        rep_gens=labels,
        rep_images=(ProjMatrix.identity(spec),),
        witness=(Word(((0, 1),)), Word()),
    )
    report = verify(cert)
    assert not report.accepted
    # a trivial image gives every word the same image
    assert report.reason == "witness words have equal images"


@pytest.mark.parametrize("spec", [FieldSpec(5), quadratic_extension(FieldSpec(3))])
def test_all_identity_images_rejected_with_their_charge(spec):
    # no generator check is made or charged: the witness words, whose
    # images agree, reject it after the relators, at one fold each
    labels = ("x", "y")
    relators = (parse_word("x y x^-1 y^-1", labels), parse_word("x x x", labels))
    identity = ProjMatrix.identity(spec)
    cert = NonAbelianRep(
        presentation=GroupPresentation(2, relators, labels),
        field=spec,
        rep_gens=labels,
        rep_images=(identity, identity),
        witness=(parse_word("x y", labels), parse_word("y x", labels)),
    )
    for report in (verify(cert), verify(parse(serialize(cert)))):
        assert not report.accepted
        assert report.reason == "witness words have equal images"
        assert report.relator_mat_mults == 7
        assert (report.mat_mults, report.field_ops) == (7 + 4, 12 * 7 + 2 * 2 + 12 * 4)


# Z/5 = <x | x^5> is a lens space group; x and x x have distinct images
# under x -> [[1,1],[0,1]], but they are not a rotation pair uv, vu.
Z5_CERT = """lenscert v1
kind NonAbelianRep
gens 1 x
rels 1
x x x x x
field p=5 deg=1
gen x = [[1,1],[0,1]]
witness x | x x
"""


@pytest.mark.parametrize("s", [None, 2], ids=["deg=1", "deg=2 s=2"])
def test_toy_certificate_verifies_beyond_the_primality_range(s, tmp_path):
    # no primality test is deterministic from psi_13 up, and parse makes
    # none: the toy certificate verifies over 2^127 - 1 and 2^2203 - 1
    path = tmp_path / "toy.cert"
    for p in MERSENNE_PRIMES:
        text = toy_certificate_text(p, s)
        cert = parse(text)
        assert serialize(cert) == text
        report = verify(cert)
        assert report.accepted
        assert report.matrix_bits == (4 * (1 if s is None else 2) * p.bit_length(),) * 2
        path.write_text(text, encoding="utf-8")
        assert cli_main(["verify", str(path)]) == 0


# what parse does with each numeric field at psl.MAX_DIGITS digits: the
# error a value of that size meets after it is read, or None when the
# certificate verifies
READ_AT_THE_BOUND = {
    "gens count": "line 3: label count does not match generator count",
    "rels count": "line 5: unknown generator 'field' in word",
    "field p": None,
    "field deg": "line 5: only degree 1 and 2 fields are supported",
    "field s": None,
    "deg-1 coordinate": None,
    "deg-2 coordinate": None,
    "target modulus": None,
    "abelian image": None,
}
# the line parse names for the field at one digit more, and its error
OVER_THE_BOUND = {
    "gens count": (3, "bad generator count"),
    "rels count": (4, "bad relator count"),
    "field p": (5, None),
    "field deg": (5, None),
    "field s": (5, None),
    "deg-1 coordinate": (7, None),
    "deg-2 coordinate": (7, None),
    "target modulus": (5, None),
    "abelian image": (6, None),
}


def _parse_outcome(text: str):
    """The exception's class and message, or the text serialize writes
    and the report verify gives."""
    try:
        cert = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return serialize(cert), verify(cert)


@pytest.mark.parametrize("field", sorted(READ_AT_THE_BOUND))
def test_numbers_are_bounded_by_the_grammar_not_by_int(field):
    """A number of 4300 digits is read and one of 4301 is a syntax error
    that names its line, whatever int()'s digit limit: the outcomes are
    equal under the limits 0 (none), 4300 and 10^6."""
    read, over = (numeric_field_texts(digits)[field] for digits in (4300, 4301))
    default = sys.get_int_max_str_digits()
    outcomes = []
    try:
        for limit in (0, 4300, 10**6):
            sys.set_int_max_str_digits(limit)
            outcomes.append((_parse_outcome(read), _parse_outcome(over)))
    finally:
        sys.set_int_max_str_digits(default)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    read_outcome, over_outcome = outcomes[0]
    if READ_AT_THE_BOUND[field] is None:
        assert read_outcome[0] == read and read_outcome[1].accepted
    else:
        assert read_outcome == (CertificateSyntaxError, READ_AT_THE_BOUND[field])
    line, reason = OVER_THE_BOUND[field]
    reason = reason or "number has 4301 digits, more than 4300"
    assert over_outcome == (CertificateSyntaxError, f"line {line}: {reason}")


def test_cyclic_group_certificate_rejected():
    report = verify(parse(Z5_CERT))
    assert not report.accepted
    assert "witness" in report.reason


def test_witness_must_be_a_cyclic_rotation():
    from dataclasses import replace

    cert = fig8_certificate()
    a, b = (0, 1), (1, 1)
    # a b | b a and (a b) b | b (a b) are rotations with distinct images
    for w1, w2 in (((a, b), (b, a)), ((a, b, b), (b, a, b))):
        assert verify(replace(cert, witness=(Word(w1), Word(w2)))).accepted
    # distinct images, but not a rotation pair
    for w1, w2 in (((a, b), (b,)), ((a, b, b), (b, a, a))):
        report = verify(replace(cert, witness=(Word(w1), Word(w2))))
        assert not report.accepted
        assert "witness" in report.reason and "rotation" in report.reason


def _det_one_matrix(spec, a, b, c, d):
    """[[a,b],[c,d]] with d (or c, when a = 0) adjusted to make det = 1."""
    p = spec.p
    if a % p:
        d = (1 + b * c) * pow(a, -1, p) % p
    else:
        b = b % p or 1
        c = -pow(b, -1, p) % p
    return ProjMatrix(spec.element(a % p), spec.element(b % p), spec.element(c), spec.element(d))


@settings(max_examples=200)
@given(st.data())
def test_one_generator_rep_certificate_never_accepted(data):
    """Over one generator every image is abelian, so no witness can pass."""
    spec = FieldSpec(data.draw(st.sampled_from((3, 5, 7, 11, 13))))
    entries = st.integers(0, spec.p - 1)
    n_mats = data.draw(st.integers(1, 2))
    mats = tuple(
        _det_one_matrix(spec, *(data.draw(entries) for _ in range(4))) for _ in range(n_mats)
    )
    x = Word(((0, 1),))
    powers = st.integers(-6, 6).map(lambda n: word_power(x, n))
    relators = tuple(data.draw(st.lists(powers.filter(len), max_size=3)))
    surjection = None
    rep_gens = ("x",)
    if n_mats == 2:
        rep_gens = ("u", "v")
        letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
        surjection = (reduced_word(Word(tuple(data.draw(st.lists(letters, max_size=5))))),)
    cert = NonAbelianRep(
        presentation=GroupPresentation(1, relators, ("x",)),
        field=spec,
        rep_gens=rep_gens,
        rep_images=mats,
        surjection=surjection,
        witness=(data.draw(powers), data.draw(powers)),
    )
    assert not verify(cert).accepted


@settings(max_examples=200)
@given(st.data())
def test_commuting_images_never_accepted(data):
    """If all generator images commute, u v and v u have equal images for
    every pair of words, so no rotation witness can pass."""
    spec = FieldSpec(data.draw(st.sampled_from((3, 5, 7, 11, 13))))
    g = data.draw(st.integers(2, 3))
    if data.draw(st.booleans()):
        entries = st.integers(0, spec.p - 1)
        base = _det_one_matrix(spec, *(data.draw(entries) for _ in range(4)))
        mats = tuple(base.power(data.draw(st.integers(0, 6))) for _ in range(g))
    else:
        units = st.integers(1, spec.p - 1)
        mats = tuple(
            ProjMatrix(spec.element(a), spec.zero(), spec.zero(), spec.element(pow(a, -1, spec.p)))
            for a in (data.draw(units) for _ in range(g))
        )
    # w = u v cyclically reduced, so both u v and v u are reduced words
    letters = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
    w = reduced_word(Word(tuple(data.draw(st.lists(letters, min_size=2, max_size=8)))))
    assume(len(w) >= 2 and w.letters[0] != (w.letters[-1][0], -w.letters[-1][1]))
    k = data.draw(st.integers(1, len(w) - 1))
    u, v = Word(w.letters[:k]), Word(w.letters[k:])
    labels = ("a", "b", "c")[:g]
    cert = NonAbelianRep(
        presentation=GroupPresentation(g, (), labels),
        field=spec,
        rep_gens=labels,
        rep_images=mats,
        witness=(Word(u.letters + v.letters), Word(v.letters + u.letters)),
    )
    assert not verify(cert).accepted


def test_agreeing_witness_rejected():
    cert, _ = triangle_certificate(2, 3, 7)
    from dataclasses import replace

    bad = replace(cert, witness=(Word(((0, 1),)), Word(((0, 1),))))
    report = verify(bad)
    assert not report.accepted
    assert "witness" in report.reason


def test_relator_cost_is_sum_of_lengths():
    cert, _ = triangle_certificate(2, 3, 7)
    report = verify(cert)
    assert report.relator_mat_mults == sum(len(w) for w in cert.presentation.relators)


def test_a_triple_past_the_search_ceiling_is_refused_before_its_relators(monkeypatch):
    # (2,3,29) has ell = 348, whose least prime 349 is past a ceiling of 300;
    # the cache is cleared so that no earlier build of ell 348 answers
    def spell_out(t):
        raise AssertionError(f"the relators of {t.triple} were spelled out")

    monkeypatch.setattr(certificate, "triangle_presentation", spell_out)
    monkeypatch.setattr(galois, "SEARCH_CEILING", 300)
    trianglerep._cyclotomic_field.cache_clear()
    with pytest.raises(SearchLimitExceeded, match=r"\(mod 348\) found below ceiling 300"):
        triangle_certificate(2, 3, 29)


# ----------------------------------------------------------------------
# verification: abelian path


def test_333_certificate_accepted():
    cert, info = triangle_certificate(3, 3, 3)
    assert cert.kind == NON_CYCLIC
    assert cert.target == (3, 3)
    assert verify(cert).accepted


def test_abelian_relator_violation_rejected():
    pres = GroupPresentation(1, (Word(((0, 1),)),), ("x",))
    cert = NonCyclicAbelian(
        presentation=pres,
        target=(2, 2),
        abelian_images=((1, 0),),
    )
    report = verify(cert)
    assert not report.accepted
    assert "relator" in report.reason


def test_cyclic_image_rejected():
    pres = GroupPresentation(2, (), ("x", "y"))
    cert = NonCyclicAbelian(
        presentation=pres,
        target=(2, 4),
        abelian_images=((1, 2), (0, 0)),
    )
    report = verify(cert)
    assert not report.accepted
    assert "cyclic" in report.reason


@st.composite
def abelian_certificates(draw):
    """A NonCyclicAbelian certificate on up to 8 generators: targets of
    small moduli, reduced images, and relators that are random words or
    a word followed by its inverse's letters in random order, whose
    exponent sums all vanish (so some certificates are accepted), each
    freely reduced, which keeps its exponent sums."""
    g = draw(st.integers(1, 8))
    a = draw(st.integers(2, 6))
    b = draw(st.sampled_from([a, draw(st.integers(2, 6))]))
    letter = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
    relators = []
    for _ in range(draw(st.integers(0, 5))):
        letters = draw(st.lists(letter, min_size=1, max_size=8))
        if draw(st.booleans()):
            letters += draw(st.permutations([(gen, -exp) for gen, exp in letters]))
        word = reduced_word(Word(tuple(letters)))
        if word.letters:
            relators.append(word)
    images = tuple(
        (draw(st.integers(0, a - 1)), draw(st.integers(0, b - 1))) for _ in range(g)
    )
    return NonCyclicAbelian(
        presentation=GroupPresentation(g, tuple(relators)),
        target=(a, b),
        abelian_images=images,
    )


@settings(max_examples=300)
@given(abelian_certificates())
def test_abelian_path_matches_dense_oracle(cert):
    """Sums kept for the generators a relator touches give the report of
    the loop over all g sums: verdict, reason and charge."""
    assert verify(cert) == dense_abelian_report(cert)
    parsed = parse(serialize(cert))
    assert verify(parsed) == dense_abelian_report(parsed)


def test_abelian_verify_is_linear_in_the_relators():
    # 20000 generators and 40000 three-letter relators: the loop over all
    # g sums per relator took about 1.6 s at g = 4000 and grows as g^2
    g = 20000
    relators = []
    for i in range(g):
        j, k = (i + 1) % g, (i + 2) % g
        relators += [Word(((i, 1), (j, 1), (k, -1))), Word(((i, 1), (k, 1), (j, -1)))]
    cert = NonCyclicAbelian(
        presentation=GroupPresentation(g, tuple(relators)),
        target=(2, 2),
        abelian_images=((0, 0),) * g,
    )
    start = time.monotonic()
    report = verify(cert)
    assert time.monotonic() - start < 2.0
    assert report.reason == "generator images span a cyclic subgroup"
    assert report.field_ops == 4 * 3 * 2 * g


def test_target_moduli_must_exceed_one():
    pres = GroupPresentation(1, (), ("x",))
    with pytest.raises(CertificateSyntaxError):
        NonCyclicAbelian(
            presentation=pres, target=(1, 4), abelian_images=((0, 1),)
        )


@settings(max_examples=300)
@given(st.integers(2, 10**6), st.integers(2, 10**6), st.data())
def test_subgroup_invariants_match_snf_oracle(a, b, data):
    """Moduli up to 10^6, equal or not; up to 50 images, with zero,
    reduced and unreduced coordinates."""
    b = data.draw(st.sampled_from([a, b, b % 30 + 2]))

    def coordinate(m):
        return st.one_of(st.just(0), st.integers(0, m - 1), st.integers(-2 * m, 2 * m))

    images = data.draw(st.lists(st.tuples(coordinate(a), coordinate(b)), max_size=50))
    assert subgroup_invariants(a, b, tuple(images)) == snf_subgroup_invariants(a, b, images)


def test_subgroup_invariants_against_closure_oracle():
    rng = random.Random(20240812)

    def closure(a, b, gens):
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            u, v = frontier.pop()
            for gu, gv in gens:
                nxt = ((u + gu) % a, (v + gv) % b)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def is_cyclic_subgroup(a, b, elements):
        def order(el):
            u, v = el
            import math

            ou = a // math.gcd(u, a)
            ov = b // math.gcd(v, b)
            return ou * ov // math.gcd(ou, ov)

        return any(order(el) == len(elements) for el in elements)

    for _ in range(120):
        a = rng.randint(2, 12)
        b = rng.randint(2, 12)
        gens = tuple(
            (rng.randrange(a), rng.randrange(b)) for _ in range(rng.randint(1, 3))
        )
        s1, s2 = subgroup_invariants(a, b, gens)
        sub = closure(a, b, gens)
        assert s1 * s2 == len(sub)
        assert (s1 == 1) == is_cyclic_subgroup(a, b, sub)
        assert s2 % s1 == 0


# ----------------------------------------------------------------------
# surjection certificates


def synthetic_surjection_cert() -> Certificate:
    """T_{2,3,7} presented on letters (a, b, c) with c = ab, mapped through
    a surjection block onto the matrix generators x, y."""
    cert237, _ = triangle_certificate(2, 3, 7)
    labels = ("a", "b", "c")
    relators = (
        parse_word("a a", labels),
        parse_word("b b b", labels),
        parse_word("c c c c c c c", labels),
        parse_word("c b^-1 a^-1", labels),
    )
    pres = GroupPresentation(3, relators, labels)
    surjection = (
        parse_word("x", ("x", "y")),
        parse_word("y", ("x", "y")),
        parse_word("x y", ("x", "y")),
    )
    return NonAbelianRep(
        presentation=pres,
        field=cert237.field,
        rep_gens=("x", "y"),
        rep_images=cert237.rep_images,
        surjection=surjection,
        witness=(parse_word("a b", labels), parse_word("b a", labels)),
    )


def test_surjection_certificate_verifies():
    cert = synthetic_surjection_cert()
    report = verify(cert)
    assert report.accepted
    # the relators are folded over the generators' images, one multiply a
    # letter; the surjection words x, y, x y are folded once each
    assert report.relator_mat_mults == 2 + 3 + 7 + 3
    assert report.mat_mults == (1 + 1 + 2) + 15 + (2 + 2)


def test_surjection_certificate_roundtrip():
    cert = synthetic_surjection_cert()
    text = serialize(cert)
    assert "surjection" in text
    assert parse(text) == cert
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("token", ["x^+3", "y^0_2", "x^٣", "x^03", "x^", "x^--1"])
def test_surjection_file_exponent_is_a_canonical_decimal(token):
    # a surjection file spells its words as a certificate does: no
    # exponent but '^-1', canonical or not
    with pytest.raises(CertificateSyntaxError, match=re.escape(f"line 1: exponent in {token!r}")):
        parse_surjection(f"gen a -> {token}\ngen b -> y\n", ("a", "b"))


def test_surjection_must_cover_generators():
    with pytest.raises(CertificateSyntaxError, match="misses"):
        parse_surjection("gen a -> x\n", ("a", "b"))


def test_surjection_parser():
    words = parse_surjection(
        "# comment\nsurjection\ngen a -> x y^-1\ngen b -> y\n", ("a", "b")
    )
    assert words[0] == Word(((0, 1), (1, -1)))
    assert words[1] == Word(((1, 1),))


def test_broken_surjection_rejected_by_verifier():
    from dataclasses import replace

    cert = synthetic_surjection_cert()
    bad_surjection = (cert.surjection[0], cert.surjection[0], cert.surjection[2])
    bad = replace(cert, surjection=bad_surjection)
    assert not verify(bad).accepted


PRIME_FIELDS = tuple(FieldSpec(p) for p in (3, 5, 7, 11, 13))
ODD_COMPOSITES = tuple(n for n in range(9, 106, 2) if any(n % d == 0 for d in (3, 5, 7)))
# the rings Z/N and Z/N[w]/(w^2 - s), N odd and composite, 0 < s < N
RINGS = st.sampled_from(ODD_COMPOSITES).flatmap(
    lambda n: st.one_of(
        st.just(FieldSpec(n)), st.integers(1, n - 1).map(lambda s: FieldSpec(n, 2, s))
    )
)
SPECS = st.one_of(st.sampled_from(PRIME_FIELDS), RINGS)


@st.composite
def rep_certificates(draw, specs=SPECS):
    """A NonAbelianRep certificate over a spec drawn from specs (F_p,
    p <= 13, or a ring Z/N or Z/N[w]/(w^2 - s), N odd, composite and at
    most 105, by default) on g <= 3 presentation generators, with a
    surjection block onto one to three matrices in half the draws.  The
    surjection words are random, possibly empty, or in half of those one
    letter each, over a pair of images x, y that do not commute.  Each
    other matrix is the identity one time in five, and otherwise a
    product of four elementary matrices whose entries range over the
    whole ring.  The relators are random words and powers of short
    words, in half the draws only those that map to the identity, and
    the witness is a rotation of a random word or a second random word:
    so some certificates are accepted, some through a surjection, and
    each rejection occurs."""
    spec = draw(specs)
    one, zero = spec.one(), spec.zero()

    def element():
        b = draw(st.integers(0, spec.p - 1)) if spec.degree == 2 else 0
        return spec.element(draw(st.integers(0, spec.p - 1)), b)

    def upper(t):
        return ProjMatrix(one, t, zero, one)

    def lower(t):
        return ProjMatrix(one, zero, t, one)

    def matrix():
        if not draw(st.integers(0, 4)):
            return ProjMatrix.identity(spec)
        return upper(element()).mul(lower(element())).mul(upper(element())).mul(lower(element()))

    def word(g, max_size):
        if not g:
            return Word()
        letters = st.tuples(st.integers(0, g - 1), st.sampled_from((1, -1)))
        return reduced_word(Word(tuple(draw(st.lists(letters, max_size=max_size)))))

    images = None
    surjection_kind = draw(st.integers(0, 3))
    if surjection_kind == 3:
        # x = E(t) and y = L(u) commute up to sign iff t u = 0; conjugated
        # by one matrix, they still do not commute
        t, u = element(), element()
        if (t * u).is_zero():
            t = u = one
        conj = matrix()
        images = tuple(conj.mul(m).mul(conj.inverse()) for m in (upper(t), lower(u)))
        g = draw(st.integers(2, 3))
        rep_gens = ("x", "y")
        exps = st.sampled_from((1, -1))
        letters = [(0, draw(exps)), (1, draw(exps))]
        letters += [(draw(st.integers(0, 1)), draw(exps)) for _ in range(g - 2)]
        surjection = tuple(Word((letter,)) for letter in letters)
    elif surjection_kind == 2:
        g = draw(st.integers(0, 3))
        rep_gens = ("x", "y", "z")[: draw(st.integers(1, 3))]
        surjection = tuple(word(len(rep_gens), 4) for _ in range(g))
    else:
        g = draw(st.integers(1, 3))
        rep_gens, surjection = None, None
    labels = ("a", "b", "c")[:g]
    rep_gens = rep_gens or labels
    relators = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            relators.append(word(g, 8))
        else:
            relators.append(reduced_word(word_power(word(g, 2), draw(st.integers(1, 13)))))
    relators = [w for w in relators if w.letters]
    w1 = word(g, 6)
    if images and draw(st.booleans()):
        # a b | b a, whose images differ as a -> x^+-1 and b -> y^+-1
        w1, w2 = Word(((0, 1), (1, 1))), Word(((1, 1), (0, 1)))
    elif len(w1) >= 2 and draw(st.booleans()):
        k = draw(st.integers(1, len(w1) - 1))
        w2 = reduced_word(Word(w1.letters[k:] + w1.letters[:k]))
    else:
        w2 = word(g, 6)
    cert = NonAbelianRep(
        presentation=GroupPresentation(g, tuple(relators), labels),
        field=spec,
        rep_gens=rep_gens,
        rep_images=images or tuple(matrix() for _ in rep_gens),
        surjection=surjection,
        witness=(w1, w2),
    )
    if draw(st.booleans()):
        identity = (spec.one(), spec.zero(), spec.zero(), spec.one())
        trivial = tuple(
            w for w in relators if equal_up_to_sign(spliced_word_image(cert, w), identity)
        )
        cert = replace(cert, presentation=GroupPresentation(g, trivial, labels))
    return cert


# Toy certificates without a surjection over F_7, F_49 = F_7[w]/(w^2 - 3),
# Z/105 and Z/15[w]/(w^2 - 2): accepted, rejected at relator 0, and
# rejected by equal witness images.  Derandomized draws take their seed
# from the drawing function's source text, so the cells the tests below
# assert are each given one of these, lifted or not, as an example.
TOY_EXAMPLES = tuple(
    parse(text)
    for base in (
        toy_certificate_text(7),
        toy_certificate_text(7, s=3),
        toy_certificate_text(105),
        toy_certificate_text(15, s=2),
    )
    for text in (
        base,
        base.replace("rels 0\n", "rels 1\nx\n"),
        base.replace("witness x y | y x", "witness x y | x y"),
    )
)
# NonCyclicAbelian certificates onto Z/2 x Z/2 with a -> (1,0): rejected
# at relator 0 (a) and at relator 1 (a a, then a)
ABELIAN_EXAMPLES = tuple(
    NonCyclicAbelian(
        presentation=GroupPresentation(2, relators, ("a", "b")),
        target=(2, 2),
        abelian_images=((1, 0), (0, 1)),
    )
    for relators in ((Word(((0, 1),)),), (Word(((0, 1), (0, 1))), Word(((0, 1),))))
)


def lifted(cert: Certificate) -> Certificate:
    """cert with the same images read through a surjection of one-letter
    words."""
    g = cert.presentation.g
    words = tuple(Word(((i, 1),)) for i in range(g))
    return replace(cert, rep_gens=("x", "y", "z")[:g], surjection=words)


def test_verify_matches_the_spliced_surjection_oracle():
    """verify folds each surjection word once and makes no generator
    check; the oracle spells every letter out through the surjection and
    checks the generators.  The verdicts agree, and so do the reasons but
    for the generator check's, whose certificates the witness rejects.
    The charge is at most one multiply per letter of the relator,
    surjection and witness words, and exactly that on acceptance.  Over
    F_p and over rings of both degrees, some certificates are accepted
    through a surjection."""
    seen = set()
    accepted_through_surjection = set()

    @settings(max_examples=600, derandomize=True, database=None)
    @given(rep_certificates())
    def check(cert):
        accepted, reason = spliced_rep_verdict(cert)
        seen.add(reason)
        if reason == "every generator maps to the identity":
            reason = "witness words have equal images"
        report = verify(cert)
        assert (report.accepted, report.reason) == (accepted, reason)
        assert verify(parse(serialize(cert))) == report
        words = (*cert.presentation.relators, *(cert.surjection or ()), *cert.witness)
        letters = sum(len(w) for w in words)
        assert report.mat_mults <= letters
        assert report.mat_mults == letters or not report.accepted
        if report.accepted and cert.surjection is not None:
            accepted_through_surjection.add((is_prime(cert.field.p), cert.field.degree))

    # whatever the draws give, each reason asserted below has an example,
    # and so has acceptance through a surjection over F_7, Z/105 and
    # Z/15[w]/(w^2 - 2)
    toy = toy_certificate_text(7)
    identity = "[[1,0],[0,1]]"
    trivial = toy.replace("[[1,1],[0,1]]", identity).replace("[[1,0],[1,1]]", identity)
    not_rotations = toy.replace("witness x y | y x", "witness x | y")
    examples = [*TOY_EXAMPLES[:3], parse(trivial), parse(not_rotations)]
    examples += [lifted(cert) for cert in TOY_EXAMPLES[::3] if cert.field != FieldSpec(7, 2, 3)]
    for cert in examples:
        check = example(cert)(check)
    check()
    assert accepted_through_surjection == {(True, 1), (False, 1), (False, 2)}
    assert None in seen and "every generator maps to the identity" in seen
    assert any(reason and reason.startswith("relator") for reason in seen)
    assert {
        "witness words have equal images",
        "witness words are not cyclic rotations uv, vu of each other",
    } <= seen


def _oracle_charge(cert: Certificate) -> tuple[int, int, int]:
    """(relator_mat_mults, mat_mults, field_ops) that verify must report
    for a NonAbelianRep certificate: letter_by_letter_fold's counts over
    the words verify reads, found by folding them letter by letter.  The
    surjection words come first; the relators follow up to and including
    the first whose image is not the identity; both witness words follow
    only if every relator passes."""
    p, s = cert.field.p, cert.field.s or 0
    images = [m.coords for m in cert.rep_images]
    counts = [0, 0]

    def fold(word: Word) -> tuple:
        value, mat_mults, field_ops = letter_by_letter_fold(p, s, images, word.letters)
        counts[0] += mat_mults
        counts[1] += field_ops
        return value

    if cert.surjection is not None:
        images = [fold(w) for w in cert.surjection]
    relator_mults = 0
    for rel in cert.presentation.relators:
        relator_mults += len(rel)
        if fold(rel) != (1, 0, 0, 0, 0, 0, 1, 0):
            return relator_mults, counts[0], counts[1]
    for w in cert.witness:
        fold(w)
    return relator_mults, counts[0], counts[1]


def test_verify_charges_exactly_the_words_it_reads():
    """The report's letter-count charge equals letter_by_letter_fold's
    counts over the surjection words, the relators up to and including
    the first that fails and, once every relator passes, both witness
    words: over F_p and F_{p^2}, and over rings Z/N[w]/(w^2 - s) of both
    degrees, with and without a surjection, whether the certificate is
    accepted or rejected at a relator or by equal witness images.  A
    NonCyclicAbelian text rejected at relator k is charged 4 field ops
    per nonzero exponent sum of relators 0..k."""
    fields = PRIME_FIELDS[2:] + tuple(quadratic_extension(FieldSpec(p)) for p in (3, 5, 7))
    seen = set()

    @settings(max_examples=600, derandomize=True, database=None)
    @given(rep_certificates(st.one_of(st.sampled_from(fields), RINGS)), st.booleans(), st.booleans())
    def check_rep(cert, rotate_ab, lift):
        g = cert.presentation.g
        if rotate_ab and g >= 2:
            # the rotation pair a b | b a, accepted once a and b do not commute
            ab, ba = Word(((0, 1), (1, 1))), Word(((1, 1), (0, 1)))
            cert = replace(cert, witness=(ab, ba))
        if lift and cert.surjection is None:
            cert = lifted(cert)
        report = verify(parse(serialize(cert)))
        charge = (report.relator_mat_mults, report.mat_mults, report.field_ops)
        assert charge == _oracle_charge(cert)
        assert verify(cert) == report
        outcome = report.reason.split(" ")[0] if report.reason else "accepted"
        if report.reason == "witness words have equal images":
            outcome = "equal"
        seen.add((is_prime(cert.field.p), cert.field.degree, cert.surjection is not None, outcome))

    @settings(max_examples=300, derandomize=True, database=None)
    @given(abelian_certificates())
    def check_abelian(cert):
        report = verify(parse(serialize(cert)))
        if not report.reason or not report.reason.startswith("relator"):
            return
        k = int(report.reason.split(" ")[1])
        nonzero = 0
        for rel in cert.presentation.relators[: k + 1]:
            sums = collections.Counter()
            for gen, exp in rel.letters:
                sums[gen] += exp
            nonzero += sum(1 for x in sums.values() if x)
        assert (report.relator_mat_mults, report.mat_mults) == (0, 0)
        assert report.field_ops == 4 * nonzero
        seen.add(("abelian", k))

    # each cell asserted below has an explicit example, with and without a
    # surjection, whatever the draws give
    for cert in TOY_EXAMPLES:
        for lift in (False, True):
            check_rep = example(cert, False, lift)(check_rep)
    for cert in ABELIAN_EXAMPLES:
        check_abelian = example(cert)(check_abelian)
    check_rep()
    check_abelian()
    outcomes = ("accepted", "relator", "equal")
    for key in itertools.product((True,), (1, 2), (False, True), outcomes):
        assert key in seen, key
    # over the rings too, with and without a surjection
    for key in itertools.product((False,), (1, 2), (False, True), outcomes):
        assert key in seen, key
    assert ("abelian", 0) in seen and ("abelian", 1) in seen


# ----------------------------------------------------------------------
# step-1 certificates read off the seed core's Smith normal form


def _noncyclic(pres: GroupPresentation) -> Certificate:
    return noncyclic_certificate(pres, seed_core(pres))


def _check_fixture_step1(name):
    tri = load_fixture(name)
    cert = _noncyclic(fundamental_group(tri))
    assert cert.kind == NON_CYCLIC
    assert cert.target == (2, 2)
    assert verify(cert).accepted
    assert verify_bound(cert, tri).accepted


def test_noncyclic_certificate_t3():
    _check_fixture_step1("t3_torus.tri")  # free rank 3 reduced mod 2


def test_noncyclic_certificate_prism_q8():
    _check_fixture_step1("prism_q8.tri")  # H1 = (Z/2)^2


def test_noncyclic_certificate_rejects_cyclic():
    tri = load_fixture("lens_5_2.tri")
    with pytest.raises(ValueError, match="cyclic"):
        _noncyclic(fundamental_group(tri))


def _check_target(powers, h1, target):
    """x_i^e for each (i, e) in powers, over as many generators as h1
    has factors: the certificate lands in target."""
    g = h1.free_rank + len(h1.torsion)
    pres = GroupPresentation(g, tuple(Word(((i, 1),) * e) for i, e in powers))
    core = seed_core(pres)
    assert core.h1() == h1
    cert = noncyclic_certificate(pres, core)
    assert cert.target == target
    assert verify(cert).accepted
    assert snf_subgroup_invariants(*target, cert.abelian_images) == target


def test_noncyclic_certificate_mixed_rank():
    _check_target([(0, 4)], AbelianGroup(1, (4,)), (4, 4))  # Z + Z/4
    _check_target([(2, 8)], AbelianGroup(2, (8,)), (2, 2))  # Z^2 + Z/8: n = 2


def test_noncyclic_certificate_takes_the_first_torsion_factor():
    # Z/4 + Z/12: n = 4, which divides 12, not (4, 12)
    _check_target([(0, 4), (1, 12)], AbelianGroup(0, (4, 12)), (4, 4))


def test_noncyclic_certificate_splits_the_modulus():
    # H1 = Z + Z/6 keeps n = 6, though x0^2 x1^3 has no unit entry mod 6
    # (the earlier eliminator split n to gcd(6, 2) = 2 there): the seed
    # core's V gives two functionals that kill it mod 6
    labels = ("x0", "x1", "x2")
    pres = GroupPresentation(
        3, (parse_word("x0 x0 x1 x1 x1", labels), parse_word("x2 x2 x2 x2 x2 x2", labels))
    )
    core = seed_core(pres)
    assert core.h1() == AbelianGroup(1, (6,))
    cert = noncyclic_certificate(pres, core)
    assert cert.target == (6, 6)
    assert verify(cert).accepted
    assert snf_subgroup_invariants(6, 6, cert.abelian_images) == (6, 6)


def test_noncyclic_certificate_splits_the_modulus_only_without_a_unit_pivot():
    # H1 = Z + Z/8 keeps n = 8: x1^4 has no unit entry mod 8, and n is
    # never split, whatever order the relators come in
    labels = ("x0", "x1", "x2")
    rels = (parse_word("x1 x1 x1 x1", labels), parse_word("x2 x2 x1", labels))
    for relators in (rels, rels[::-1]):
        pres = GroupPresentation(3, relators)
        core = seed_core(pres)
        assert core.h1() == AbelianGroup(1, (8,))
        cert = noncyclic_certificate(pres, core)
        assert cert.target == (8, 8)
        assert verify(cert).accepted
        assert snf_subgroup_invariants(8, 8, cert.abelian_images) == (8, 8)


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_noncyclic_certificate_on_random_presentations(rng):
    """Freely reduced random relators with a non-cyclic H1: the
    certificate verifies onto (n, n), n is the starting modulus, and the
    images generate all of (Z/n)^2."""
    drawn = random_presentation(rng)
    relators = tuple(w for w in map(reduced_word, drawn.relators) if w.letters)
    pres = GroupPresentation(drawn.g, relators)
    core = seed_core(pres)
    h1 = core.h1()
    assume(not is_cyclic(h1))
    start = 2 if h1.free_rank >= 2 else h1.torsion[0]
    cert = noncyclic_certificate(pres, core)
    n = cert.target[0]
    assert cert.target == (n, n) and n == start
    assert verify(cert).accepted
    assert snf_subgroup_invariants(n, n, cert.abelian_images) == (n, n)


@pytest.mark.parametrize("name, base", [("prism_q8.tri", (2, 2, 2)), ("t3_torus.tri", (2, 3, 7))])
def test_pipeline_step1_shares_one_closure_and_one_snf(name, base, monkeypatch):
    # H1 and the step-1 certificate read one closure and one Smith normal
    # form, which pipeline computes once; the presentation keeps nothing,
    # so every later seed_core call computes its own
    import lenscert.intlinalg as intlinalg

    calls = {"closure": 0, "snf": 0}
    closure, snf = intlinalg.closure, intlinalg.smith_normal_form

    def counted_closure(pres):
        calls["closure"] += 1
        return closure(pres)

    def counted_snf(a):
        calls["snf"] += 1
        return snf(a)

    monkeypatch.setattr(intlinalg, "closure", counted_closure)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted_snf)
    fields = {"g", "relators", "labels"}
    tri = load_fixture(name)
    cert, info = pipeline(tri, base)
    assert info["step"] == 1 and calls == {"closure": 1, "snf": 1}
    assert verify_bound(cert, tri).accepted
    assert vars(cert.presentation).keys() == fields
    pres = fundamental_group(tri)
    assert noncyclic_certificate(pres, seed_core(pres)) == cert
    assert calls == {"closure": 2, "snf": 2}
    assert abelianization(pres) == seed_core(pres).h1()
    assert vars(pres).keys() == fields
    assert calls == {"closure": 4, "snf": 4}


def test_noncyclic_certificate_at_t_160():
    # step 1 on a 160-tetrahedron prism manifold, H1 = (Z/2)^2: about
    # 7 ms on a 2-vCPU x86 VM, so cubic work overruns the bound
    tri = prism_manifold(160)
    pres = fundamental_group(tri)
    core = seed_core(pres)
    start = time.perf_counter()
    cert = noncyclic_certificate(pres, core)
    assert time.perf_counter() - start < 0.2
    assert cert.target == (2, 2)
    assert verify_bound(cert, tri).accepted
    other = verify_bound(cert, prism_manifold(158))
    assert not other.accepted
    assert other.reason == "presentation is not the triangulation's fundamental group"


def test_noncyclic_certificate_at_t_10000():
    # H1 = (Z/2)^2: about 0.2 s on a 2-vCPU x86 VM, where eager
    # Gauss-Jordan back-elimination of every pivot took 13 s
    tri = prism_manifold(10000)
    pres = fundamental_group(tri)
    core = seed_core(pres)
    start = time.perf_counter()
    cert = noncyclic_certificate(pres, core)
    assert time.perf_counter() - start < 2.0
    assert cert.target == (2, 2)
    assert verify_bound(cert, tri).accepted


def test_pipeline_refuses_a_large_prism_manifold_without_surjection():
    # odd m: H1 = Z/4 is cyclic, so step 1 does not apply
    with pytest.raises(PipelineError, match=r"H1 = Z\^0 \+ Z/4 is cyclic"):
        pipeline(prism_manifold(161), (2, 2, 161))


# ----------------------------------------------------------------------
# pipeline


def test_pipeline_step1_noncyclic():
    tri = load_fixture("prism_q8.tri")
    cert, info = pipeline(tri, (2, 2, 2))
    assert info["step"] == 1
    assert cert.kind == NON_CYCLIC
    assert verify(cert).accepted
    assert info["h1"] == "Z^0 + Z/2 + Z/2"


def test_pipeline_step1_t3():
    cert, info = pipeline(load_fixture("t3_torus.tri"), (2, 3, 7))
    assert info["step"] == 1
    assert cert.kind == NON_CYCLIC


def test_pipeline_step2_abelian_base():
    # the (Z/2)^2 image of (2,4,4) is the triangle group's own claim; a
    # lens space gets no certificate from it, with or without a surjection
    cert, _ = triangle_certificate(2, 4, 4)
    assert (cert.kind, cert.target) == (NON_CYCLIC, (2, 2))
    tri = load_fixture("lens_5_2.tri")
    with pytest.raises(PipelineError, match=r"H1 = Z\^0 \+ Z/5 is cyclic"):
        pipeline(tri, (2, 4, 4))
    g = tri.t + 1
    surjection = "".join(f"gen x{k} -> x\n" for k in range(g))
    with pytest.raises(PipelineError, match="cannot carry the abelian image"):
        pipeline(tri, (2, 4, 4), surjection_text=surjection)


def test_pipeline_step2_error_precedence(monkeypatch):
    # the base's image error, then the surjection file's, then the d > 1 refusal
    tri = load_fixture("lens_5_2.tri")
    malformed = "gen x0 -> z\n"
    with pytest.raises(CertificateSyntaxError, match="^line 1: "):
        pipeline(tri, (2, 2, 4), surjection_text=malformed)
    monkeypatch.setattr(galois, "SEARCH_CEILING", 300)
    trianglerep._cyclotomic_field.cache_clear()
    with pytest.raises(SearchLimitExceeded, match="below ceiling 300"):
        pipeline(tri, (2, 3, 29), surjection_text=malformed)


def test_pipeline_with_surjection():
    tri = load_fixture("prism_q12.tri")
    surj = fixture_text("prism_q12.surj")
    cert, info = pipeline(tri, (2, 2, 3), surjection_text=surj)
    assert info["step"] == 2
    assert cert.kind == NON_ABELIAN
    assert "level" not in info
    assert cert.surjection is not None
    assert cert.presentation.g == tri.t + 1
    report = verify(cert)
    assert report.accepted
    text = serialize(cert)
    assert parse(text) == cert


def test_pipeline_surjection_must_carry_nonabelian_image():
    # constant surjection kills relators but gives an abelian image
    tri = load_fixture("lens_5_2.tri")
    from lenscert.presentation import fundamental_group

    g = fundamental_group(tri).g
    lines = "\n".join(f"gen x{k} -> " for k in range(g))
    with pytest.raises((PipelineError, CertificateSyntaxError)):
        pipeline(tri, (2, 2, 3), surjection_text=lines)


def test_pipeline_rejects_nonorientable():
    with pytest.raises(PipelineError, match="non-orientable"):
        pipeline(load_fixture("s2xs1_twisted.tri"), (2, 3, 7))


def test_pipeline_triangulation_level_requires_surjection():
    # every certificate pipeline emits is about the triangulation, so a
    # cyclic H1 with no surjection is an error, not a downgrade
    with pytest.raises(PipelineError, match="needs a surjection file"):
        pipeline(load_fixture("lens_7_2.tri"), (2, 3, 7))
    tri = load_fixture("prism_q12.tri")
    cert, _ = pipeline(tri, (2, 2, 3), surjection_text=fixture_text("prism_q12.surj"))
    assert cert.surjection is not None
    assert verify_bound(cert, tri).accepted


def test_pipeline_rejects_invalid():
    with pytest.raises(PipelineError, match="closed"):
        pipeline(load_fixture("badlink_torus.tri"), (2, 3, 7))


def test_pipeline_has_no_orbifold_level_option():
    with pytest.raises(TypeError, match="level"):
        pipeline(load_fixture("lens_7_2.tri"), (2, 3, 7), level="orbifold")
    with pytest.raises(TypeError, match="level"):
        replace(parse(fixture_text("fig8.cert")), level="orbifold")


def test_pipeline_builds_and_verifies_once(monkeypatch):
    import lenscert.certificate as certmod

    counts = {"build": 0, "verify": 0}
    build, check = certmod.triangle_image, certmod.verify

    def counted_build(*args):
        counts["build"] += 1
        return build(*args)

    def counted_verify(cert):
        counts["verify"] += 1
        return check(cert)

    def spell_out(t):
        raise AssertionError(f"the relators of {t.triple} were spelled out")

    monkeypatch.setattr(certmod, "triangle_image", counted_build)
    monkeypatch.setattr(certmod, "verify", counted_verify)
    monkeypatch.setattr(certmod, "triangle_presentation", spell_out)
    # no surjection: refused before the triangle group's image is built
    with pytest.raises(PipelineError, match="needs a surjection file"):
        pipeline(load_fixture("lens_7_2.tri"), (2, 3, 7))
    assert counts == {"build": 0, "verify": 0}
    surjection = fixture_text("prism_q12.surj")
    cert, info = pipeline(load_fixture("prism_q12.tri"), (2, 2, 3), surjection)
    assert cert.field.p == 3
    assert counts == {"build": 1, "verify": 1}
    # the bytes pipeline wrote when it built the triangle group's own
    # certificate first and kept its matrices
    digest = hashlib.sha256(serialize(cert).encode()).hexdigest()
    assert digest == "5d74aab005832890c4c09688cf0a3e79a2d9c341030c6edfc648790d38a82092"


def test_level_other_than_orbifold_is_a_syntax_error():
    # a certificate has no level line: `level orbifold`, the line pipeline
    # once wrote for a triangle group's own claim, is refused where the
    # gens line belongs, as any other level line is, on both kinds
    for text in (fixture_text("fig8.cert"), DEG1_CERT, Z7_CERT):
        kind = text.splitlines()[1]
        for level in ("orbifold", "whatever junk"):
            marked = text.replace(f"{kind}\n", f"{kind}\nlevel {level}\n", 1)
            with pytest.raises(CertificateSyntaxError, match="^line 3: expected 'gens "):
                parse(marked)


# ----------------------------------------------------------------------
# cost accounting sanity


def test_costs_monotone_in_presentation_size():
    sizes = []
    for m in (3, 9, 27, 81):
        cert, _ = triangle_certificate(2, 2, m)
        pres = cert.presentation
        size = pres.g + sum(len(w) for w in pres.relators)
        sizes.append((size, verify(cert).relator_mat_mults))
    assert sizes == sorted(sizes)
    for size, cost in sizes:
        assert cost == size - 2  # total relator letters
