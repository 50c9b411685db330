"""Serialize, parse and verify "not a lens space" certificates: the checker.

Two kinds of witness exist, each a frozen dataclass deriving from
Certificate and named as the kind line names it: NonCyclicAbelian, a
surjection onto a non-cyclic abelian group Z/a x Z/b, and NonAbelianRep,
a non-abelian image in SL(2, R)/{+-I}, where the field line names
R = Z/p[w]/(w^2 - s) (psl.FieldSpec).  For any odd p >= 3 and
0 < s < p that is a group in which I != -I, which is all soundness needs:
so parse checks the line's shape, and R need not be a field.
Verification is polynomial with exact operation tallies; a malformed
file is an error while a well-formed but false certificate is a
rejection.  The text form is canonical: parse accepts exactly the texts
serialize writes, so serialize(parse(text)) == text for every text parse
accepts.  parse reads every line exactly as written, each ended by a
newline.  A blank, padded or comment line is not skipped but read as
the line it stands in for, so it is a syntax error there, and so is a
gens line without its labels.

Each invariant is checked once, where a certificate comes in:

- parse reads the text's lines by index, in one pass, and each error
  names its line: the code that reads a line, a number on it included,
  raises the error with that line's number, and a block the text ends
  inside names the line after the text's last.  It checks spelling and
  spacing, canonical decimals (psl.parse_decimal), every word token
  against the letter table of the names it is over
  (presentation.letter_table and read_word, the one word reader: a
  token is `label` or `label^-1`, so each letter is a known generator
  with exponent +-1) and free reduction, scanned for only in a word
  with a ^-1 token, reduced abelian images, and image and surjection
  lines in the order of the gens line.  The relator block is one loop
  over as many of its lines as the text has, so a relator count beyond
  the text costs no more than the text.  The gens line is read field
  by field: its count by psl.parse_decimal, and its labels, once the
  relators are read, by distinctness (GroupPresentation.from_checked)
  and then is_label.
  Each matrix line is accepted by one regex matched against the whole
  line, built from psl.DECIMAL_PATTERN and presentation.LABEL_PATTERN:
  so a matrix's coordinates go straight to ints, in range when their
  max is below p, with det 1 checked by ProjMatrix.from_reduced and the
  sign normalization serialize writes by one compare.  A matrix line
  the regex refuses goes to _diagnose_matrix, which runs the per-field
  checks (psl.parse_coords, is_label) only to name the error, and
  always raises.  Words are built by Word.from_checked, which trusts
  the letter table, and the record's _check_fields checks the rest
  once the text is read: target moduli above 1 and one image per
  generator, or at least one matrix, distinct matrix names, and matrix
  names equal to the labels when there is no surjection.  parse records
  the length of the text it read as text_bytes, which is its byte count:
  every line it accepts is an exact string or is made of `[0-9]` and
  psl.parse_decimal numbers and ASCII labels and letter-table tokens.
- The constructors check a certificate built in code: each record runs
  _check_fields and then checks every word, matrix name and image field
  as parse does; Word checks its letters and GroupPresentation its labels
  and relator generators.
- verify checks nothing again.  cert_bits is 8 * text_bytes, and only a
  certificate built in code is serialized to count its bytes.  serialize
  keeps the text it writes on the certificate (Certificate._text, a
  class attribute: not an init argument, not compared, not in repr), so
  a caller's serialize after verify reuses that text; dataclasses.replace
  and parse never carry it, so serialize(parse(text)) writes the text
  anew.  The images' coordinates and inverses are taken once per certificate
  (psl.letter_coords), and every word is one psl.fold_letters,
  which takes a word with a short period, such as x^n or (xy)^n, as a
  power by Cayley-Hamilton (psl._power_coords).  Without a surjection a
  generator's image is read from its coordinates; with one, each
  surjection word is folded once, into the image of its presentation
  generator (psl.coord_table).  The relators and the witness are then
  folded over the generators' images.
- verify reports the paper's cost model, which this module alone
  applies.  It charges each word it reads from the word itself, in the
  letter-count model: the letters a word spells out, not the products
  fold_letters performs (fewer, for a periodic word).  The words read
  are every surjection word, the relators up to and including the first
  that fails, and both witness words once verify reaches them.  A letter
  costs one matrix multiply and 12 field ops (8 multiplications and 4
  additions), and a ^-1 letter 2 more field ops for the inverse's
  negations: as exponents are +-1, a word w costs len(w) multiplies and
  13*len(w) - (its exponent sum) field ops.  relator_mat_mults counts
  the relators' letters alone.  The abelian path charges 4 field ops per
  nonzero exponent sum of each relator it reads, and no multiply.
  Nothing else is charged: not sign normalization, not the inverses
  letter_coords and coord_table take once, and not ProjMatrix.mul,
  inverse or power.  Each matrix is reported as bit_size_spec bits.
- verify_bound checks, before verify, that the certificate is about a
  given triangulation: a closed connected 3-manifold whose own
  fundamental group is the certificate's presentation.

This module is the trusted part of the package: it imports psl,
presentation and triangulation, and nothing else.  The producers in
certificate import it, never the reverse.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import ClassVar, NamedTuple, NoReturn, Optional, Sequence

from .presentation import (
    LABEL_PATTERN,
    GroupPresentation,
    Word,
    format_presentation,
    format_word,
    fundamental_group,
    is_label,
    letter_table,
    read_word,
)
from .psl import DECIMAL_GROUP, FieldSpec, parse_coords, parse_decimal
from .psl import _IDENTITY, ProjMatrix, coord_table, fold_letters, letter_coords
from .triangulation import DisconnectedError, Triangulation, validate

NON_ABELIAN = "NonAbelianRep"
NON_CYCLIC = "NonCyclicAbelian"

HEADER = "lenscert v1"


class CertificateSyntaxError(ValueError):
    """Malformed certificate text (distinct from a verification rejection)."""

class Certificate:
    """The base of the two certificate records, NonCyclicAbelian and NonAbelianRep."""

    # bytes of the canonical text, recorded by parse from the text it read;
    # None for a certificate built in code, whose verify serializes it
    text_bytes: ClassVar[Optional[int]] = None
    # the text serialize wrote for this certificate, kept so that verify's
    # byte count and a later serialize share one serialization; a class
    # attribute, not a field, so neither dataclasses.replace nor parse carries it
    _text: ClassVar[Optional[str]] = None


def _check_words(words: Sequence[Word], what: str, bound: Optional[int] = None) -> None:
    """The constructors' check of words built in code: each is freely
    reduced and, given a bound, over generators below it."""
    for w in words:
        if not w.is_reduced():
            raise CertificateSyntaxError(f"{what} word is not freely reduced")
        if bound is not None and w.max_generator() >= bound:
            raise CertificateSyntaxError(f"{what} word uses unknown generator")


@dataclass(frozen=True)
class NonCyclicAbelian(Certificate):
    """A surjection onto the non-cyclic abelian group Z/a x Z/b, by the
    generators' images."""

    kind: ClassVar[str] = NON_CYCLIC
    field: ClassVar[None] = None
    presentation: GroupPresentation
    target: tuple[int, int]
    abelian_images: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self._check_fields()
        _check_words(self.presentation.relators, "relator")
        a, b = self.target
        object.__setattr__(
            self, "abelian_images", tuple((u % a, v % b) for u, v in self.abelian_images)
        )

    def _check_fields(self) -> None:
        """The checks parse makes once the text is read: the target
        moduli, and one image per generator."""
        a, b = self.target
        if a <= 1 or b <= 1:
            raise CertificateSyntaxError("abelian target moduli must exceed 1")
        if len(self.abelian_images) != self.presentation.g:
            raise CertificateSyntaxError("need one abelian image per generator")


@dataclass(frozen=True)
class NonAbelianRep(Certificate):
    """A non-abelian image in PSL(2, R): the matrices of rep_gens, which
    are the presentation's labels or, with a surjection, the names its
    words are over, and a witness pair of words with distinct images."""

    kind: ClassVar[str] = NON_ABELIAN
    presentation: GroupPresentation
    field: FieldSpec
    rep_gens: tuple[str, ...]
    rep_images: tuple[ProjMatrix, ...]
    witness: tuple[Word, Word]  # words over the presentation's generators
    surjection: Optional[tuple[Word, ...]] = None  # one per presentation generator

    def __post_init__(self) -> None:
        self._check_fields()
        _check_words(self.presentation.relators, "relator")
        for m in self.rep_images:
            if m.spec != self.field:
                raise CertificateSyntaxError("matrix over the wrong field")
        # without a surjection the names are the presentation's labels
        if self.surjection is not None:
            for name in self.rep_gens:
                if not is_label(name):
                    raise CertificateSyntaxError(f"bad generator label {name!r}")
            _check_words(self.surjection, "surjection", len(self.rep_gens))
        _check_words(self.witness, "witness", self.presentation.g)

    def _check_fields(self) -> None:
        """The checks parse makes once the text is read: the matrix
        names against the matrices, each other and the presentation."""
        pres = self.presentation
        if len(self.rep_gens) != len(self.rep_images):
            raise CertificateSyntaxError("matrix count does not match matrix generators")
        if not self.rep_images:
            raise CertificateSyntaxError("representation certificate needs a matrix")
        if len(set(self.rep_gens)) != len(self.rep_gens):
            raise CertificateSyntaxError("duplicate matrix generator names")
        if self.surjection is None:
            if self.rep_gens != pres.labels:
                raise CertificateSyntaxError(
                    "without a surjection the matrices must be indexed by the "
                    "presentation generators"
                )
        elif len(self.surjection) != pres.g:
            raise CertificateSyntaxError("need one surjection word per generator")


def _parsed_certificate(record: type[Certificate], fields: dict) -> Certificate:
    """The record parse read, text_bytes included.  Its words, matrix
    names and images were checked line by line as they were read, so of
    the constructor's checks only _check_fields runs.  A field parse did
    not read keeps its class default.  The fields go into the instance
    dict one by one, not by dict.update, which would give every
    certificate its own copy of the keys instead of the class's shared
    ones."""
    cert = object.__new__(record)
    state = cert.__dict__
    for name, value in fields.items():
        state[name] = value
    cert._check_fields()
    return cert


def serialize(cert: Certificate) -> str:
    """The canonical text of cert, written once per certificate and kept
    on it: a certificate is immutable, so its text cannot go stale."""
    text = cert._text
    if text is None:
        text = _format_certificate(cert)
        object.__setattr__(cert, "_text", text)
    return text


def _format_certificate(cert: Certificate) -> str:
    lines = [HEADER, f"kind {cert.kind}"]
    lines.extend(format_presentation(cert.presentation))
    labels = cert.presentation.labels
    if isinstance(cert, NonCyclicAbelian):
        a, b = cert.target
        lines.append(f"target Z/{a} x Z/{b}")
        for lab, (u, v) in zip(labels, cert.abelian_images):
            lines.append(f"gen {lab} = ({u},{v})")
    else:
        spec = cert.field
        field_line = f"field p={spec.p} deg={spec.degree}"
        if spec.degree == 2:
            field_line += f" s={spec.s}"
        lines.append(field_line)
        for name, m in zip(cert.rep_gens, cert.rep_images):
            lines.append(f"gen {name} = {m}")
        if cert.surjection is not None:
            lines.append("surjection")
            for lab, w in zip(labels, cert.surjection):
                lines.append(f"gen {lab} -> {format_word(w, cert.rep_gens)}")
        w1, w2 = cert.witness
        lines.append(
            f"witness {format_word(w1, labels)} | {format_word(w2, labels)}"
        )
    return "\n".join(lines) + "\n"


# Tokens are separated by single spaces, as serialize writes them.  Each
# degree's matrix line is accepted by one regex, matched against the whole
# line (fullmatch), whose groups are canonical decimals (psl.DECIMAL_GROUP)
# and a label (presentation.LABEL_PATTERN); a line the regex refuses goes
# to _diagnose_matrix, which names the error and always raises.
_MATRIX_RES = {
    deg: re.compile(rf"gen ({LABEL_PATTERN}) = \[\[{e},{e}\],\[{e},{e}\]\]")
    for deg, e in ((1, DECIMAL_GROUP), (2, rf"{DECIMAL_GROUP}\+{DECIMAL_GROUP}\*w"))
}
# what the matrix block takes for a matrix line at all: the first line it
# does not take ends the block
_MATRIX_LINE_RE = re.compile(
    r"^gen (\w+) = \[\[([^\],]+),([^\],]+)\],\[([^\],]+),([^\],]+)\]\]$"
)
_ABELIAN_RE = re.compile(r"^gen (\w+) = \(([0-9]+),([0-9]+)\)$")
_TARGET_RE = re.compile(r"^target Z/([0-9]+) x Z/([0-9]+)$")
_FIELD_RE = re.compile(r"^field p=([0-9]+) deg=([0-9]+)(?: s=([0-9]+))?$")
# serialize writes an empty word as "gen <name> -> "
_SURJ_RE = re.compile(r"^gen (\w+) -> (.*)$")


def _error(n: int, message: str) -> CertificateSyntaxError:
    return CertificateSyntaxError(f"line {n}: {message}")


def _line(lines: list[str], n: int) -> str:
    """Line n of the text, counting from 1."""
    if n > len(lines):
        raise _error(n, "unexpected end of file")
    return lines[n - 1]


def _reduced_word(text: str, letters: dict[str, tuple[int, int]], n: int) -> Word:
    """The word that line n spells, read by presentation.read_word, which
    must be freely reduced.  letter_table maps only the tokens ending in
    '^-1' to a -1 exponent, so a text without a '^' spells no inverse
    letter, and its word is reduced without a scan."""
    try:
        word = read_word(text, letters)
    except ValueError as exc:
        raise _error(n, str(exc)) from None
    if "^" in text and not word.is_reduced():
        raise _error(n, f"word {text!r} is not freely reduced")
    return word


def _expect_name(n: int, name: str, label: str) -> None:
    if name != label:
        raise _error(
            n,
            f"expected generator {label!r}, not {name!r}: these lines follow the gens line's order",
        )


def parse(text: str) -> Certificate:
    lines = text.split("\n")
    if lines.pop():
        raise _error(len(lines) + 1, "no newline at end of line")
    if _line(lines, 1) != HEADER:
        raise _error(1, f"expected header {HEADER!r}")
    line = _line(lines, 2)
    if not line.startswith("kind "):
        raise _error(2, "expected 'kind <NonCyclicAbelian|NonAbelianRep>'")
    kind = line[5:]

    # the gens line: a bad count is named at once, a bad label only once
    # the relators are read, as a label error is named after any relator error
    line = _line(lines, 3)
    if not line.startswith("gens "):
        raise _error(3, "expected 'gens <g> <labels...>'")
    parts = line.split(" ")
    try:
        g = parse_decimal(parts[1])
    except ValueError:
        raise _error(3, "bad generator count") from None
    labels = tuple(parts[2:])
    if len(labels) != g:
        raise _error(3, "label count does not match generator count")
    letters = letter_table(labels)
    line = _line(lines, 4)
    if not line.startswith("rels "):
        raise _error(4, "expected 'rels <r>'")
    try:
        r = parse_decimal(line[5:])
    except ValueError:
        raise _error(4, "bad relator count") from None
    # one pass over the block's lines, as many as the text has: a block
    # the text ends inside is named after the errors of the lines it has
    relators = tuple([_reduced_word(w, letters, n) for n, w in enumerate(lines[4:4 + r], 5)])
    n = 4 + len(relators)  # the lines read
    if n < 4 + r:
        raise _error(n + 1, "unexpected end of file")
    try:
        pres = GroupPresentation.from_checked(g, relators, labels)
    except ValueError as exc:
        raise _error(n, str(exc)) from None
    for label in labels:
        if not is_label(label):
            raise _error(n, f"bad generator label {label!r}")

    if kind == NON_CYCLIC:
        record, (fields, n) = NonCyclicAbelian, _parse_abelian(lines, n, labels)
    elif kind == NON_ABELIAN:
        record, (fields, n) = NonAbelianRep, _parse_rep(lines, n, labels, letters)
    else:
        raise _error(n, f"unknown certificate kind {kind!r}")
    if n < len(lines):
        raise _error(n, f"unexpected trailing line {lines[n]!r}")
    fields.update(presentation=pres, text_bytes=len(text))
    return _parsed_certificate(record, fields)


def _parse_abelian(lines: list[str], n: int, labels: tuple[str, ...]) -> tuple[dict, int]:
    """The fields of the lines after line n, and the lines read."""
    n += 1
    m = _TARGET_RE.match(_line(lines, n))
    if not m:
        raise _error(n, "expected 'target Z/<a> x Z/<b>'")
    try:
        a, b = parse_decimal(m.group(1)), parse_decimal(m.group(2))
    except ValueError as exc:
        raise _error(n, str(exc)) from None
    images = []
    for label in labels:
        n += 1
        gm = _ABELIAN_RE.match(_line(lines, n))
        if not gm:
            raise _error(n, "expected 'gen <name> = (<u>,<v>)'")
        _expect_name(n, gm.group(1), label)
        try:
            u, v = parse_decimal(gm.group(2)), parse_decimal(gm.group(3))
        except ValueError as exc:
            raise _error(n, str(exc)) from None
        if u >= a or v >= b:
            raise _error(n, f"abelian image ({u},{v}) is not reduced in Z/{a} x Z/{b}")
        images.append((u, v))
    return {"target": (a, b), "abelian_images": tuple(images)}, n


def _unnormalized(n: int, matrix: ProjMatrix) -> CertificateSyntaxError:
    return _error(
        n,
        f"matrix is not sign-normalized: its first nonzero coordinate "
        f"exceeds {(matrix.spec.p - 1) // 2}; write it as {matrix}",
    )


def _diagnose_matrix(n: int, line: str, spec: FieldSpec) -> NoReturn:
    """Raise the error parse names for matrix line n when _MATRIX_LINE_RE
    takes it but the field's regex refuses it, or a coordinate is out of
    range.  The checks run in the order they name errors: each entry's
    syntax and range (psl.parse_coords), det 1, sign normalization, the
    label."""
    gm = _MATRIX_LINE_RE.match(line)
    try:
        a, b, c, d = (parse_coords(entry, spec) for entry in gm.group(2, 3, 4, 5))
        coords = (*a, *b, *c, *d)
        matrix = ProjMatrix.from_reduced(spec, coords)
    except ValueError as exc:
        raise _error(n, str(exc)) from None
    if matrix.coords != coords:
        raise _unnormalized(n, matrix)
    name = gm.group(1)
    if not is_label(name):
        raise _error(n, f"bad generator label {name!r}")
    raise AssertionError(f"matrix line {line!r} fails its regex but no check")


def _parse_rep(
    lines: list[str], n: int, labels: tuple[str, ...], letters: dict[str, tuple[int, int]]
) -> tuple[dict, int]:
    """The fields of the lines after line n, and the lines read."""
    n += 1
    m = _FIELD_RE.match(_line(lines, n))
    if not m:
        raise _error(n, "expected 'field p=<p> deg=<d> [s=<s>]'")
    try:
        p, deg = parse_decimal(m.group(1)), parse_decimal(m.group(2))
        s = parse_decimal(m.group(3)) if m.group(3) else None
        spec = FieldSpec(p, deg, s)
    except ValueError as exc:
        raise _error(n, str(exc)) from None

    # the matrix block: every line from the next on that _MATRIX_LINE_RE takes
    rep_gens: list[str] = []
    rep_images: list[ProjMatrix] = []
    matrix_re = _MATRIX_RES[deg]
    while n < len(lines):
        line = lines[n]
        gm = matrix_re.fullmatch(line)
        if gm is None and _MATRIX_LINE_RE.match(line) is None:
            break
        n += 1
        if gm is None:
            _diagnose_matrix(n, line, spec)
        if deg == 1:
            a, b, c, d = map(int, gm.group(2, 3, 4, 5))
            coords = (a, 0, b, 0, c, 0, d, 0)
        else:
            coords = tuple(map(int, gm.group(2, 3, 4, 5, 6, 7, 8, 9)))
        if max(coords) >= p:
            _diagnose_matrix(n, line, spec)
        try:
            matrix = ProjMatrix.from_reduced(spec, coords)
        except ValueError as exc:
            raise _error(n, str(exc)) from None
        if matrix.coords != coords:
            raise _unnormalized(n, matrix)
        rep_gens.append(gm.group(1))
        rep_images.append(matrix)
    if not rep_images:
        raise _error(n, "expected at least one 'gen <name> = [[..],[..]]' line")

    surjection = None
    if n < len(lines) and lines[n] == "surjection":
        n += 1
        rep_letters = letter_table(rep_gens)
        words = []
        for label in labels:
            n += 1
            sm = _SURJ_RE.match(_line(lines, n))
            if not sm:
                raise _error(n, "expected 'gen <name> -> <word>'")
            _expect_name(n, sm.group(1), label)
            words.append(_reduced_word(sm.group(2), rep_letters, n))
        surjection = tuple(words)

    n += 1
    line = _line(lines, n)
    if not line.startswith("witness "):
        raise _error(n, "expected 'witness <word1> | <word2>'")
    left, bar, right = line[len("witness "):].partition(" | ")
    if not bar:
        raise _error(n, "witness needs two words separated by ' | '")
    witness = (_reduced_word(left, letters, n), _reduced_word(right, letters, n))
    fields = {
        "field": spec,
        "rep_gens": tuple(rep_gens),
        "rep_images": tuple(rep_images),
        "surjection": surjection,
        "witness": witness,
    }
    return fields, n


class VerificationReport(NamedTuple):
    accepted: bool
    kind: str
    reason: Optional[str]
    relator_mat_mults: int
    mat_mults: int
    field_ops: int
    cert_bits: int
    matrix_bits: tuple[int, ...]


def subgroup_invariants(
    a: int, b: int, images: tuple[tuple[int, int], ...]
) -> tuple[int, int]:
    """Invariant factors (s1 | s2) of the subgroup H of Z/a x Z/b generated
    by the images.  The lattice L spanned by the images, (a,0) and (0,b)
    is kept as a Hermite basis (x, y), (0, z), one Euclid run per image;
    then |H| = ab / det L = ab / xz, s2 is the exponent of H (the lcm of
    the images' orders) and s1 = |H| / s2."""
    x, y, z = a, 0, b
    exponent = 1
    for u, v in images:
        u, v = u % a, v % b
        exponent = math.lcm(exponent, a // math.gcd(u, a), b // math.gcd(v, b))
        # Euclid on the first coordinates of (x, y) and (u, v), rows kept mod (0, z)
        while u:
            q = x // u
            x, y, u, v = u, v, x - q * u, (y - q * v) % z
        z = math.gcd(z, v)
        y %= z
    order = a * b // (x * z)
    return order // exponent, exponent


def bit_size_spec(spec: FieldSpec) -> int:
    """Bits to encode a matrix over spec: 4 * degree * ceil(log2(p-1))."""
    ceil_log = (spec.p - 2).bit_length()
    return 4 * spec.degree * ceil_log


def _letter_charge(words: Sequence[Word]) -> tuple[int, int]:
    """The letter-count charge (mat_mults, field_ops) of folding words:
    one C-level pass over their exponents."""
    letters = [w.letters for w in words]
    n = sum(map(len, letters))
    return n, 13 * n - sum(map(itemgetter(1), chain.from_iterable(letters)))


def _report(
    cert: Certificate,
    accepted: bool,
    reason: Optional[str],
    relator_mults: int = 0,
    mat_mults: int = 0,
    field_ops: int = 0,
) -> VerificationReport:
    """cert's verification report with the given tallies; only a
    certificate built in code is serialized to count its bytes."""
    text_bytes = cert.text_bytes
    if text_bytes is None:
        text_bytes = len(serialize(cert).encode())
    spec = cert.field
    return VerificationReport(
        accepted=accepted,
        kind=cert.kind,
        reason=reason,
        relator_mat_mults=relator_mults,
        mat_mults=mat_mults,
        field_ops=field_ops,
        cert_bits=8 * text_bytes,
        matrix_bits=(bit_size_spec(spec),) * len(cert.rep_images) if spec else (),
    )


def _is_rotation(w1: Word, w2: Word) -> bool:
    """True iff w1 = uv and w2 = vu as letter sequences, u and v non-empty.

    Each letter becomes a token that starts with the only ',' in it, so a
    match inside w1 w1 starts on a letter boundary; str.find keeps the
    test linear in the words' length.
    """
    if len(w1) != len(w2) or len(w1) < 2:
        return False
    s1, s2 = ("".join(f",{g}:{e}" for g, e in w.letters) for w in (w1, w2))
    return 0 < (s1 + s1).find(s2, 1) < len(s1)


def verify(cert: Certificate) -> VerificationReport:
    """Check a certificate; accept iff every check passes, and charge the
    words read as the module docstring states.

    Representation path: each surjection word, if present, is folded once
    into its presentation generator's image; every relator evaluates to
    the identity over the generators' images; and the witness is a pair
    w1 = uv, w2 = vu (a cyclic rotation) with distinct images, so the
    images of u and v do not commute and the image is non-abelian, which
    also makes some generator image non-trivial.
    Abelian path:
    relator exponent images vanish in Z/a x Z/b and the generator images
    span a non-cyclic subgroup.
    """
    pres = cert.presentation
    if isinstance(cert, NonAbelianRep):
        spec = cert.field
        table = letter_coords(cert.rep_images)
        surjection = cert.surjection or ()
        if cert.surjection is not None:
            # generator i's image is its surjection word, folded once
            table = coord_table(spec.p, [fold_letters(spec, table, w.letters) for w in surjection])
        relators, witness = pres.relators, cert.witness
        reason = None
        for k, rel in enumerate(relators):
            if fold_letters(spec, table, rel.letters) != _IDENTITY:
                reason = f"relator {k} does not map to the identity"
                relators, witness = relators[: k + 1], ()
                break
        else:
            w1, w2 = witness
            if fold_letters(spec, table, w1.letters) == fold_letters(spec, table, w2.letters):
                reason = "witness words have equal images"
            elif not _is_rotation(w1, w2):
                reason = "witness words are not cyclic rotations uv, vu of each other"
        mat_mults, field_ops = _letter_charge((*surjection, *relators, *witness))
        return _report(cert, reason is None, reason, sum(map(len, relators)), mat_mults, field_ops)

    # NonCyclicAbelian
    a, b = cert.target
    images_ab = cert.abelian_images
    field_ops = 0
    reason = None
    for k, rel in enumerate(pres.relators):
        # only the generators a relator touches get a sum, so the pass is
        # linear in the relator's letters, not in g; the presentation
        # holds its relators to generators below g
        sums = rel.nonzero_exponent_sums()
        field_ops += 4 * len(sums)
        u = v = 0
        for i, e in sums.items():
            u += e * images_ab[i][0]
            v += e * images_ab[i][1]
        if u % a or v % b:
            reason = f"relator {k} image is nonzero in the target"
            break
    else:
        s1, _s2 = subgroup_invariants(a, b, images_ab)
        if s1 <= 1:
            reason = "generator images span a cyclic subgroup"
    return _report(cert, reason is None, reason, field_ops=field_ops)


def verify_bound(cert: Certificate, tri: Triangulation) -> VerificationReport:
    """verify, bound to the triangulation the claim is about: accept iff
    tri is a closed connected 3-manifold, the certificate's presentation
    is fundamental_group(tri) (the labels, and each relator word in
    order), and verify accepts it.  A closed 3-manifold whose fundamental
    group is not cyclic is not a lens space, so orientability is not
    checked.  A rejection before verify reports
    no operations."""
    checked = validate(tri)
    if not checked.passed:
        failures = "; ".join(checked.failures)
        return _report(cert, False, f"triangulation is not a closed 3-manifold: {failures}")
    try:
        pres = fundamental_group(tri)
    except DisconnectedError:
        return _report(cert, False, "triangulation is not a closed 3-manifold: not connected")
    if cert.presentation != pres:
        return _report(cert, False, "presentation is not the triangulation's fundamental group")
    return verify(cert)
