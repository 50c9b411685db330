"""Closed 3-manifold triangulations given as tetrahedra with face pairings.

A triangulation is t tetrahedra and 2t face pairings.  Face f of a
tetrahedron is the face opposite vertex f, so a pairing is a permutation
of {0,1,2,3} carrying the three vertices of the source face onto the
target face and the source's opposite vertex onto the target's opposite
vertex.  Everything here is an immutable value; all operations are pure.
Permutation4, FacePairing and Triangulation are ``psl.Frozen`` values,
not dataclasses, so the module generates no code at import; the two
reports are NamedTuples.

The 24 permutations are interned at import with int tables (inverse,
parity, induced map on directed edges) and their text, so parsing and
the orbit pass do no per-gluing validation, and ``format_triangulation``
writes each line straight from the gluing table, the permutation's four
digits read from the interned text.  ``make_triangulation`` takes plain
gluing tuples (tet, face, tet2, face2, perm); ``parse_triangulation``
reads the lines after the header in one ``findall``, one match per
line.  Each names a bad gluing at once, and both hand the gluings to
one assembler, ``_assemble``, which writes each both ways into the face
slots, the first write standing, and then names a clash ("pairing not
an involution"), else a face glued to itself, else the first unpaired
face.

``Triangulation.orbit_walk`` computes the vertex, edge and directed-edge
orbits once per instance, in one walk around each directed-edge orbit:
the edge classes' roots are read off the walks, and the vertex classes
are the walks' tails, joined.  ``validate`` and ``presentation.fundamental_group``
share it; it is derived from the gluings alone, so the memo never
changes a value.  ``orientation_check``
is one breadth-first pass from tetrahedron 0.  A dual spanning graph
with its tree-sign orientation check, and a three-pass orbit search, are
kept as reference oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from functools import cached_property
from itertools import count, permutations
from typing import NamedTuple, Optional, Sequence

from .psl import DECIMAL_GROUP, Frozen


class TriangulationError(ValueError):
    """Malformed or inconsistent triangulation data."""


class DisconnectedError(TriangulationError):
    """Operation requires a connected triangulation."""


# Tetrahedron edges indexed 0..5, and the 12 directed versions.
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {pair: k for k, pair in enumerate(EDGE_PAIRS)}
DIRECTED_PAIRS = tuple((a, b) for a in range(4) for b in range(4) if a != b)
DIRECTED_INDEX = {pair: k for k, pair in enumerate(DIRECTED_PAIRS)}
# (low -> high, high -> low) directed index of each edge
EDGE_DIRECTIONS = tuple((DIRECTED_INDEX[(a, b)], DIRECTED_INDEX[(b, a)]) for a, b in EDGE_PAIRS)

# The 24 permutations of 0..3 in lexicographic order, and per permutation
# its inverse (by index), the map it induces on the 12 directed edges of a
# tetrahedron, and its gluing sign.
_PERM_IMAGES = tuple(permutations(range(4)))
_PERM_INDEX = {images: k for k, images in enumerate(_PERM_IMAGES)}
_PERM_INVERSE = tuple(
    _PERM_INDEX[tuple(images.index(v) for v in range(4))] for images in _PERM_IMAGES
)
_DIRECTED_MAP = tuple(
    tuple(DIRECTED_INDEX[(images[a], images[b])] for a, b in DIRECTED_PAIRS)
    for images in _PERM_IMAGES
)
# sign(b) / sign(a) that a consistent orientation needs across a gluing
# of tetrahedron a to b: +1 for an odd permutation, -1 for an even one
_GLUING_SIGN = tuple(
    1 if sum(images[i] > images[j] for i in range(4) for j in range(i + 1, 4)) % 2 else -1
    for images in _PERM_IMAGES
)
# the text of each permutation, its images written as four digits
_PERM_TEXT = tuple("".join(map(str, images)) for images in _PERM_IMAGES)

# The faces (numbered by their opposite vertex) that hold each directed
# edge of a tetrahedron; the undirected edge of each directed edge; its
# reverse; and, for a directed edge s and one of its two faces g, the other.
_DIRECTED_FACES = tuple(
    tuple(f for f in range(4) if f not in pair) for pair in DIRECTED_PAIRS
)
_EDGE_OF_DIRECTED = tuple(EDGE_INDEX[tuple(sorted(pair))] for pair in DIRECTED_PAIRS)
_REVERSED = tuple(DIRECTED_INDEX[(b, a)] for a, b in DIRECTED_PAIRS)
_OTHER_FACE = tuple(
    tuple(faces[g == faces[0]] if g in faces else -1 for g in range(4))
    for faces in _DIRECTED_FACES
)


class Permutation4(Frozen):
    """A bijection of {0,1,2,3} stored as the image tuple of (0,1,2,3);
    it compares, hashes and shows by its images alone."""

    __slots__ = ("images", "index")  # index: into the tables above
    _fields = ("images",)

    def __init__(self, images: tuple[int, int, int, int]) -> None:
        index = _PERM_INDEX.get(tuple(images))
        if index is None:
            raise TriangulationError(f"not a permutation of 0..3: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "index", index)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def inverse(self) -> "Permutation4":
        return _PERMS[_PERM_INVERSE[self.index]]

    def __str__(self) -> str:
        return _PERM_TEXT[self.index]


_PERMS = tuple(Permutation4(images) for images in _PERM_IMAGES)


class FacePairing(Frozen):
    """One direction of a face gluing: source face -> target face."""

    __slots__ = _fields = ("source", "target", "perm")

    def __init__(self, source: tuple[int, int], target: tuple[int, int], perm: Permutation4):
        for tet, face in (source, target):
            if not 0 <= face < 4:
                raise TriangulationError(f"face index out of range: {tet}:{face}")
        if perm(source[1]) != target[1]:
            raise TriangulationError(
                f"pairing {source} -> {target} does not map the "
                f"opposite vertex correctly (perm={perm})"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "perm", perm)

    def reverse(self) -> "FacePairing":
        return FacePairing(self.target, self.source, self.perm.inverse())


class Triangulation(Frozen):
    """t tetrahedra with every face slot glued; gluings stored both ways.

    gluings[tet][face] = (other tet, other face, perm).  The instance
    dict holds only the orbit walk, which ==, hash and repr do not read.
    """

    __slots__ = ("t", "gluings", "__dict__")
    _fields = ("t", "gluings")

    def __init__(self, t: int, gluings: tuple) -> None:
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gluings", gluings)

    def pairings(self) -> list[FacePairing]:
        """Canonical one-per-class list, sources sorted."""
        out = []
        for tet in range(self.t):
            for face in range(4):
                tet2, face2, perm = self.gluings[tet][face]
                if (tet, face) <= (tet2, face2):
                    out.append(FacePairing((tet, face), (tet2, face2), perm))
        return out

    @cached_property
    def orbit_walk(self) -> tuple[tuple[int, ...], ...]:
        """Vertex and directed-edge root tables, edge roots and walk tails.

        Slots are 4*tet + vertex, 6*tet + EDGE_INDEX and 12*tet +
        DIRECTED_INDEX; each root table maps a slot to the smallest slot
        of its orbit under the gluings, and an edge class's root is its
        smallest edge slot.  One walk around each directed-edge orbit
        (`_walk_orbits`) gives the two tables, the edge roots in
        increasing order and the walks' tails.  Computed on first use
        and kept on this instance only.
        """
        return _walk_orbits(self.gluings)


def _walk_orbits(gluings) -> tuple[tuple[int, ...], ...]:
    """The vertex and directed-edge roots, and edge roots and tails as the walks meet them.

    A directed edge lies on the two faces that miss both its ends, so its
    orbit is a cycle: leave through one face, and from each directed edge
    reached leave through its face other than the one entered, until the
    start comes round again.  Walks start from each unlabelled slot in
    increasing order, so a walk's start is its orbit's smallest slot.

    An edge orbit is the union of the orbits of its two directions, and
    that union holds both directions of each of its edges.  A walk's own
    orbit is unwalked when it starts, so it starts a new edge class
    exactly when the reverse of its start is unwalked too.  Directed
    slots within a tetrahedron are ordered by (tail, head) and edges by
    (low end, high end), so the union's smallest directed slot, where the
    first of its walks starts, lies on its smallest edge slot, and the
    edge roots are met in increasing order.

    The same order puts three directed slots on each tail, so directed
    slot x has its tail at vertex slot x // 3.  A gluing keeps a directed
    edge's tail in its vertex class, and each vertex of a face is the
    tail of a directed edge on that face, whose walk crosses the face;
    so the vertex classes are the walks' tails, joined.  Joins link a
    root to the smaller root, so every link points to a smaller slot and
    one pass in increasing order resolves each slot to its class's
    smallest.
    """
    droot = [-1] * (12 * len(gluings))
    vlink = list(range(4 * len(gluings)))  # vertex slot -> smaller slot of its class, or itself
    edge_roots, tails = [], []  # as the walks meet them
    for start in range(len(droot)):
        if droot[start] >= 0:
            continue
        tet, s = divmod(start, 12)
        if droot[start - s + _REVERSED[s]] < 0:  # a new edge class
            edge_roots.append(6 * tet + _EDGE_OF_DIRECTED[s])
        vlow = start // 3
        tails.append(vlow)
        while vlink[vlow] != vlow:
            vlink[vlow] = vlow = vlink[vlink[vlow]]  # path halving
        face = _DIRECTED_FACES[s][0]
        x = start
        while True:
            droot[x] = start
            v = x // 3
            if vlink[v] != vlow:  # else joined already
                while vlink[v] != v:
                    vlink[v] = v = vlink[vlink[v]]
                if v < vlow:
                    vlink[vlow] = vlow = v
                elif v > vlow:
                    vlink[v] = vlow
            tet, entered, perm = gluings[tet][face]
            s = _DIRECTED_MAP[perm.index][s]
            x = 12 * tet + s
            if droot[x] >= 0:
                if x == start:
                    break
                # orbits are disjoint cycles when the gluings pair faces
                # both ways, as make_triangulation and the parser ensure
                raise TriangulationError("gluings do not pair the faces both ways")
            face = _OTHER_FACE[s][entered]
    for v, up in enumerate(vlink):
        vlink[v] = vlink[up]  # up <= v is resolved already
    return tuple(vlink), tuple(droot), tuple(edge_roots), tuple(tails)


def make_triangulation(t: int, gluings: Sequence[tuple]) -> Triangulation:
    """Assemble a Triangulation from gluings (tet, face, tet2, face2, perm).

    The first gluing with a face out of range, or whose perm does not
    send face to face2, is named at once; `_assemble` names the rest.
    """
    for tet, face, tet2, face2, perm in gluings:
        if not (0 <= tet < t and 0 <= face < 4):
            raise TriangulationError(f"face index out of range: {tet}:{face}")
        if not (0 <= tet2 < t and 0 <= face2 < 4):
            raise TriangulationError(f"face index out of range: {tet2}:{face2}")
        if perm.images[face] != face2:
            raise TriangulationError(
                f"pairing {(tet, face)} -> {(tet2, face2)} does not map the "
                f"opposite vertex correctly (perm={perm})"
            )
    return _assemble(t, gluings)


def _assemble(t: int, rows: Sequence[tuple]) -> Triangulation:
    """The gluing table of t tetrahedra from checked rows (tet, face,
    tet2, face2, perm), each written both ways into its face slots
    4*tet + face, the first write to a slot standing.  Then the first
    write that disagrees with its slot is named ("pairing not an
    involution"), else the first face glued to itself, else the first
    unpaired face.  A flat list of the 4t slots is used when the rows
    could fill it; else a sparse map, so a large t with few rows costs no
    work of order t: the first unpaired slot lies within the filled ones.
    """
    if t < 0:
        raise TriangulationError(f"negative tetrahedron count: {t}")
    dense = 2 * len(rows) >= 4 * t
    slots = [None] * (4 * t) if dense else defaultdict(lambda: None)
    perms, inverse = _PERMS, _PERM_INVERSE
    clash = self_glued = None
    for tet, face, tet2, face2, perm in rows:
        slot, slot2 = 4 * tet + face, 4 * tet2 + face2
        if slot == slot2 and self_glued is None:
            self_glued = slot
        entry, back = (tet2, face2, perm), (tet, face, perms[inverse[perm.index]])
        prev = slots[slot]
        if prev is None:
            slots[slot] = entry
        elif prev != entry and clash is None:
            clash = slot
        prev = slots[slot2]
        if prev is None:
            slots[slot2] = back
        elif prev != back and clash is None:
            clash = slot2
    if clash is not None:
        raise TriangulationError(
            "pairing not an involution at face {}:{}".format(*divmod(clash, 4))
        )
    if self_glued is not None:
        raise TriangulationError("face {}:{} glued to itself".format(*divmod(self_glued, 4)))
    if dense and None not in slots:
        return Triangulation(t, tuple(zip(*[iter(slots)] * 4)))  # one row of four per tetrahedron
    first = next(slot for slot in count() if slots[slot] is None)
    raise TriangulationError("face {}:{} is unpaired".format(*divmod(first, 4)))


_BLANKS = " \t"  # ASCII, as the certificate grammar is
_BLANK = f"[{_BLANKS}]*"
_HEADER_RE = re.compile(rf"^{_BLANK}t{_BLANK}={_BLANK}{DECIMAL_GROUP}{_BLANK}$")
# One line of gluings text: a gluing, a blank or comment line with no group
# set, or else any other line, caught whole by the last group.  Blanks hold
# no newline, so in MULTILINE mode over lines joined by newlines each match
# is one whole line.
_GLUING_LINES_RE = re.compile(
    rf"^{_BLANK}(?:{DECIMAL_GROUP}{_BLANK}:{_BLANK}([0-3]){_BLANK}->{_BLANK}"
    rf"{DECIMAL_GROUP}{_BLANK}:{_BLANK}([0-3]){_BLANK}perm{_BLANK}={_BLANK}([0-3]{{4}})"
    rf"{_BLANK})?(?:#.*)?$|^(.*)$",
    re.MULTILINE,
)
_FACE_OF_TEXT = {str(face): face for face in range(4)}
_PERM_OF_TEXT = {str(perm): perm for perm in _PERMS}


def parse_triangulation(text: str) -> Triangulation:
    """Parse the line-based gluing format.

    First non-comment line is ``t=<N>``; each following line is
    ``<tet>:<face> -> <tet>:<face> perm=<abcd>`` where abcd is the image
    of 0123.  Numbers are canonical decimals (psl.DECIMAL_PATTERN),
    blanks are spaces and tabs, and ``#`` starts a comment.  Listing
    both directions is allowed but they must be mutually inverse.  Fewer
    than 2t gluing lines leave a face unpaired, and that is reported
    after work of the order of the lines, whatever t is.

    The lines after the header are read in one pass: rejoined with
    newlines (so line boundaries are those of ``str.splitlines``) and
    matched by one ``findall``, one match per line.  A line that does
    not parse, or whose gluing is not a permutation, leaves the
    tetrahedra or misses its face, is an error at once, so the first
    such line is named.  The gluings are then assembled by `_assemble`,
    as make_triangulation's are, which names the pairing errors.
    """
    lines = text.splitlines()
    t = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if line:
            m = _HEADER_RE.match(line)
            if not m:
                raise TriangulationError(f"line {lineno}: expected 't=<N>' header")
            t = int(m.group(1))
            if t <= 0:
                raise TriangulationError(f"line {lineno}: need at least one tetrahedron")
            break
    if t is None:
        raise TriangulationError("missing 't=<N>' header")
    found = _GLUING_LINES_RE.findall("\n".join(lines[lineno:]))
    faces = _FACE_OF_TEXT
    perm_of = _PERM_OF_TEXT.get
    rows = []
    for lineno, (tet, face, tet2, face2, perm_text, other) in enumerate(found, start=lineno + 1):
        if not perm_text:
            if other:
                line = other.split("#", 1)[0].strip(_BLANKS)
                raise TriangulationError(f"line {lineno}: cannot parse gluing: {line!r}")
            continue  # a blank or comment line
        perm = perm_of(perm_text)
        if perm is None:
            images = tuple(int(ch) for ch in perm_text)
            raise TriangulationError(f"line {lineno}: not a permutation of 0..3: {images}")
        tet, face, tet2, face2 = int(tet), faces[face], int(tet2), faces[face2]
        if tet >= t or tet2 >= t:
            raise TriangulationError(f"line {lineno}: tetrahedron index out of range")
        if perm.images[face] != face2:
            raise TriangulationError(
                f"line {lineno}: perm does not send face {face} to face {face2}"
            )
        rows.append((tet, face, tet2, face2, perm))
    return _assemble(t, rows)


def format_triangulation(tri: Triangulation, comment: str = "") -> str:
    """The text parse_triangulation reads: each comment line after ``# ``,
    the header, then one line per gluing, from its smaller face slot, in
    slot order (the order of ``Triangulation.pairings``).  The lines are
    read straight off the gluing table, which make_triangulation or the
    parser has checked, so no gluing is checked again here."""
    lines = [f"# {row}" for row in comment.splitlines()]
    lines.append(f"t={tri.t}")
    perm_text = _PERM_TEXT
    for tet, row in enumerate(tri.gluings):
        for face, (tet2, face2, perm) in enumerate(row):
            if (tet, face) <= (tet2, face2):
                lines.append(f"{tet}:{face} -> {tet2}:{face2} perm={perm_text[perm.index]}")
    return "\n".join(lines) + "\n"


class ValidationReport(NamedTuple):
    v: int
    e: int
    f: int
    t: int
    euler: int
    vertex_link_eulers: tuple[int, ...]
    reversed_edges: int
    passed: bool
    failures: tuple[str, ...]


def validate(tri: Triangulation) -> ValidationReport:
    """Check the closed-3-manifold conditions by orbit counting.

    Computes identification classes of vertices and edges, the Euler
    characteristic v - e + f - t, and the Euler characteristic of every
    vertex link from corner triangles.  Passes iff chi = 0, every link
    has chi = 2 and no edge is glued to itself in reverse.
    """
    t = tri.t
    vroot, droot, edge_roots, tails = tri.orbit_walk

    corners = Counter(vroot)  # vertex class -> corners of its link
    v = len(corners)
    e = len(edge_roots)
    f = 2 * t
    euler = v - e + f - t

    # Count edge classes whose two directions share an orbit; a gluing
    # maps both directions of an edge together, so the root decides.
    reversed_edges = 0
    for root in edge_roots:
        tet, k = divmod(root, 6)
        fwd, back = EDGE_DIRECTIONS[k]
        reversed_edges += droot[12 * tet + fwd] == droot[12 * tet + back]

    # Link of a vertex class: corner triangles are its faces, corner
    # sides are glued in face-pairing pairs, corner tips are the directed
    # edge orbits leaving it (a gluing keeps an edge's tail in its vertex
    # class, so each orbit's walk tail names its vertex class).
    # chi(link) = (#tip orbits) - (#corners)/2.
    tips = Counter(vroot[x] for x in tails)
    # 3*f_v corner sides glued in pairs
    link_eulers = [tips[root] - (3 * f_v) // 2 + f_v for root, f_v in sorted(corners.items())]

    failures = []
    if euler != 0:
        failures.append(f"euler characteristic {euler} != 0")
    for k, chi in enumerate(link_eulers):
        if chi != 2:
            failures.append(f"vertex link {k} has euler characteristic {chi}")
    if reversed_edges:
        failures.append(f"{reversed_edges} edge class(es) glued in reverse")

    return ValidationReport(
        v=v,
        e=e,
        f=f,
        t=t,
        euler=euler,
        vertex_link_eulers=tuple(link_eulers),
        reversed_edges=reversed_edges,
        passed=not failures,
        failures=tuple(failures),
    )


class OrientationResult(NamedTuple):
    orientable: bool
    assignment: Optional[tuple[int, ...]]
    witness: Optional[FacePairing]


def orientation_check(tri: Triangulation) -> OrientationResult:
    """Decide orientability by sign propagation from tetrahedron 0.

    Convention: a pairing is orientation reversing iff its permutation is
    odd, and a consistent orientation needs every induced pairing to be
    reversing, i.e. sign(A) * sign(B) = +1 exactly for odd permutations.
    One breadth-first pass, smallest (tet, face) first, sets each
    tetrahedron's sign through the gluing that first reaches it and
    checks every other gluing against the signs already set.  A reaching
    gluing agrees with its signs by construction, so on a failed check
    one scan in canonical (tet, face) order returns the first violated
    pairing as witness.  The empty triangulation is orientable, with
    the empty assignment.
    """
    if not tri.t:
        return OrientationResult(True, (), None)
    gluings = tri.gluings
    sign = [0] * tri.t
    sign[0] = 1
    reached = [0]
    consistent = True
    for tet in reached:  # grows while it is read: the BFS queue
        here = sign[tet]
        for tet2, _, perm in gluings[tet]:
            want = here * _GLUING_SIGN[perm.index]
            there = sign[tet2]
            if not there:
                sign[tet2] = want
                reached.append(tet2)
            elif there != want:
                consistent = False
    if len(reached) < tri.t:
        raise DisconnectedError("triangulation is not connected")
    if consistent:
        return OrientationResult(True, tuple(sign), None)
    # both sides of a violated pairing fail, so the first failing slot is
    # the smaller side of the first violated class
    witness = next(
        FacePairing((tet, face), (tet2, face2), perm)
        for tet, row in enumerate(gluings)
        for face, (tet2, face2, perm) in enumerate(row)
        if sign[tet] * _GLUING_SIGN[perm.index] != sign[tet2]
    )
    return OrientationResult(False, None, witness)
