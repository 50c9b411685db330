"""Closed 3-manifold triangulations given as tetrahedra with face pairings.

A triangulation is t tetrahedra and 2t face pairings.  Face f of a
tetrahedron is the face opposite vertex f, so a pairing is a permutation
of {0,1,2,3} carrying the three vertices of the source face onto the
target face and the source's opposite vertex onto the target's opposite
vertex.  Everything here is an immutable value; all operations are pure.

The 24 permutations are interned at import with int tables (inverse,
parity, induced maps on edges and directed edges), so parsing and the
orbit pass do no per-gluing validation.  The vertex, edge and
directed-edge orbits of a triangulation are computed once per instance
(``Triangulation.orbit_roots``) and shared by ``validate`` and the
presentation code; they are derived from the gluings alone, so the memo
never changes a value.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional


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
# its inverse (by index), its parity and the maps it induces on the 12
# directed edges and the 6 edges of a tetrahedron.
_PERM_IMAGES = tuple(itertools.permutations(range(4)))
_PERM_INDEX = {images: k for k, images in enumerate(_PERM_IMAGES)}
_PERM_INVERSE = tuple(
    _PERM_INDEX[tuple(images.index(v) for v in range(4))] for images in _PERM_IMAGES
)
_PERM_ODD = tuple(
    sum(images[i] > images[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 1
    for images in _PERM_IMAGES
)
_DIRECTED_MAP = tuple(
    tuple(DIRECTED_INDEX[(images[a], images[b])] for a, b in DIRECTED_PAIRS)
    for images in _PERM_IMAGES
)
_EDGE_MAP = tuple(
    tuple(EDGE_INDEX[tuple(sorted((images[a], images[b])))] for a, b in EDGE_PAIRS)
    for images in _PERM_IMAGES
)

# The faces (numbered by their opposite vertex) that hold each vertex,
# edge and directed edge of a tetrahedron.
_VERTEX_FACES = tuple(tuple(f for f in range(4) if f != v) for v in range(4))
_EDGE_FACES = tuple(tuple(f for f in range(4) if f not in pair) for pair in EDGE_PAIRS)
_DIRECTED_FACES = tuple(
    tuple(f for f in range(4) if f not in pair) for pair in DIRECTED_PAIRS
)


@dataclass(frozen=True)
class Permutation4:
    """A bijection of {0,1,2,3} stored as the image tuple of (0,1,2,3)."""

    images: tuple[int, int, int, int]
    index: int = field(init=False, repr=False, compare=False)  # into the tables above

    def __post_init__(self) -> None:
        index = _PERM_INDEX.get(tuple(self.images))
        if index is None:
            raise TriangulationError(f"not a permutation of 0..3: {self.images}")
        object.__setattr__(self, "index", index)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def inverse(self) -> "Permutation4":
        return _PERMS[_PERM_INVERSE[self.index]]

    def is_odd(self) -> bool:
        return _PERM_ODD[self.index]

    def __str__(self) -> str:
        return "".join(str(v) for v in self.images)


_PERMS = tuple(Permutation4(images) for images in _PERM_IMAGES)
_PERM_BY_TEXT = {str(perm): perm for perm in _PERMS}


@dataclass(frozen=True)
class FacePairing:
    """One direction of a face gluing: source face -> target face."""

    source: tuple[int, int]
    target: tuple[int, int]
    perm: Permutation4

    def __post_init__(self) -> None:
        if self.perm(self.source[1]) != self.target[1]:
            raise TriangulationError(
                f"pairing {self.source} -> {self.target} does not map the "
                f"opposite vertex correctly (perm={self.perm})"
            )

    def reverse(self) -> "FacePairing":
        return FacePairing(self.target, self.source, self.perm.inverse())


@dataclass(frozen=True)
class Triangulation:
    """t tetrahedra with every face slot glued; gluings stored both ways.

    gluings[tet][face] = (other tet, other face, perm).
    """

    t: int
    gluings: tuple[tuple[tuple[int, int, Permutation4], ...], ...]

    def pairing(self, tet: int, face: int) -> FacePairing:
        tet2, face2, perm = self.gluings[tet][face]
        return FacePairing((tet, face), (tet2, face2), perm)

    def pairings(self) -> list[FacePairing]:
        """Canonical one-per-class list, sources sorted."""
        out = []
        for tet in range(self.t):
            for face in range(4):
                tet2, face2, _ = self.gluings[tet][face]
                if (tet, face) <= (tet2, face2):
                    out.append(self.pairing(tet, face))
        return out

    @cached_property
    def orbit_roots(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Vertex, edge and directed-edge orbits under the gluings.

        Slots are 4*tet + vertex, 6*tet + EDGE_INDEX and 12*tet +
        DIRECTED_INDEX; each list maps a slot to the smallest slot of its
        orbit.  Computed on first use and kept on this instance only.
        """
        return (
            _orbit_roots(self.gluings, 4, _VERTEX_FACES, _PERM_IMAGES),
            _orbit_roots(self.gluings, 6, _EDGE_FACES, _EDGE_MAP),
            _orbit_roots(self.gluings, 12, _DIRECTED_FACES, _DIRECTED_MAP),
        )

    def is_connected(self) -> bool:
        if self.t == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            tet = stack.pop()
            for face in range(4):
                tet2 = self.gluings[tet][face][0]
                if tet2 not in seen:
                    seen.add(tet2)
                    stack.append(tet2)
        return len(seen) == self.t


def _orbit_roots(gluings, width: int, faces_of, maps) -> tuple[int, ...]:
    """Slot -> smallest slot of its orbit, for slots of `width` per tetrahedron.

    Local slot s lies on the faces faces_of[s]; across a face glued to
    tetrahedron tet2 by the permutation with table index k it goes to
    slot width*tet2 + maps[k][s].  Orbits are labelled by depth-first
    search from each unlabelled slot in increasing order, so the first
    slot of an orbit reached is its smallest.
    """
    across = [[(width * tet2, maps[perm.index]) for tet2, _, perm in row] for row in gluings]
    root = [-1] * (width * len(gluings))
    for start in range(len(root)):
        if root[start] >= 0:
            continue
        root[start] = start
        stack = [start]
        while stack:
            tet, s = divmod(stack.pop(), width)
            row = across[tet]
            for f in faces_of[s]:
                base, image = row[f]
                other = base + image[s]
                if root[other] < 0:
                    root[other] = start
                    stack.append(other)
    return tuple(root)


_Gluing = tuple[int, int, int, int, Permutation4]  # tet, face, tet2, face2, perm


def make_triangulation(t: int, pairings: list[FacePairing]) -> Triangulation:
    """Assemble a Triangulation from pairings, enforcing the involution."""
    return _assemble(t, [(*fp.source, *fp.target, fp.perm) for fp in pairings])


def _assemble(t: int, gluings: list[_Gluing]) -> Triangulation:
    table: list[list[Optional[tuple[int, int, Permutation4]]]] = [
        [None] * 4 for _ in range(t)
    ]

    def record(tet: int, face: int, tet2: int, face2: int, perm: Permutation4) -> None:
        for tt, ff in ((tet, face), (tet2, face2)):
            if not (0 <= tt < t and 0 <= ff < 4):
                raise TriangulationError(f"face index out of range: {tt}:{ff}")
        if (tet, face) == (tet2, face2):
            raise TriangulationError(f"face {tet}:{face} glued to itself")
        entry = (tet2, face2, perm)
        prev = table[tet][face]
        if prev is not None and prev != entry:
            raise TriangulationError(
                f"face {tet}:{face} glued twice, inconsistently "
                f"({prev[0]}:{prev[1]} vs {tet2}:{face2})"
            )
        table[tet][face] = entry

    for tet, face, tet2, face2, perm in gluings:
        record(tet, face, tet2, face2, perm)
        record(tet2, face2, tet, face, perm.inverse())

    for tet in range(t):
        for face in range(4):
            if table[tet][face] is None:
                raise TriangulationError(f"face {tet}:{face} is unpaired")

    return Triangulation(t, tuple(tuple(row) for row in table))  # type: ignore[arg-type]


_GLUING_RE = re.compile(
    r"^\s*(\d+)\s*:\s*([0-3])\s*->\s*(\d+)\s*:\s*([0-3])\s*perm\s*=\s*([0-3]{4})\s*$"
)
_HEADER_RE = re.compile(r"^\s*t\s*=\s*(\d+)\s*$")


def parse_triangulation(text: str) -> Triangulation:
    """Parse the line-based gluing format.

    First non-comment line is ``t=<N>``; each following line is
    ``<tet>:<face> -> <tet>:<face> perm=<abcd>`` where abcd is the image
    of 0123.  ``#`` starts a comment.  Listing both directions is allowed
    but they must be mutually inverse.
    """
    t = None
    gluings: list[_Gluing] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if t is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise TriangulationError(f"line {lineno}: expected 't=<N>' header")
            t = int(m.group(1))
            if t <= 0:
                raise TriangulationError(f"line {lineno}: need at least one tetrahedron")
            continue
        m = _GLUING_RE.match(line)
        if not m:
            raise TriangulationError(f"line {lineno}: cannot parse gluing: {line!r}")
        tet, face, tet2, face2, perm_text = m.groups()
        tet, face, tet2, face2 = int(tet), int(face), int(tet2), int(face2)
        perm = _PERM_BY_TEXT.get(perm_text)
        if perm is None:
            images = tuple(int(ch) for ch in perm_text)
            raise TriangulationError(f"not a permutation of 0..3: {images}")
        if not (0 <= tet < t and 0 <= tet2 < t):
            raise TriangulationError(f"line {lineno}: tetrahedron index out of range")
        if perm(face) != face2:
            raise TriangulationError(
                f"line {lineno}: perm does not send face {face} to face {face2}"
            )
        gluings.append((tet, face, tet2, face2, perm))
    if t is None:
        raise TriangulationError("missing 't=<N>' header")
    try:
        return _assemble(t, gluings)
    except TriangulationError:
        # Distinguish the involution failure for better messages.
        _check_involution(gluings)
        raise


def _check_involution(gluings: list[_Gluing]) -> None:
    seen: dict[tuple[int, int], tuple[tuple[int, int], Permutation4]] = {}
    for tet, face, tet2, face2, perm in gluings:
        for source, target, p in (
            ((tet, face), (tet2, face2), perm),
            ((tet2, face2), (tet, face), perm.inverse()),
        ):
            prev = seen.get(source)
            if prev is not None and prev != (target, p):
                raise TriangulationError(
                    f"pairing not an involution at face {source[0]}:{source[1]}"
                )
            seen[source] = (target, p)


def format_triangulation(tri: Triangulation, comment: str = "") -> str:
    lines = []
    if comment:
        lines.extend(f"# {row}" for row in comment.splitlines())
    lines.append(f"t={tri.t}")
    for fp in tri.pairings():
        (a, f), (b, g) = fp.source, fp.target
        lines.append(f"{a}:{f} -> {b}:{g} perm={fp.perm}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ValidationReport:
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
    vroot, eroot, droot = tri.orbit_roots

    v = len(set(vroot))
    e = len(set(eroot))
    f = 2 * t
    euler = v - e + f - t

    # Count edge classes (not slots) whose two directions share an orbit.
    reversed_edges = len({
        eroot[6 * tet + k]
        for tet in range(t)
        for k, (fwd, back) in enumerate(EDGE_DIRECTIONS)
        if droot[12 * tet + fwd] == droot[12 * tet + back]
    })

    # Link of a vertex class: corner triangles are its faces, corner
    # sides are glued in face-pairing pairs, corner tips are the directed
    # edge orbits leaving it (a gluing keeps an edge's tail in its vertex
    # class).  chi(link) = (#tip orbits) - (#corners)/2.
    corners = Counter(vroot)
    tips = Counter(
        vroot[4 * (x // 12) + DIRECTED_PAIRS[x % 12][0]]
        for x, root in enumerate(droot)
        if x == root
    )
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


@dataclass(frozen=True)
class DualGraph:
    """Dual 1-skeleton: a vertex per tetrahedron, an edge per pairing class."""

    t: int
    edges: tuple[FacePairing, ...]
    tree: tuple[bool, ...]  # parallel to edges

    def tree_edges(self) -> list[FacePairing]:
        return [fp for fp, keep in zip(self.edges, self.tree) if keep]

    def non_tree_edges(self) -> list[FacePairing]:
        return [fp for fp, keep in zip(self.edges, self.tree) if not keep]


def dual_graph(tri: Triangulation) -> DualGraph:
    """BFS spanning tree from tetrahedron 0, smallest (tet, face) first."""
    if not tri.is_connected():
        raise DisconnectedError("triangulation is not connected")
    pairings = tri.pairings()
    visited = [False] * tri.t
    visited[0] = True
    in_tree = [False] * len(pairings)
    index_of = {fp.source: k for k, fp in enumerate(pairings)}
    index_of.update({fp.target: k for k, fp in enumerate(pairings)})
    queue = deque([0])
    while queue:
        tet = queue.popleft()
        for face in range(4):
            tet2 = tri.gluings[tet][face][0]
            if not visited[tet2]:
                visited[tet2] = True
                in_tree[index_of[(tet, face)]] = True
                queue.append(tet2)
    return DualGraph(tri.t, tuple(pairings), tuple(in_tree))


@dataclass(frozen=True)
class OrientationResult:
    orientable: bool
    assignment: Optional[tuple[int, ...]]
    witness: Optional[FacePairing]


def orientation_check(tri: Triangulation) -> OrientationResult:
    """Decide orientability by sign propagation over a spanning tree.

    Convention: a pairing is orientation reversing iff its permutation is
    odd, and a consistent orientation needs every induced pairing to be
    reversing, i.e. sign(A) * sign(B) = +1 exactly for odd permutations.
    Tree pairings force each neighbour's sign; the t+1 non-tree pairings
    are then checked, and the first violation is returned as witness.
    """
    graph = dual_graph(tri)
    # The tree fixes every sign; propagate them in BFS order from tet 0.
    tree_nbrs: list[list[tuple[int, int]]] = [[] for _ in range(tri.t)]
    for fp in graph.tree_edges():
        a, b = fp.source[0], fp.target[0]
        want = 1 if fp.perm.is_odd() else -1
        tree_nbrs[a].append((b, want))
        tree_nbrs[b].append((a, want))
    sign = [0] * tri.t
    sign[0] = 1
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b, want in tree_nbrs[a]:
            if not sign[b]:
                sign[b] = sign[a] * want
                queue.append(b)

    for fp in graph.non_tree_edges():
        a, b = fp.source[0], fp.target[0]
        want = 1 if fp.perm.is_odd() else -1
        if sign[a] * sign[b] != want:
            return OrientationResult(False, None, fp)
    return OrientationResult(True, tuple(sign), None)
