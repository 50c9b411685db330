"""Closed 3-manifold triangulations given as tetrahedra with face pairings.

A triangulation is t tetrahedra and 2t face pairings.  Face f of a
tetrahedron is the face opposite vertex f, so a pairing is a permutation
of {0,1,2,3} carrying the three vertices of the source face onto the
target face and the source's opposite vertex onto the target's opposite
vertex.  Everything here is an immutable value; all operations are pure.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .unionfind import UnionFind


class TriangulationError(ValueError):
    """Malformed or inconsistent triangulation data."""


class DisconnectedError(TriangulationError):
    """Operation requires a connected triangulation."""


# Tetrahedron edges indexed 0..5, and the 12 directed versions.
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {pair: k for k, pair in enumerate(EDGE_PAIRS)}
DIRECTED_PAIRS = tuple((a, b) for a in range(4) for b in range(4) if a != b)
DIRECTED_INDEX = {pair: k for k, pair in enumerate(DIRECTED_PAIRS)}


@dataclass(frozen=True)
class Permutation4:
    """A bijection of {0,1,2,3} stored as the image tuple of (0,1,2,3)."""

    images: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if sorted(self.images) != [0, 1, 2, 3]:
            raise TriangulationError(f"not a permutation of 0..3: {self.images}")

    def __call__(self, v: int) -> int:
        return self.images[v]

    def inverse(self) -> "Permutation4":
        inv = [0] * 4
        for v, w in enumerate(self.images):
            inv[w] = v
        return Permutation4(tuple(inv))

    def is_odd(self) -> bool:
        inversions = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if self.images[i] > self.images[j]
        )
        return inversions % 2 == 1

    def __str__(self) -> str:
        return "".join(str(v) for v in self.images)


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


def make_triangulation(t: int, pairings: list[FacePairing]) -> Triangulation:
    """Assemble a Triangulation from pairings, enforcing the involution."""
    table: list[list[Optional[tuple[int, int, Permutation4]]]] = [
        [None] * 4 for _ in range(t)
    ]

    def record(fp: FacePairing) -> None:
        (tet, face), (tet2, face2) = fp.source, fp.target
        for tt, ff in ((tet, face), (tet2, face2)):
            if not (0 <= tt < t and 0 <= ff < 4):
                raise TriangulationError(f"face index out of range: {tt}:{ff}")
        if (tet, face) == (tet2, face2):
            raise TriangulationError(f"face {tet}:{face} glued to itself")
        entry = (tet2, face2, fp.perm)
        prev = table[tet][face]
        if prev is not None and prev != entry:
            raise TriangulationError(
                f"face {tet}:{face} glued twice, inconsistently "
                f"({prev[0]}:{prev[1]} vs {tet2}:{face2})"
            )
        table[tet][face] = entry

    for fp in pairings:
        record(fp)
        record(fp.reverse())

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
    pairings: list[FacePairing] = []
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
        tet, face, tet2, face2 = (int(m.group(k)) for k in range(1, 5))
        perm = Permutation4(tuple(int(ch) for ch in m.group(5)))  # type: ignore[arg-type]
        if not (0 <= tet < t and 0 <= tet2 < t):
            raise TriangulationError(f"line {lineno}: tetrahedron index out of range")
        if perm(face) != face2:
            raise TriangulationError(
                f"line {lineno}: perm does not send face {face} to face {face2}"
            )
        try:
            pairings.append(FacePairing((tet, face), (tet2, face2), perm))
        except TriangulationError as exc:
            raise TriangulationError(f"line {lineno}: {exc}") from None
    if t is None:
        raise TriangulationError("missing 't=<N>' header")
    try:
        return make_triangulation(t, pairings)
    except TriangulationError:
        # Distinguish the involution failure for better messages.
        _check_involution(t, pairings)
        raise


def _check_involution(t: int, pairings: list[FacePairing]) -> None:
    seen: dict[tuple[int, int], FacePairing] = {}
    for fp in pairings:
        for direction in (fp, fp.reverse()):
            prev = seen.get(direction.source)
            if prev is not None and (
                prev.target != direction.target or prev.perm != direction.perm
            ):
                raise TriangulationError(
                    f"pairing not an involution at face "
                    f"{direction.source[0]}:{direction.source[1]}"
                )
            seen[direction.source] = direction


def format_triangulation(tri: Triangulation, comment: str = "") -> str:
    lines = []
    if comment:
        lines.extend(f"# {row}" for row in comment.splitlines())
    lines.append(f"t={tri.t}")
    for fp in tri.pairings():
        (a, f), (b, g) = fp.source, fp.target
        lines.append(f"{a}:{f} -> {b}:{g} perm={fp.perm}")
    return "\n".join(lines) + "\n"


def face_maps(tri: Triangulation) -> Iterator[tuple[int, int, int, int, Permutation4]]:
    """One (tet, face, tet2, face2, perm) per pairing class."""
    for fp in tri.pairings():
        yield fp.source[0], fp.source[1], fp.target[0], fp.target[1], fp.perm


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


def _orbit_unions(tri: Triangulation) -> tuple[UnionFind, UnionFind, UnionFind]:
    """Union-find structures over vertex, edge, directed-edge slots."""
    t = tri.t
    verts = UnionFind(4 * t)
    edges = UnionFind(6 * t)
    dedges = UnionFind(12 * t)
    for tet, face, tet2, _face2, perm in face_maps(tri):
        on_face = [v for v in range(4) if v != face]
        for v in on_face:
            verts.union(4 * tet + v, 4 * tet2 + perm(v))
        for a in on_face:
            for b in on_face:
                if a == b:
                    continue
                dedges.union(
                    12 * tet + DIRECTED_INDEX[(a, b)],
                    12 * tet2 + DIRECTED_INDEX[(perm(a), perm(b))],
                )
                if a < b:
                    pa, pb = perm(a), perm(b)
                    edges.union(
                        6 * tet + EDGE_INDEX[(a, b)],
                        6 * tet2 + EDGE_INDEX[(min(pa, pb), max(pa, pb))],
                    )
    return verts, edges, dedges


def validate(tri: Triangulation) -> ValidationReport:
    """Check the closed-3-manifold conditions by orbit counting.

    Computes identification classes of vertices and edges, the Euler
    characteristic v - e + f - t, and the Euler characteristic of every
    vertex link from corner triangles.  Passes iff chi = 0, every link
    has chi = 2 and no edge is glued to itself in reverse.
    """
    t = tri.t
    verts, edges, dedges = _orbit_unions(tri)

    v = verts.class_count()
    e = edges.class_count()
    f = 2 * t
    euler = v - e + f - t

    # Count edge classes (not slots) that are reversed.
    reversed_classes = set()
    for tet in range(t):
        for a, b in EDGE_PAIRS:
            d1 = 12 * tet + DIRECTED_INDEX[(a, b)]
            d2 = 12 * tet + DIRECTED_INDEX[(b, a)]
            if dedges.find(d1) == dedges.find(d2):
                reversed_classes.add(edges.find(6 * tet + EDGE_INDEX[(a, b)]))
    reversed_edges = len(reversed_classes)

    # Link of a vertex class: corner triangles are its faces, corner
    # sides are glued in face-pairing pairs, corner tips sit on directed
    # edge orbits.  chi(link) = (#tip orbits) - (#corners)/2.
    corners: dict[int, int] = {}
    for tet in range(t):
        for vv in range(4):
            root = verts.find(4 * tet + vv)
            corners[root] = corners.get(root, 0) + 1

    tips: dict[int, set[int]] = {}
    for tet in range(t):
        for a, b in DIRECTED_PAIRS:
            root = verts.find(4 * tet + a)
            tips.setdefault(root, set()).add(dedges.find(12 * tet + DIRECTED_INDEX[(a, b)]))

    link_eulers = []
    for root in sorted(corners):
        f_v = corners[root]
        v_link = len(tips.get(root, set()))
        # 3*f_v corner sides glued in pairs
        link_eulers.append(v_link - (3 * f_v) // 2 + f_v)

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
