"""Independent oracles used to freeze expected values in the test suite.

Everything here is implemented from first principles, separately from
the library: invariant factors come from gcds of minors, orientability
from trying all 2^t sign assignments, homology from cellular boundary
matrices, link Euler characteristics from explicit corner-piece orbit
counts.  Slow is fine; these only run at fixture scale.  The exceptions
are the triangle cosines, solve_r, the dihedral images and subgroup
invariants below: they are the library's earlier FieldElement and
Smith-normal-form versions, kept as references for the int code that
replaced them; the earlier two-sided Smith normal form, which also
tracked the row transform U, Fraction classification, matrix-power order check, dense abelian
verification loop, verification of representation certificates with
every word spelled out through the surjection, and min()-pivot sparse
elimination, kept for the same reason; and the
triangulation chain's earlier stages: the three-pass orbit search, the
dual spanning graph with its tree-sign orientation check, and the cell
structure that pi1 was read from, the gluing-table assembly with
its per-gluing closure, and the writer that built one FacePairing per
gluing.  The
spherical-pair search is the one the library's fixed spherical images
came from; psl_group_order, element_order and exponent_matrix are
helpers that only tests call, as are perm_is_odd, is_connected,
table_built_directly, reduced_word, word_power, int_matmul,
int_identity, field_elements and
hyperbolic_parameters, which recomputes a hyperbolic build's cosines and
r through the library's public steps.  letter_by_letter_fold is the
plain one-product-per-letter word fold that fold_letters' period
shortcut and verify's letter-count charge are checked against, and
closure_by_rescan is the presentation
closure's stated order, recounted from the words at every step.
dual_presentation reads pi1 off the dual cell complex, its own walk
around each edge sharing nothing with the library's orbit walk or
fundamental_group, and s4_homomorphism_count compares two
presentations by their number of homomorphisms into S4.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from lenscert.checker import (
    NON_ABELIAN,
    NON_CYCLIC,
    Certificate,
    VerificationReport,
    serialize,
    subgroup_invariants,
)
from lenscert.galois import (
    FieldElement,
    FieldSpec,
    factorize,
    imaginary_unit,
    is_quadratic_residue,
    quadratic_extension,
    root_of_unity,
    smallest_prime_in_progression,
    sqrt_mod_p,
)
from lenscert.intlinalg import IntMatrix
from lenscert.presentation import GroupPresentation, Word
from lenscert.projmat import ProjMatrix, projective_order
from lenscert.trianglerep import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    TriangleType,
    reduced_cosines,
    solve_r,
)
from lenscert.triangulation import (
    DIRECTED_INDEX,
    DIRECTED_PAIRS,
    EDGE_DIRECTIONS,
    EDGE_INDEX,
    EDGE_PAIRS,
    DisconnectedError,
    FacePairing,
    OrientationResult,
    Permutation4,
    Triangulation,
    TriangulationError,
    make_triangulation,
)
from lenscert.unionfind import UnionFind


def det_int(rows) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_rational(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def invariant_factors_by_minors(rows) -> list[int]:
    """Nonzero invariant factors as quotients of gcds of k x k minors."""
    if not rows or not rows[0]:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    rank = rank_rational(rows)
    gcds = [1]
    for k in range(1, rank + 1):
        g = 0
        for row_idx in itertools.combinations(range(n_rows), k):
            for col_idx in itertools.combinations(range(n_cols), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                g = math.gcd(g, det_int(sub))
        gcds.append(g)
    return [gcds[k] // gcds[k - 1] for k in range(1, rank + 1)]


def two_sided_smith_normal_form(a: IntMatrix):
    """(diag, rank, U, V) with N = U*A*V: the library's earlier dense SNF,
    which tracked both transforms.  Same pivot rule, smallest nonzero
    absolute value with ties broken row-major, so its diag is the
    library's."""
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d + v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        for mat in (d, u):
            mat[dst] = [x + c * y for x, y in zip(mat[dst], mat[src])]

    def add_col(dst, src, c):
        for row in d + v:
            row[dst] += c * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            p = d[t][t]
            dirty = False
            for i in range(m):
                if i != t and d[i][t] != 0:
                    add_row(i, t, -(d[i][t] // p))
                    dirty = dirty or d[i][t] != 0
            for j in range(n):
                if j != t and d[t][j] != 0:
                    add_col(j, t, -(d[t][j] // p))
                    dirty = dirty or d[t][j] != 0
            if dirty:
                pivot = find_pivot(t)
                swap_rows(t, pivot[0])
                swap_cols(t, pivot[1])
                continue
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % p),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    diag = tuple(d[i][i] for i in range(min(m, n)))
    rank = sum(1 for x in diag if x != 0)
    return diag, rank, IntMatrix(u, cols=m), IntMatrix(v, cols=n)


# ----------------------------------------------------------------------
# triangulation oracles


def perm_is_odd(perm: Permutation4) -> bool:
    """Parity of a permutation of 0..3 by counting inversions."""
    images = perm.images
    return sum(images[i] > images[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 1


def is_connected(tri: Triangulation) -> bool:
    """Every tetrahedron is reached from tetrahedron 0 across its faces."""
    if tri.t == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        tet = stack.pop()
        for face in range(4):
            tet2 = tri.gluings[tet][face][0]
            if tet2 not in seen:
                seen.add(tet2)
                stack.append(tet2)
    return len(seen) == tri.t


def exhaustive_orientation(tri: Triangulation):
    """Try every per-tetrahedron sign assignment; return one that makes
    every pairing's permutation parity odd exactly when signs agree."""
    pairings = tri.pairings()
    for bits in range(2 ** (tri.t - 1)):
        signs = [1]
        for k in range(tri.t - 1):
            signs.append(1 if (bits >> k) & 1 else -1)
        if all(
            (signs[fp.source[0]] * signs[fp.target[0]] == 1) == perm_is_odd(fp.perm)
            for fp in pairings
        ):
            return signs
    return None


class _Orbits:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count(self):
        return len({self.find(x) for x in self.parent})

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def _vertex_orbits(tri: Triangulation) -> _Orbits:
    orbits = _Orbits([(tet, v) for tet in range(tri.t) for v in range(4)])
    for fp in tri.pairings():
        (tet, face), (tet2, _), perm = fp.source, fp.target, fp.perm
        for v in range(4):
            if v != face:
                orbits.union((tet, v), (tet2, perm(v)))
    return orbits


def link_euler_characteristics(tri: Triangulation) -> dict:
    """Map vertex-class representative -> Euler characteristic of its link,
    computed from explicit corner triangles, corner sides and corner tips."""
    corners = [(tet, v) for tet in range(tri.t) for v in range(4)]
    sides = _Orbits([(tet, v, f) for tet, v in corners for f in range(4) if f != v])
    tips = _Orbits(
        [(tet, v, w) for tet, v in corners for w in range(4) if w != v]
    )
    for fp in tri.pairings():
        (tet, face), (tet2, face2), perm = fp.source, fp.target, fp.perm
        for v in range(4):
            if v == face:
                continue
            sides.union((tet, v, face), (tet2, perm(v), face2))
            for w in range(4):
                if w not in (v, face):
                    tips.union((tet, v, w), (tet2, perm(v), perm(w)))
    vertices = _vertex_orbits(tri)
    chi: dict = {}
    counted_sides: dict = {}
    counted_tips: dict = {}
    corner_count: dict = {}
    for tet, v in corners:
        root = vertices.find((tet, v))
        corner_count[root] = corner_count.get(root, 0) + 1
    for (tet, v, f), _ in sides.parent.items():
        counted_sides.setdefault(vertices.find((tet, v)), set()).add(
            sides.find((tet, v, f))
        )
    for (tet, v, w), _ in tips.parent.items():
        counted_tips.setdefault(vertices.find((tet, v)), set()).add(
            tips.find((tet, v, w))
        )
    for root, f_count in corner_count.items():
        chi[root] = (
            len(counted_tips.get(root, set()))
            - len(counted_sides.get(root, set()))
            + f_count
        )
    return chi


def _edge_orbits(tri: Triangulation) -> tuple[_Orbits, _Orbits]:
    """Orbits of edges (tet, a, b), a < b, and of directed edges (tet, a, b)."""
    edges = _Orbits(
        [(tet, a, b) for tet in range(tri.t) for a in range(4) for b in range(4) if a < b]
    )
    directed = _Orbits(
        [(tet, a, b) for tet in range(tri.t) for a in range(4) for b in range(4) if a != b]
    )
    for fp in tri.pairings():
        (tet, face), (tet2, _), perm = fp.source, fp.target, fp.perm
        for a in range(4):
            for b in range(4):
                if a == b or face in (a, b):
                    continue
                directed.union((tet, a, b), (tet2, perm(a), perm(b)))
                if a < b:
                    pa, pb = sorted((perm(a), perm(b)))
                    edges.union((tet, a, b), (tet2, pa, pb))
    return edges, directed


def chain_complex_h1(tri: Triangulation) -> tuple[int, list[int]]:
    """H_1 from cellular boundary matrices of the identified complex,
    using the minors oracle for the torsion."""
    edges, directed = _edge_orbits(tri)
    vertices = _vertex_orbits(tri)

    edge_roots = sorted(edges.classes())
    edge_index = {root: k for k, root in enumerate(edge_roots)}
    vertex_roots = sorted(vertices.classes())
    vertex_index = {root: k for k, root in enumerate(vertex_roots)}

    def edge_sign(tet, a, b):
        """+1 if (a -> b) agrees with the class representative's low-to-high
        direction, -1 otherwise."""
        root = edges.find((tet, min(a, b), max(a, b)))
        rep = min(edges.classes()[root])
        positive = directed.find((rep[0], rep[1], rep[2]))
        this = directed.find((tet, a, b))
        if this == positive:
            return 1
        assert this == directed.find((rep[0], rep[2], rep[1]))
        return -1

    # one face class per pairing; boundary of (p<q<r) is [q,r]-[p,r]+[p,q]
    face_reps = [fp.source for fp in tri.pairings()]
    d2 = [[0] * len(face_reps) for _ in edge_roots]
    for col, (tet, face) in enumerate(face_reps):
        p, q, r = [v for v in range(4) if v != face]
        for (a, b), coeff in (((q, r), 1), ((p, r), -1), ((p, q), 1)):
            row = edge_index[edges.find((tet, a, b))]
            d2[row][col] += coeff * edge_sign(tet, a, b)

    d1 = [[0] * len(edge_roots) for _ in vertex_roots]
    for root, members in edges.classes().items():
        rep = min(members)
        tet, a, b = rep
        col = edge_index[root]
        d1[vertex_index[vertices.find((tet, b))]][col] += 1
        d1[vertex_index[vertices.find((tet, a))]][col] -= 1

    rank_d1 = rank_rational(d1) if vertex_roots else 0
    factors = invariant_factors_by_minors(d2)
    torsion = sorted(f for f in factors if f > 1)
    free_rank = len(edge_roots) - rank_d1 - len(factors)
    return free_rank, torsion


# ----------------------------------------------------------------------
# the triangulation chain as the library computed it before it read
# everything off one directed-edge walk: three orbit passes, a dual
# spanning graph for the orientation, and a cell structure for pi1


_PERMUTATIONS = tuple(itertools.permutations(range(4)))
# faces holding each vertex, edge and directed edge of a tetrahedron, and
# the maps a permutation induces on edges and directed edges
_VERTEX_FACES = tuple(tuple(f for f in range(4) if f != v) for v in range(4))
_EDGE_FACES = tuple(tuple(f for f in range(4) if f not in pair) for pair in EDGE_PAIRS)
_DIRECTED_FACES = tuple(tuple(f for f in range(4) if f not in pair) for pair in DIRECTED_PAIRS)
_EDGE_MAP = tuple(
    tuple(EDGE_INDEX[tuple(sorted((images[a], images[b])))] for a, b in EDGE_PAIRS)
    for images in _PERMUTATIONS
)
_DIRECTED_MAP = tuple(
    tuple(DIRECTED_INDEX[(images[a], images[b])] for a, b in DIRECTED_PAIRS)
    for images in _PERMUTATIONS
)


def _orbit_roots(gluings, width: int, faces_of, maps) -> tuple[int, ...]:
    """Slot -> smallest slot of its orbit, for slots of `width` per
    tetrahedron, by depth-first search from each unlabelled slot in
    increasing order."""
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


def three_pass_orbit_roots(tri: Triangulation):
    """(vertex, edge, directed-edge) roots, one depth-first pass each."""
    return (
        _orbit_roots(tri.gluings, 4, _VERTEX_FACES, _PERMUTATIONS),
        _orbit_roots(tri.gluings, 6, _EDGE_FACES, _EDGE_MAP),
        _orbit_roots(tri.gluings, 12, _DIRECTED_FACES, _DIRECTED_MAP),
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
    if not is_connected(tri):
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


def tree_orientation_check(tri: Triangulation) -> OrientationResult:
    """Signs propagated over the dual spanning tree; the first violated
    non-tree pairing in canonical order is the witness."""
    graph = dual_graph(tri)
    tree_nbrs: list[list[tuple[int, int]]] = [[] for _ in range(tri.t)]
    for fp in graph.tree_edges():
        a, b = fp.source[0], fp.target[0]
        want = 1 if perm_is_odd(fp.perm) else -1
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
        want = 1 if perm_is_odd(fp.perm) else -1
        if sign[a] * sign[b] != want:
            return OrientationResult(False, None, fp)
    return OrientationResult(True, tuple(sign), None)


@dataclass(frozen=True)
class CellStructure:
    """Identified cells with chosen orientations.  Edge classes are
    numbered in order of their smallest slot, whose low-to-high direction
    is positive; directed_sign maps each directed edge slot to its
    (class, sign)."""

    tri: Triangulation
    vertex_class: tuple[int, ...]  # 4t slots -> class index
    n_vertices: int
    edge_class: tuple[int, ...]  # 6t slots -> class index
    n_edges: int
    edge_reps: tuple[tuple[int, int], ...]  # class -> (tet, edge idx)
    directed_sign: tuple[tuple[int, int], ...]  # 12t slots -> (class, +-1)
    face_classes: tuple[tuple[tuple[int, int], ...], ...]
    face_reps: tuple[tuple[int, int], ...]


_EDGE_OF_DIRECTED = tuple(EDGE_INDEX[tuple(sorted(pair))] for pair in DIRECTED_PAIRS)
# boundary of face f (opposite vertex f) as directed edges p->q, q->r, r->p
_FACE_BOUNDARY = tuple(
    tuple(DIRECTED_INDEX[pair] for pair in ((p, q), (q, r), (r, p)))
    for p, q, r in (tuple(v for v in range(4) if v != f) for f in range(4))
)


def _class_indices(roots):
    """Slot -> class index, classes numbered in order of their root; and
    the roots in that order."""
    index = [0] * len(roots)
    reps: list[int] = []
    for x, root in enumerate(roots):
        if x == root:
            index[x] = len(reps)
            reps.append(x)
        else:
            index[x] = index[root]
    return tuple(index), reps


def cell_structure(tri: Triangulation) -> CellStructure:
    """Orbit closure of vertices, edges and faces, from the three-pass roots."""
    vroot, eroot, droot = three_pass_orbit_roots(tri)
    vertex_class, vreps = _class_indices(vroot)
    edge_class, ereps = _class_indices(eroot)
    edge_reps = tuple(divmod(root, 6) for root in ereps)
    positive_root = []
    for tet, eidx in edge_reps:
        fwd, back = EDGE_DIRECTIONS[eidx]
        if droot[12 * tet + fwd] == droot[12 * tet + back]:
            raise TriangulationError("edge glued to itself in reverse; no orientation")
        positive_root.append(droot[12 * tet + fwd])
    directed_sign = []
    for x, root in enumerate(droot):
        cls = edge_class[6 * (x // 12) + _EDGE_OF_DIRECTED[x % 12]]
        directed_sign.append((cls, 1 if root == positive_root[cls] else -1))
    face_classes = tuple(
        ((tet, face), (tet2, face2))
        for tet, row in enumerate(tri.gluings)
        for face, (tet2, face2, _) in enumerate(row)
        if (tet, face) <= (tet2, face2)
    )
    return CellStructure(
        tri=tri,
        vertex_class=vertex_class,
        n_vertices=len(vreps),
        edge_class=edge_class,
        n_edges=len(ereps),
        edge_reps=edge_reps,
        directed_sign=tuple(directed_sign),
        face_classes=face_classes,
        face_reps=tuple(cls[0] for cls in face_classes),
    )


def _skeleton_tree(cs: CellStructure) -> set[int]:
    """Maximal tree in the identified 1-skeleton, as edge class indices."""
    uf = UnionFind(cs.n_vertices)
    tree: set[int] = set()
    for cls, (tet, eidx) in enumerate(cs.edge_reps):
        a, b = EDGE_PAIRS[eidx]
        va, vb = cs.vertex_class[4 * tet + a], cs.vertex_class[4 * tet + b]
        if uf.find(va) != uf.find(vb):
            uf.union(va, vb)
            tree.add(cls)
    return tree


def reduced_word(w: Word) -> Word:
    """The free reduction of w: cancel each letter against an inverse
    letter before it, by one stack pass; w itself when nothing cancels."""
    out: list[tuple[int, int]] = []
    for letter in w.letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    if len(out) == len(w.letters):
        return w
    return Word(tuple(out))


def cell_fundamental_group(tri: Triangulation) -> GroupPresentation:
    """Edge-class generators, triangle-boundary relators, tree edges killed."""
    if not is_connected(tri):
        raise DisconnectedError("triangulation is not connected")
    cs = cell_structure(tri)
    tree = _skeleton_tree(cs)
    gen_index: dict[int, int] = {}
    for cls in range(cs.n_edges):
        if cls not in tree:
            gen_index[cls] = len(gen_index)
    relators = []
    for tet, face in cs.face_reps:
        letters = []
        for d in _FACE_BOUNDARY[face]:
            cls, sign = cs.directed_sign[12 * tet + d]
            if cls not in tree:
                letters.append((gen_index[cls], sign))
        relators.append(reduced_word(Word(tuple(letters))))
    return GroupPresentation(g=len(gen_index), relators=tuple(relators))


def dual_presentation(tri: Triangulation) -> GroupPresentation:
    """pi1 read off the dual cell complex: a generator per face pairing
    off the breadth-first tree of `dual_graph`, and a relator per edge
    class, the pairings crossed in one walk around the edge.

    The walk starts at the first (tet, edge) of the class and leaves
    through the edge's smaller face; in each tetrahedron reached it
    leaves through the edge's face other than the one it entered by,
    until it is back at the start.  Crossing a pairing from its source
    reads its generator, from its target the inverse.  For a closed
    3-manifold the dual complex is a cell structure of it, so this
    presents its fundamental group."""
    graph = dual_graph(tri)
    letter = {}  # (tet, face) -> (generator, +-1) when crossed from there
    for fp in graph.non_tree_edges():
        letter[fp.source] = (len(letter) // 2, 1)
        letter[fp.target] = (len(letter) // 2, -1)
    seen = set()  # (tet, edge as a set) already walked round
    relators = []
    for tet in range(tri.t):
        for edge in EDGE_PAIRS:
            if (tet, frozenset(edge)) in seen:
                continue
            here, face = tet, min(f for f in range(4) if f not in edge)
            start = (here, frozenset(edge), face)
            letters = []
            while True:
                seen.add((here, frozenset(edge)))
                if (here, face) in letter:
                    letters.append(letter[here, face])
                here, entered, perm = tri.gluings[here][face]
                edge = (perm(edge[0]), perm(edge[1]))
                face = next(f for f in range(4) if f not in edge and f != entered)
                if (here, frozenset(edge), face) == start:
                    break
            relators.append(reduced_word(Word(tuple(letters))))
    return GroupPresentation(g=len(letter) // 2, relators=tuple(relators))


def s4_homomorphism_count(pres: GroupPresentation) -> int:
    """|Hom(G, S4)| for the group G that pres presents, by depth-first
    search over the generators' images.

    The order of the search is fixed first: a generator that occurs once
    in a relator whose other generators come before it is solved from
    that relator; else the one in most relator letters is tried as each
    of the 24 elements.  Each relator is checked as soon as its last
    generator has an image."""
    elements = list(itertools.permutations(range(4)))
    index = {x: k for k, x in enumerate(elements)}
    mul = [[index[tuple(x[i] for i in y)] for y in elements] for x in elements]
    inv = [index[tuple(x.index(v) for v in range(4))] for x in elements]
    words = [w.letters for w in pres.relators]
    steps = []  # (generator, (relator, position) or None, relators it completes)
    known: set[int] = set()
    pending = list(range(len(words)))
    while len(known) < pres.g:
        solve = None
        for r in pending:
            unknown = [k for k, (gen, _) in enumerate(words[r]) if gen not in known]
            if len(unknown) == 1:
                solve = (r, unknown[0])
                break
        if solve is not None:
            gen = words[solve[0]][solve[1]][0]
        else:
            counts = collections.Counter(g for w in words for g, _ in w if g not in known)
            gen = max(range(pres.g), key=lambda g: (g not in known, counts[g]))
        known.add(gen)
        done = [r for r in pending if all(g in known for g, _ in words[r])]
        pending = [r for r in pending if r not in done]
        steps.append((gen, solve, done))

    def value(letters, images) -> int:
        x = 0  # the identity is the first permutation
        for gen, e in letters:
            x = mul[x][images[gen] if e == 1 else inv[images[gen]]]
        return x

    images = {}

    def search(i: int) -> int:
        if i == len(steps):
            return 1
        gen, solve, done = steps[i]
        if solve is None:
            candidates = range(24)
        else:  # u x^e v = 1, so x^e = u^-1 v^-1
            letters, k = words[solve[0]], solve[1]
            x = mul[inv[value(letters[:k], images)]][inv[value(letters[k + 1:], images)]]
            candidates = [x if letters[k][1] == 1 else inv[x]]
        total = 0
        for x in candidates:
            images[gen] = x
            if all(value(words[r], images) == 0 for r in done):
                total += search(i + 1)
        del images[gen]
        return total

    return search(0)


def closure_assemble(t: int, gluings) -> Triangulation:
    """Gluings (tet, face, tet2, face2, perm) checked one by one, then
    recorded both ways into a dict keyed by (tet, face) by a per-gluing
    closure, the first record of a face standing.  Errors are named in
    the parser's order: the first gluing out of range or whose perm
    misses its face, then the first record that disagrees with its
    face's, then the first face glued to itself, then the first unpaired
    face.  That face lies among the first len(table) + 1 in the order
    4*tet + face, so only those are looked at, and a large t costs no
    work of order t.  A negative t with no gluing is refused."""
    for tet, face, tet2, face2, perm in gluings:
        for tt, ff in ((tet, face), (tet2, face2)):
            if not (0 <= tt < t and 0 <= ff < 4):
                raise TriangulationError(f"face index out of range: {tt}:{ff}")
        if perm(face) != face2:
            raise TriangulationError(
                f"pairing {(tet, face)} -> {(tet2, face2)} does not map the "
                f"opposite vertex correctly (perm={perm})"
            )
    if t < 0:
        raise TriangulationError(f"negative tetrahedron count: {t}")
    table = {}
    clashes = []

    def record(tet, face, tet2, face2, perm):
        if table.setdefault((tet, face), (tet2, face2, perm)) != (tet2, face2, perm):
            clashes.append((tet, face))

    for tet, face, tet2, face2, perm in gluings:
        record(tet, face, tet2, face2, perm)
        record(tet2, face2, tet, face, perm.inverse())
    if clashes:
        raise TriangulationError("pairing not an involution at face {}:{}".format(*clashes[0]))
    for tet, face, tet2, face2, _ in gluings:
        if (tet, face) == (tet2, face2):
            raise TriangulationError(f"face {tet}:{face} glued to itself")
    for slot in range(min(4 * t, len(table) + 1)):
        if divmod(slot, 4) not in table:
            raise TriangulationError("face {}:{} is unpaired".format(*divmod(slot, 4)))
    return Triangulation(t, tuple(tuple(table[tet, face] for face in range(4)) for tet in range(t)))


def pairings_format_triangulation(tri: Triangulation, comment: str = "") -> str:
    """The gluing text as format_triangulation wrote it before it read
    the table itself: one checked FacePairing per gluing, through
    Triangulation.pairings(), and each perm's digits joined one by one."""
    lines = []
    if comment:
        lines.extend(f"# {row}" for row in comment.splitlines())
    lines.append(f"t={tri.t}")
    for fp in tri.pairings():
        (a, f), (b, g) = fp.source, fp.target
        lines.append(f"{a}:{f} -> {b}:{g} perm={''.join(str(v) for v in fp.perm.images)}")
    return "\n".join(lines) + "\n"


def closure_parse_triangulation(text: str) -> Triangulation:
    """The gluing format read line by line, each line stripped of its
    comment and blanks first, then assembled by `closure_assemble`."""
    header = re.compile(r"^\s*t\s*=\s*(\d+)\s*$")
    gluing = re.compile(
        r"^\s*(\d+)\s*:\s*([0-3])\s*->\s*(\d+)\s*:\s*([0-3])\s*perm\s*=\s*([0-3]{4})\s*$"
    )
    t = None
    gluings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if t is None:
            m = header.match(line)
            if not m:
                raise TriangulationError(f"line {lineno}: expected 't=<N>' header")
            t = int(m.group(1))
            if t <= 0:
                raise TriangulationError(f"line {lineno}: need at least one tetrahedron")
            continue
        m = gluing.match(line)
        if not m:
            raise TriangulationError(f"line {lineno}: cannot parse gluing: {line!r}")
        tet, face, tet2, face2 = (int(x) for x in m.groups()[:4])
        images = tuple(int(ch) for ch in m.group(5))
        if sorted(images) != [0, 1, 2, 3]:
            raise TriangulationError(f"line {lineno}: not a permutation of 0..3: {images}")
        perm = Permutation4(images)
        if not (0 <= tet < t and 0 <= tet2 < t):
            raise TriangulationError(f"line {lineno}: tetrahedron index out of range")
        if perm(face) != face2:
            raise TriangulationError(f"line {lineno}: perm does not send face {face} to face {face2}")
        gluings.append((tet, face, tet2, face2, perm))
    if t is None:
        raise TriangulationError("missing 't=<N>' header")
    return closure_assemble(t, gluings)


# ----------------------------------------------------------------------
# generators for randomized checks


def random_gluing_table(t: int, rng: random.Random, connected: bool = True) -> Triangulation:
    """A random legal table: faces paired in an involution with compatible
    permutations.  Not necessarily a manifold."""
    while True:
        slots = [(tet, face) for tet in range(t) for face in range(4)]
        rng.shuffle(slots)
        gluings = []
        for k in range(0, len(slots), 2):
            (tet, f), (tet2, g) = slots[k], slots[k + 1]
            others = [v for v in range(4) if v != f]
            targets = [v for v in range(4) if v != g]
            rng.shuffle(targets)
            images = [0] * 4
            images[f] = g
            for v, w in zip(others, targets):
                images[v] = w
            gluings.append((tet, f, tet2, g, Permutation4(tuple(images))))
        tri = make_triangulation(t, gluings)
        if connected and not is_connected(tri):
            continue
        return tri


def table_built_directly(rng: random.Random, sends_faces: bool = False) -> Triangulation:
    """Rows of random (tet, face, perm) entries on 1 to 3 tetrahedra,
    skipping make_triangulation, so faces need not pair both ways.  With
    sends_faces, each entry's perm sends its own face to the entry's
    face, as a FacePairing needs; else it is any of the 24."""
    t = rng.randint(1, 3)
    perms = [Permutation4(images) for images in itertools.permutations(range(4))]
    rows = []
    for _ in range(t):
        row = []
        for face in range(4):
            tet2, face2 = rng.randrange(t), rng.randrange(4)
            row.append((tet2, face2, rng.choice(
                [perm for perm in perms if perm(face) == face2] if sends_faces else perms
            )))
        rows.append(tuple(row))
    return Triangulation(t, tuple(rows))


def disjoint_union(a: Triangulation, b: Triangulation) -> Triangulation:
    """Tetrahedra of b renumbered after those of a, no gluing between them."""
    shifted = relabeled_gluings(b, range(a.t, a.t + b.t))
    return make_triangulation(a.t + b.t, relabeled_gluings(a, range(a.t)) + shifted)


def relabel_triangulation(tri: Triangulation, perm: list[int]) -> Triangulation:
    """Rename tetrahedron i to perm[i]."""
    return make_triangulation(tri.t, relabeled_gluings(tri, perm))


def relabeled_gluings(tri: Triangulation, perm) -> list[tuple]:
    """Each gluing of tri once, as (tet, face, tet2, face2, perm), with
    tetrahedron i renamed perm[i]."""
    return [
        (perm[fp.source[0]], fp.source[1], perm[fp.target[0]], fp.target[1], fp.perm)
        for fp in tri.pairings()
    ]


def random_presentation(rng: random.Random):
    g = rng.randint(1, 6)
    r = rng.randint(1, 8)
    relators = []
    for _ in range(r):
        length = rng.randint(1, 6)
        letters = tuple(
            (rng.randrange(g), rng.choice((1, -1))) for _ in range(length)
        )
        relators.append(Word(letters))
    return GroupPresentation(g=g, relators=tuple(relators))


def closure_by_rescan(pres: GroupPresentation) -> tuple:
    """(seeds, program, left) of `presentation.closure`, in the order its
    docstring states, with every relator's undetermined letters
    recounted from its word at each step: quadratic, and sharing no
    counter or occurrence index with the library's pass."""
    relators = range(len(pres.relators))
    determined: set[int] = set()

    def undetermined(r: int) -> int:
        return sum(1 for gen, _ in pres.relators[r].letters if gen not in determined)

    seeds, program = [], []
    queue = deque(r for r in relators if undetermined(r) == 1)
    while len(determined) < pres.g:
        if queue:
            r = queue.popleft()
            if undetermined(r) != 1:
                continue
            gen = next(x for x, _ in pres.relators[r].letters if x not in determined)
            program.append((gen, r))
        else:
            gen = min(set(range(pres.g)) - determined)
            seeds.append(gen)
        before = [undetermined(r) for r in relators]
        determined.add(gen)
        # the relators whose count passes through 1, in index order
        queue.extend(r for r in relators if before[r] > 1 >= undetermined(r))
    defining = {r for _, r in program}
    return tuple(seeds), tuple(program), tuple(r for r in relators if r not in defining)


# ----------------------------------------------------------------------
# number theory closed forms


def cyclotomic_closed_form(k: int, at: int) -> int:
    """Known values of Phi_k at +-1."""
    def prime_power(m):
        for p in range(2, m + 1):
            if m % p == 0:
                while m % p == 0:
                    m //= p
                return p if m == 1 else None
        return None

    if at == 1:
        # Phi_k(1): 0 for k=1, p for prime powers p^e, 1 otherwise
        if k == 1:
            return 0
        p = prime_power(k)
        return p if p is not None else 1
    # Phi_k(-1): -2 for k=1, 0 for k=2, p for k = 2p^e, 1 otherwise
    if k == 1:
        return -2
    if k == 2:
        return 0
    if k % 2 == 0:
        p = prime_power(k // 2)
        if p is not None:
            return p
    return 1


def float_cosine_norm(n: int, shift: float) -> float:
    out = 1.0
    for l in range(1, 2 * n):
        if math.gcd(l, 2 * n) == 1:
            out *= abs(2 * math.cos(2 * math.pi * l / (2 * n)) - shift)
    return out


def primes_in_progression_by_scan(l: int, count: int = 1) -> list[int]:
    """Trial-division scan, independent of the library's Miller-Rabin."""
    found = []
    candidate = l + 1
    while len(found) < count:
        is_p = candidate >= 2 and all(
            candidate % d != 0 for d in range(2, int(candidate**0.5) + 1)
        )
        if is_p:
            found.append(candidate)
        candidate += l
    return found


# ----------------------------------------------------------------------
# 2x2 matrices over FieldElement, with no sign normalization


def matrix_product(m, n):
    """Entries (a, b, c, d) of the product of two entry tuples."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def matrix_inverse(m):
    """Adjugate of a determinant-1 entry tuple."""
    a, b, c, d = m
    return (d, -b, -c, a)


def letter_by_letter_fold(p: int, s: int, images: Sequence[tuple], letters) -> tuple:
    """fold_letters' value and verify's charge, one plain 2x2 product per letter:
    images[gen] holds the 8 coordinates (a0, a1, ..., d1) of a
    determinant-1 matrix over F_p[w]/(w^2 - s) (s = 0 for F_p), a ^-1
    letter reads the adjugate.  Returns (coords, mat_mults, field_ops):
    the product's coordinates with the first nonzero one in
    [0, (p-1)/2], one multiply and 12 field ops per letter, and 2 more
    field ops per ^-1 letter."""

    def times(x, y):
        return ((x[0] * y[0] + s * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def plus(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def minus(x):
        return (-x[0] % p, -x[1] % p)

    rows = [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]
    field_ops = 0
    for gen, exp in letters:
        v = images[gen]
        m = [[(v[0], v[1]), (v[2], v[3])], [(v[4], v[5]), (v[6], v[7])]]
        if exp == -1:
            m = [[m[1][1], minus(m[0][1])], [minus(m[1][0]), m[0][0]]]
            field_ops += 2
        rows = [
            [plus(times(rows[i][0], m[0][j]), times(rows[i][1], m[1][j])) for j in range(2)]
            for i in range(2)
        ]
        field_ops += 12
    coords = [c for row in rows for entry in row for c in entry]
    first = next((c for c in coords if c), 0)
    if 2 * first > p - 1:
        coords = [-c % p for c in coords]
    return tuple(coords), len(letters), field_ops


def equal_up_to_sign(m, n) -> bool:
    return tuple(m) == tuple(n) or tuple(m) == tuple(-x for x in n)


def naive_projective_order(m, limit: int) -> int:
    """Least k <= limit with M^k = +-I, by repeated multiplication."""
    spec = m[0].spec
    one, zero = spec.one(), spec.zero()
    power = tuple(m)
    for k in range(1, limit + 1):
        if equal_up_to_sign(power, (one, zero, zero, one)):
            return k
        power = matrix_product(power, m)
    raise AssertionError(f"no projective order up to {limit}")


def power_has_order(m: ProjMatrix, n: int) -> bool:
    """True iff M has projective order exactly n: M^n is trivial and
    M^(n/l) is not, for every prime l dividing n.  This is the library's
    order check before it walked the trace recurrence."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if not m.power(n).is_identity():
        return False
    return not any(m.power(n // l).is_identity() for l in factorize(n))


# ----------------------------------------------------------------------
# the triangle construction on FieldElement, as the library computed it
# before it moved to plain ints


def fraction_classify(n1: int, n2: int, n3: int) -> TriangleType:
    """The sorted triple, classified by the sign of 1/n1 + 1/n2 + 1/n3 - 1
    summed in Fractions, as the library did before it compared ints."""
    ns = sorted((n1, n2, n3))
    if ns[0] < 2:
        raise ValueError("triangle group orders must be at least 2")
    total = Fraction(1, ns[0]) + Fraction(1, ns[1]) + Fraction(1, ns[2])
    if total < 1:
        curvature = HYPERBOLIC
    elif total == 1:
        curvature = EUCLIDEAN
    else:
        curvature = SPHERICAL
    ell = 2 * math.lcm(ns[0], ns[1], ns[2])
    d = math.gcd(ns[0], math.gcd(ns[1], ns[2]))
    return TriangleType(ns[0], ns[1], ns[2], ell, d, curvature)


def field_reduced_cosines(p: int, ell: int, triple):
    """(zeta, C1, C2, C3) as FieldElements of F_p: C_k = z^k + z^-k with
    k = ell/2n_k, the inverse taken in the field."""
    zeta = root_of_unity(FieldSpec(p), ell)
    cs = []
    for n in triple:
        zk = zeta ** (ell // (2 * n))
        cs.append(zk + zk.inverse())
    return (zeta, cs[0], cs[1], cs[2])


def field_solve_r(spec: FieldSpec, c1, c2, c3):
    """(spec, r) with r a root of r^2 + r(C1-C2) + (2 - C1*C2 - C3), in
    F_p when the discriminant is a residue and in F_{p^2} otherwise."""
    p = spec.p
    two = spec.element(2)
    lin = c1 - c2
    const = two - c1 * c2 - c3
    disc = lin * lin - spec.element(4) * const
    if is_quadratic_residue(disc.a, p):
        out_spec = spec
        sqrt_disc = spec.element(sqrt_mod_p(disc.a, p))
    else:
        out_spec = quadratic_extension(spec)
        scaled = disc.a * pow(out_spec.s, p - 2, p) % p
        sqrt_disc = out_spec.element(0, sqrt_mod_p(scaled, p))
        lin, c1, c2, c3 = (out_spec.element(x.a) for x in (lin, c1, c2, c3))
    r = (sqrt_disc - lin) * out_spec.element(2).inverse()
    assert (r * r + r * lin + (out_spec.element(2) - c1 * c2 - c3)).is_zero()
    return out_spec, r


@dataclass(frozen=True)
class HyperbolicParameters:
    """What a coprime hyperbolic build computes on the way to its
    matrices: the image's field, and C1, C2, C3 and r as elements of it."""

    spec: FieldSpec
    c1: FieldElement
    c2: FieldElement
    c3: FieldElement
    r: FieldElement


def hyperbolic_parameters(t: TriangleType) -> HyperbolicParameters:
    """C1, C2, C3 and r for the coprime hyperbolic triple t, recomputed
    through the public smallest_prime_in_progression, root_of_unity,
    reduced_cosines and solve_r, in the order the build takes them."""
    base = FieldSpec(smallest_prime_in_progression(t.ell))
    zeta = root_of_unity(base, t.ell).a
    cosines = reduced_cosines(base, t.ell, zeta, t.triple)
    spec, r = solve_r(base, *cosines)
    c1, c2, c3 = (spec.element(c) for c in cosines)
    return HyperbolicParameters(spec, c1, c2, c3, spec.element(*r))


def field_dihedral_pair(m: int) -> tuple[ProjMatrix, ProjMatrix]:
    """x = diag(i, -i) and y = [[i, i], [0, -i]] for odd m, built from
    FieldElements over F_p, or F_p[i] when p = 3 (mod 4), for the
    smallest prime divisor p of m."""
    p = min(factorize(m))
    spec = FieldSpec(p) if p % 4 == 1 else quadratic_extension(FieldSpec(p))
    i = imaginary_unit(spec)
    zero = spec.zero()
    return ProjMatrix(i, zero, zero, -i), ProjMatrix(i, i, zero, -i)


def conjugate_by_translation(spec: FieldSpec, c, r) -> ProjMatrix:
    """T [[C, 1], [-1, 0]] T^-1 with T = [[1, r], [0, 1]], for field
    elements c and r of spec, by two ProjMatrix products and an inverse."""
    one, zero = spec.one(), spec.zero()
    t_r = ProjMatrix(one, r, zero, one)
    return t_r.mul(ProjMatrix(c, one, -one, zero)).mul(t_r.inverse())


def dense_abelian_report(cert: Certificate) -> VerificationReport:
    """verify on a NonCyclicAbelian certificate, by the loop the library
    ran before it kept only the sums a relator touches: a list of all g
    exponent sums per relator, scanned in generator order, so the cost is
    g times the relator count."""
    assert cert.kind == NON_CYCLIC
    text_bytes = cert.text_bytes
    if text_bytes is None:
        text_bytes = len(serialize(cert).encode())
    field_ops = 0

    def report(accepted, reason):
        return VerificationReport(
            accepted=accepted,
            kind=cert.kind,
            reason=reason,
            relator_mat_mults=0,
            mat_mults=0,
            field_ops=field_ops,
            cert_bits=8 * text_bytes,
            matrix_bits=(),
        )

    pres = cert.presentation
    a, b = cert.target
    images = cert.abelian_images
    for k, rel in enumerate(pres.relators):
        sums = [0] * pres.g
        for gen, exp in rel.letters:
            sums[gen] += exp
        u = v = 0
        for i, e in enumerate(sums):
            if e:
                u += e * images[i][0]
                v += e * images[i][1]
                field_ops += 4
        if u % a or v % b:
            return report(False, f"relator {k} image is nonzero in the target")
    s1, _s2 = subgroup_invariants(a, b, images)
    if s1 <= 1:
        return report(False, "generator images span a cyclic subgroup")
    return report(True, None)


def spliced_word_image(cert: Certificate, word: Word):
    """The entries (a, b, c, d) of a presentation word's image, with each
    letter spelled out through its surjection word (inverted for a ^-1
    letter), if the certificate has one, and the matrix letters multiplied
    one by one with matrix_product: correct up to sign."""
    spec = cert.field
    one, zero = spec.one(), spec.zero()
    mats = [m.entries() for m in cert.rep_images]
    out = (one, zero, zero, one)
    for gen, exp in word.letters:
        if cert.surjection is None:
            letters = ((gen, exp),)
        else:
            pushed = cert.surjection[gen]
            letters = (pushed if exp == 1 else pushed.inverse()).letters
        for k, e in letters:
            out = matrix_product(out, mats[k] if e == 1 else matrix_inverse(mats[k]))
    return out


def spliced_rep_verdict(cert: Certificate) -> tuple[bool, str | None]:
    """verify's verdict and reason on a NonAbelianRep certificate, by the
    checks the library made before it folded each surjection word once:
    every relator and witness letter spelled out through the surjection
    (spliced_word_image), and a check that some generator's image is
    non-trivial between the relators and the witness."""
    assert cert.kind == NON_ABELIAN
    pres = cert.presentation
    spec = cert.field
    identity = (spec.one(), spec.zero(), spec.zero(), spec.one())
    for k, rel in enumerate(pres.relators):
        if not equal_up_to_sign(spliced_word_image(cert, rel), identity):
            return False, f"relator {k} does not map to the identity"
    if all(
        equal_up_to_sign(spliced_word_image(cert, Word(((i, 1),))), identity)
        for i in range(pres.g)
    ):
        return False, "every generator maps to the identity"
    w1, w2 = cert.witness
    if equal_up_to_sign(spliced_word_image(cert, w1), spliced_word_image(cert, w2)):
        return False, "witness words have equal images"
    n = len(w1.letters)
    if len(w2.letters) != n or not any(
        w2.letters == w1.letters[k:] + w1.letters[:k] for k in range(1, n)
    ):
        return False, "witness words are not cyclic rotations uv, vu of each other"
    return True, None


def snf_subgroup_invariants(a: int, b: int, images) -> tuple[int, int]:
    """Invariant factors (s1 | s2) of the subgroup of Z/a x Z/b generated by
    the images, from two Smith normal forms: one gives a basis C of the
    lattice L spanned by the images, (a,0) and (0,b); the other the
    invariant factors of a*Z + b*Z in the coordinates of C.  Both are
    two_sided_smith_normal_form, which shares no code with the library."""
    rows = [list(img) for img in images] + [[a, 0], [0, b]]
    (d1, d2), _, _, v_matrix = two_sided_smith_normal_form(IntMatrix(rows, cols=2))
    v = v_matrix.entries
    det_v = det_int(v)
    vinv = [
        [det_v * v[1][1], -det_v * v[0][1]],
        [-det_v * v[1][0], det_v * v[0][0]],
    ]
    c = [[d1 * vinv[0][0], d1 * vinv[0][1]], [d2 * vinv[1][0], d2 * vinv[1][1]]]
    det_c = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    adj = [[c[1][1], -c[0][1]], [-c[1][0], c[0][0]]]
    w = [[a * adj[0][0], a * adj[0][1]], [b * adj[1][0], b * adj[1][1]]]
    for i in range(2):
        for j in range(2):
            assert w[i][j] % det_c == 0
            w[i][j] //= det_c
    s1, s2 = two_sided_smith_normal_form(IntMatrix(w))[0]
    return s1, s2


# ----------------------------------------------------------------------
# group orders and the spherical-pair search


def psl_group_order(spec: FieldSpec) -> int:
    q = spec.order
    return q * (q * q - 1) // math.gcd(2, q - 1)


def element_order(x: FieldElement) -> int:
    """Exact multiplicative order via factoring the group order."""
    if x.is_zero():
        raise ValueError("zero has no multiplicative order")
    one = x.spec.one()
    n = x.spec.order - 1
    for q in factorize(n):
        while n % q == 0 and x ** (n // q) == one:
            n //= q
    return n


def word_power(base: Word, n: int) -> Word:
    if n < 0:
        return word_power(base.inverse(), -n)
    return Word(base.letters * n)


def exponent_matrix(pres: GroupPresentation) -> IntMatrix:
    """r x g integer matrix of signed exponent sums, counted letter by
    letter."""
    rows = []
    for w in pres.relators:
        row = [0] * pres.g
        for gen, exp in w.letters:
            row[gen] += exp
        rows.append(row)
    return IntMatrix(rows, cols=pres.g)


def int_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The integer matrix product a * b, entry by entry."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    data = [
        [sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    return IntMatrix(data, cols=b.cols)


def int_identity(n: int) -> IntMatrix:
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def field_elements(spec: FieldSpec) -> list[FieldElement]:
    """All field elements in (a, b) lexicographic order."""
    seconds = range(spec.p) if spec.degree == 2 else (0,)
    return [FieldElement(spec, a, b) for a in range(spec.p) for b in seconds]


def psl_elements(spec: FieldSpec) -> list[ProjMatrix]:
    """All of PSL(2, F) in a deterministic order."""
    found = set()
    zero, one = spec.zero(), spec.one()
    elements = field_elements(spec)
    for a in elements:
        if a.is_zero():
            continue
        inv_a = a.inverse()
        for b in elements:
            for c in elements:
                found.add(ProjMatrix(a, b, c, (one + b * c) * inv_a))
    for b in elements:
        if b.is_zero():
            continue
        c = -b.inverse()
        for d in elements:
            found.add(ProjMatrix(zero, b, c, d))
    return sorted(found, key=lambda m: m.coords)


SPHERICAL_FIELDS = (FieldSpec(3), FieldSpec(5), FieldSpec(7), quadratic_extension(FieldSpec(3)))


def spherical_pair_by_search(n1: int, n2: int, n3: int):
    """First (A, B) over PSL(2, q), q in {3, 5, 7, 9} in turn, with orders
    (n1, n2), order(AB) = n3 and AB != BA; None if there is none."""
    for spec in SPHERICAL_FIELDS:
        elements = psl_elements(spec)
        orders = [projective_order(m, 10**6) for m in elements]
        a_candidates = [m for m, o in zip(elements, orders) if o == n1]
        b_candidates = [m for m, o in zip(elements, orders) if o == n2]
        for a in a_candidates:
            for b in b_candidates:
                ab = a.mul(b)
                if ab != b.mul(a) and projective_order(ab, 10**6) == n3:
                    return (a, b)
    return None
