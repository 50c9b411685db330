"""Fundamental-group presentations extracted from triangulations.

The presentation is the simplicial one: generators are edge classes of
the identified 2-skeleton minus a maximal tree in the 1-skeleton, and
each face class contributes its boundary word, so relators have reduced
length at most 3.  A 1-vertex triangulation with t tetrahedra therefore
yields at most t+1 generators and 2t relators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangulation import (
    DIRECTED_INDEX,
    EDGE_INDEX,
    EDGE_PAIRS,
    DisconnectedError,
    Triangulation,
    TriangulationError,
    _orbit_unions,
)
from .unionfind import UnionFind

_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(frozen=True)
class Word:
    """A word in group generators: a sequence of (generator, +-1) letters."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for gen, exp in self.letters:
            if exp not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {exp}")
            if gen < 0:
                raise ValueError(f"negative generator index {gen}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def reduced(self) -> "Word":
        out: list[tuple[int, int]] = []
        for letter in self.letters:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return Word(tuple(out))

    def is_reduced(self) -> bool:
        return self.reduced() == self

    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def exponent_sums(self, g: int) -> list[int]:
        sums = [0] * g
        for gen, exp in self.letters:
            if gen >= g:
                raise ValueError(f"generator {gen} out of range for g={g}")
            sums[gen] += exp
        return sums


def word_power(base: Word, n: int) -> Word:
    if n < 0:
        return word_power(base.inverse(), -n)
    return Word(base.letters * n)


def default_labels(g: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(g))


@dataclass(frozen=True)
class GroupPresentation:
    """g generators and a list of relator words."""

    g: int
    relators: tuple[Word, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.labels:
            object.__setattr__(self, "labels", default_labels(self.g))
        if len(self.labels) != self.g:
            raise ValueError("label count does not match generator count")
        if len(set(self.labels)) != self.g:
            raise ValueError("duplicate generator labels")
        for lab in self.labels:
            if not lab or not set(lab) <= _LABEL_CHARS or lab[0].isdigit():
                raise ValueError(f"bad generator label {lab!r}")
        for w in self.relators:
            if w.max_generator() >= self.g:
                raise ValueError("relator references unknown generator")

    def size(self) -> int:
        """Total symbol length: all generators plus all relator letters."""
        return self.g + sum(len(w) for w in self.relators)

    def exponent_rows(self) -> list[list[int]]:
        """Row j holds the signed exponent sums of relator j."""
        return [w.exponent_sums(self.g) for w in self.relators]


def format_word(word: Word, labels: tuple[str, ...]) -> str:
    parts = []
    for gen, exp in word.letters:
        parts.append(labels[gen] if exp == 1 else f"{labels[gen]}^-1")
    return " ".join(parts)


# Largest |k| accepted in a token x^k.  The word is expanded letter by
# letter, so the cap bounds the letters (and later the matrix products)
# that one short token can cost.
MAX_WORD_EXPONENT = 100


def parse_word(text: str, labels: tuple[str, ...]) -> Word:
    """Tokens `label` or `label^k` with |k| <= MAX_WORD_EXPONENT."""
    # one shared (gen, +1) and (gen, -1) tuple per label, not one per letter
    letter_of = {lab: ((k, 1), (k, -1)) for k, lab in enumerate(labels)}
    letters: list[tuple[int, int]] = []
    for token in text.split():
        name, _, exp_text = token.partition("^")
        if name not in letter_of:
            raise ValueError(f"unknown generator {name!r} in word")
        exp = 1
        if exp_text:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            if abs(exp) > MAX_WORD_EXPONENT:
                raise ValueError(
                    f"exponent in token {token!r} exceeds {MAX_WORD_EXPONENT} in absolute value"
                )
        if exp == 0:
            continue
        letters.extend([letter_of[name][exp < 0]] * abs(exp))
    return Word(tuple(letters))


def format_presentation(pres: GroupPresentation) -> list[str]:
    """Canonical text block: gens line with labels, rels count, one word per line."""
    lines = ["gens " + " ".join([str(pres.g), *pres.labels])]
    lines.append(f"rels {len(pres.relators)}")
    lines.extend(format_word(w, pres.labels) for w in pres.relators)
    return lines


@dataclass(frozen=True)
class CellStructure:
    """Identified cells of a triangulation with chosen orientations.

    Edge classes are numbered in order of their smallest slot.  The
    representative slot's low-to-high vertex direction is the positive
    orientation; directed_sign maps each directed edge slot to its
    (class, sign).
    """

    tri: Triangulation
    vertex_class: tuple[int, ...]  # 4t slots -> class index
    n_vertices: int
    edge_class: tuple[int, ...]  # 6t slots -> class index
    n_edges: int
    edge_reps: tuple[tuple[int, int], ...]  # class -> (tet, edge idx)
    directed_sign: dict[tuple[int, int], tuple[int, int]]
    face_classes: tuple[tuple[tuple[int, int], ...], ...]
    face_reps: tuple[tuple[int, int], ...]


def cell_structure(tri: Triangulation) -> CellStructure:
    """Orbit closure of vertices, edges and faces under the gluings."""
    t = tri.t
    verts, edges, dedges = _orbit_unions(tri)

    vroots = sorted({verts.find(x) for x in range(4 * t)})
    vindex = {root: k for k, root in enumerate(vroots)}
    vertex_class = tuple(vindex[verts.find(x)] for x in range(4 * t))

    eroots = sorted({edges.find(x) for x in range(6 * t)})
    eindex = {root: k for k, root in enumerate(eroots)}
    edge_class = tuple(eindex[edges.find(x)] for x in range(6 * t))
    edge_reps = tuple(divmod(root, 6) for root in eroots)

    # Positive orientation: the directed orbit containing the class
    # representative's (low -> high) direction.
    positive_root = {}
    for cls, (tet, eidx) in enumerate(edge_reps):
        a, b = EDGE_PAIRS[eidx]
        positive_root[cls] = dedges.find(12 * tet + DIRECTED_INDEX[(a, b)])

    directed_sign: dict[tuple[int, int], tuple[int, int]] = {}
    for tet in range(t):
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                cls = edge_class[6 * tet + EDGE_INDEX[(min(a, b), max(a, b))]]
                droot = dedges.find(12 * tet + DIRECTED_INDEX[(a, b)])
                neg = dedges.find(
                    12 * edge_reps[cls][0]
                    + DIRECTED_INDEX[EDGE_PAIRS[edge_reps[cls][1]][::-1]]
                )
                if droot == positive_root[cls]:
                    if droot == neg:
                        raise TriangulationError(
                            "edge glued to itself in reverse; no orientation"
                        )
                    directed_sign[(tet, DIRECTED_INDEX[(a, b)])] = (cls, 1)
                elif droot == neg:
                    directed_sign[(tet, DIRECTED_INDEX[(a, b)])] = (cls, -1)
                else:
                    raise TriangulationError("directed edge orbit mismatch")

    face_of: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for fp in tri.pairings():
        face_of[fp.source] = (fp.source, fp.target)
    face_classes = tuple(face_of[key] for key in sorted(face_of))
    face_reps = tuple(cls[0] for cls in face_classes)

    return CellStructure(
        tri=tri,
        vertex_class=vertex_class,
        n_vertices=len(vroots),
        edge_class=edge_class,
        n_edges=len(eroots),
        edge_reps=edge_reps,
        directed_sign=directed_sign,
        face_classes=face_classes,
        face_reps=face_reps,
    )


def _skeleton_tree(cs: CellStructure) -> set[int]:
    """Maximal tree in the identified 1-skeleton, as edge class indices."""
    endpoints = []
    for cls, (tet, eidx) in enumerate(cs.edge_reps):
        a, b = EDGE_PAIRS[eidx]
        endpoints.append(
            (cs.vertex_class[4 * tet + a], cs.vertex_class[4 * tet + b])
        )
    uf = UnionFind(cs.n_vertices)
    tree: set[int] = set()
    for cls, (va, vb) in enumerate(endpoints):
        if uf.find(va) != uf.find(vb):
            uf.union(va, vb)
            tree.add(cls)
    return tree


def fundamental_group(tri: Triangulation) -> GroupPresentation:
    """Edge-class generators, triangle-boundary relators, tree edges killed."""
    if not tri.is_connected():
        raise DisconnectedError("triangulation is not connected")
    cs = cell_structure(tri)
    tree = _skeleton_tree(cs)

    gen_index: dict[int, int] = {}
    for cls in range(cs.n_edges):
        if cls not in tree:
            gen_index[cls] = len(gen_index)

    relators = []
    for tet, face in cs.face_reps:
        p, q, r = [v for v in range(4) if v != face]
        letters: list[tuple[int, int]] = []
        for a, b in ((p, q), (q, r), (r, p)):
            cls, sign = cs.directed_sign[(tet, DIRECTED_INDEX[(a, b)])]
            if cls in tree:
                continue
            letters.append((gen_index[cls], sign))
        relators.append(Word(tuple(letters)).reduced())

    return GroupPresentation(g=len(gen_index), relators=tuple(relators))


def exponent_matrix(pres: GroupPresentation):
    """r x g integer matrix of signed exponent sums."""
    from .intlinalg import IntMatrix

    return IntMatrix(pres.exponent_rows(), cols=pres.g)
