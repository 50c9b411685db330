"""Fundamental-group presentations extracted from triangulations.

The presentation is the simplicial one: generators are edge classes of
the identified 2-skeleton minus a maximal tree in the 1-skeleton, and
each face class contributes its boundary word, so relators have reduced
length at most 3.  A 1-vertex triangulation with t tetrahedra therefore
yields at most t+1 generators and 2t relators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import parse_decimal
from .triangulation import (
    DIRECTED_INDEX,
    DIRECTED_PAIRS,
    EDGE_DIRECTIONS,
    EDGE_INDEX,
    EDGE_PAIRS,
    DisconnectedError,
    Triangulation,
    TriangulationError,
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
        if len(out) == len(self.letters):
            return self
        return Word(tuple(out))

    def is_reduced(self) -> bool:
        """No letter is followed by its inverse, so reduced() is self: one
        scan over adjacent pairs that allocates nothing."""
        prev_gen, prev_exp = -1, 0
        for gen, exp in self.letters:
            if gen == prev_gen and exp != prev_exp:
                return False
            prev_gen, prev_exp = gen, exp
        return True

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
    """Tokens `label` or `label^k` with |k| <= MAX_WORD_EXPONENT, k a
    canonical decimal (galois.parse_decimal) after an optional '-'."""
    # one shared (gen, +1) and (gen, -1) tuple per label, not one per letter
    letter_of = {lab: ((k, 1), (k, -1)) for k, lab in enumerate(labels)}
    letters: list[tuple[int, int]] = []
    for token in text.split():
        name, caret, exp_text = token.partition("^")
        if name not in letter_of:
            raise ValueError(f"unknown generator {name!r} in word")
        exp = 1
        if caret:
            try:
                if exp_text[:1] == "-":
                    exp = -parse_decimal(exp_text[1:])
                else:
                    exp = parse_decimal(exp_text)
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
    orientation; directed_sign maps each directed edge slot
    (12*tet + DIRECTED_INDEX) to its (class, sign).
    """

    tri: Triangulation
    vertex_class: tuple[int, ...]  # 4t slots -> class index
    n_vertices: int
    edge_class: tuple[int, ...]  # 6t slots -> class index
    n_edges: int
    edge_reps: tuple[tuple[int, int], ...]  # class -> (tet, edge idx)
    directed_sign: tuple[tuple[int, int], ...]  # 12t slots -> (class, +-1)
    face_classes: tuple[tuple[tuple[int, int], ...], ...]
    face_reps: tuple[tuple[int, int], ...]


# undirected edge index of each directed edge
_EDGE_OF_DIRECTED = tuple(EDGE_INDEX[tuple(sorted(pair))] for pair in DIRECTED_PAIRS)
# boundary of face f (opposite vertex f) as directed edges p->q, q->r, r->p
_FACE_BOUNDARY = tuple(
    tuple(DIRECTED_INDEX[pair] for pair in ((p, q), (q, r), (r, p)))
    for p, q, r in (tuple(v for v in range(4) if v != f) for f in range(4))
)


def _class_indices(roots: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """Slot -> class index, classes numbered in order of their smallest
    slot (the root); and the roots in that order."""
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
    """Orbit closure of vertices, edges and faces under the gluings."""
    vroot, eroot, droot = tri.orbit_roots
    vertex_class, vreps = _class_indices(vroot)
    edge_class, ereps = _class_indices(eroot)
    edge_reps = tuple(divmod(root, 6) for root in ereps)

    # Positive orientation: the directed orbit containing the class
    # representative's (low -> high) direction.
    positive_root = []
    for tet, eidx in edge_reps:
        fwd, back = EDGE_DIRECTIONS[eidx]
        if droot[12 * tet + fwd] == droot[12 * tet + back]:
            raise TriangulationError("edge glued to itself in reverse; no orientation")
        positive_root.append(droot[12 * tet + fwd])

    # Every directed slot of a class lies on the positive orbit or on its
    # reverse, since gluings map both directions of an edge together.
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
    face_reps = tuple(cls[0] for cls in face_classes)

    return CellStructure(
        tri=tri,
        vertex_class=vertex_class,
        n_vertices=len(vreps),
        edge_class=edge_class,
        n_edges=len(ereps),
        edge_reps=edge_reps,
        directed_sign=tuple(directed_sign),
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
        letters: list[tuple[int, int]] = []
        for d in _FACE_BOUNDARY[face]:
            cls, sign = cs.directed_sign[12 * tet + d]
            if cls in tree:
                continue
            letters.append((gen_index[cls], sign))
        relators.append(Word(tuple(letters)).reduced())

    return GroupPresentation(g=len(gen_index), relators=tuple(relators))

