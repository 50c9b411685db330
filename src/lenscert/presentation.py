"""Fundamental-group presentations extracted from triangulations.

The presentation is the simplicial one: generators are edge classes of
the identified 2-skeleton minus a maximal tree in the 1-skeleton, and
each face class contributes its boundary word, so relators have reduced
length at most 3.  A 1-vertex triangulation with t tetrahedra therefore
yields at most t+1 generators and 2t relators.

`fundamental_group` reads the generators, the maximal tree and every
relator letter straight off `Triangulation.orbit_walk` (one walk per
directed-edge orbit): a generator's letter is the directed-edge orbit
it runs along.  Every letter comes from that letter table, a
(generator below g, +-1) pair, so the relators and the presentation are
built by `Word.from_checked` and `GroupPresentation.from_checked` and
checked once, where the table is made.  Reading pi1 from a cell
structure is kept as a reference oracle in `tests/oracles.py`.

A presentation keeps nothing but its generators, relators and labels.
This module holds what the checker runs on them: Word (a `psl.Frozen`
value) and the GroupPresentation dataclass,
the word and presentation writers, `read_word` and `fundamental_group`.
The closure that writes every generator in a few seeds, and its `lift`,
are producer code in `intlinalg`.

`read_word` is the one reader of words in text, certificates' and
surjection files' alike: it reads exactly the tokens `format_word`
writes, `label` and `label^-1` separated by single spaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

from .psl import Frozen
from .triangulation import (
    DIRECTED_INDEX,
    EDGE_DIRECTIONS,
    EDGE_PAIRS,
    DisconnectedError,
    Triangulation,
    TriangulationError,
)

# a generator label: ASCII, a letter or '_' first, then letters, digits or '_'
LABEL_PATTERN = "[A-Za-z_][A-Za-z0-9_]*"
_LABEL_RE = re.compile(LABEL_PATTERN)


def is_label(text: str) -> bool:
    return _LABEL_RE.fullmatch(text) is not None


class Word(Frozen):
    """A word in group generators: a sequence of (generator, +-1) letters."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()) -> None:
        for gen, exp in letters:
            if exp not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {exp}")
            if gen < 0:
                raise ValueError(f"negative generator index {gen}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_checked(cls, letters: tuple[tuple[int, int], ...]) -> "Word":
        """The word on letters already known to be (generator >= 0, +-1)
        pairs, as a parser's letter table gives them: no recheck."""
        word = object.__new__(cls)
        _set_letters(word, letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def is_reduced(self) -> bool:
        """No letter is followed by its inverse: one scan over adjacent
        pairs that allocates nothing."""
        prev_gen, prev_exp = -1, 0
        for gen, exp in self.letters:
            if gen == prev_gen and exp != prev_exp:
                return False
            prev_gen, prev_exp = gen, exp
        return True

    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def nonzero_exponent_sums(self) -> dict[int, int]:
        """{generator: its exponent sum} over the generators whose sum is
        nonzero, in order of first occurrence: a new dict on each call,
        which the caller may edit."""
        letters = self.letters
        sums = dict(letters)  # the exponent sums, unless a generator repeats
        if len(sums) < len(letters):
            sums = {}
            for gen, exp in letters:
                sums[gen] = sums.get(gen, 0) + exp
            if 0 in sums.values():
                sums = {gen: x for gen, x in sums.items() if x}
        return sums


# the setter of Word's one slot, which Frozen's __setattr__ does not refuse
_set_letters = Word.letters.__set__


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
        self._check_distinct()
        for lab in self.labels:
            if not is_label(lab):
                raise ValueError(f"bad generator label {lab!r}")
        # letters compare by generator first: the largest names the top one
        top = max(chain.from_iterable(map(attrgetter("letters"), self.relators)), default=(-1, 0))
        if top[0] >= self.g:
            raise ValueError("relator references unknown generator")

    @classmethod
    def from_checked(
        cls, g: int, relators: tuple[Word, ...], labels: tuple[str, ...]
    ) -> "GroupPresentation":
        """The presentation on g labels that the caller checks to be well
        formed, before or after, and on relators already known to use
        only generators below g, as a parser's letter table gives them:
        only the labels' distinctness is checked."""
        pres = object.__new__(cls)
        object.__setattr__(pres, "g", g)
        object.__setattr__(pres, "relators", relators)
        object.__setattr__(pres, "labels", labels)
        pres._check_distinct()
        return pres

    def _check_distinct(self) -> None:
        if len(set(self.labels)) != self.g:
            raise ValueError("duplicate generator labels")


def format_word(word: Word, labels: tuple[str, ...]) -> str:
    return " ".join(
        [labels[gen] if exp == 1 else f"{labels[gen]}^-1" for gen, exp in word.letters]
    )


def letter_table(labels: Sequence[str]) -> dict[str, tuple[int, int]]:
    """Token -> letter for the two spellings format_word writes of a
    label's letters, `label` and `label^-1`: the only tokens a word has."""
    table = {}
    for k, lab in enumerate(labels):
        table[lab] = (k, 1)
        table[lab + "^-1"] = (k, -1)
    return table


def read_word(text: str, table: dict[str, tuple[int, int]]) -> Word:
    """The word of text's single-space-separated tokens, one table lookup
    each, so reading is linear in the text; a token not in the table is
    a ValueError that names it."""
    try:
        return Word.from_checked(tuple(map(table.__getitem__, text.split(" ") if text else ())))
    except KeyError as exc:
        token = exc.args[0]
        name, caret, _ = token.partition("^")
        if caret and name + "^-1" in table:
            raise ValueError(f"exponent in {token!r}: certificate words allow only '^-1'") from None
        raise ValueError(f"unknown generator {name!r} in word") from None


def format_presentation(pres: GroupPresentation) -> list[str]:
    """Canonical text block: gens line with labels, rels count, one word per line."""
    lines = ["gens " + " ".join([str(pres.g), *pres.labels])]
    lines.append(f"rels {len(pres.relators)}")
    lines.extend(format_word(w, pres.labels) for w in pres.relators)
    return lines


# boundary of face f (opposite vertex f) as directed edges p->q, q->r, r->p
_FACE_BOUNDARY = tuple(
    tuple(DIRECTED_INDEX[pair] for pair in ((p, q), (q, r), (r, p)))
    for p, q, r in (tuple(v for v in range(4) if v != f) for f in range(4))
)


def fundamental_group(tri: Triangulation) -> GroupPresentation:
    """Edge-class generators, triangle-boundary relators, tree edges killed.

    Read straight from `Triangulation.orbit_walk`.  Edge classes are
    taken in order of their root, the smallest edge slot: a class whose
    ends lie in two components of the classes taken so far joins the
    maximal tree of the 1-skeleton, and every other class is the next
    generator.  The orbit of the root's low-to-high direction reads as
    the generator, the reverse orbit as its inverse.  Each face class, in
    canonical (tet, face) order, gives the freely reduced boundary word
    of its smaller side.
    """
    vroot, droot, edge_roots, _ = tri.orbit_walk
    link = list(range(len(vroot)))  # vertex class -> a class of its component, or itself
    joined = 0  # tree edges
    g = 0  # generators
    reversed_edge = False
    letter: dict[int, tuple[int, int]] = {}  # directed root -> (generator, +-1)
    for root in edge_roots:
        tet, k = divmod(root, 6)
        fwd, back = EDGE_DIRECTIONS[k]
        positive, negative = droot[12 * tet + fwd], droot[12 * tet + back]
        reversed_edge = reversed_edge or positive == negative
        a, b = EDGE_PAIRS[k]
        va, vb = vroot[4 * tet + a], vroot[4 * tet + b]
        if va != vb:  # the classes' components, by path halving
            while link[va] != va:
                link[va] = va = link[link[va]]
            while link[vb] != vb:
                link[vb] = vb = link[link[vb]]
        if va != vb:
            link[va] = vb
            joined += 1
        else:
            letter[positive] = (g, 1)
            letter[negative] = (g, -1)
            g += 1
    # the 1-skeleton is connected iff the triangulation is; a spanning
    # forest of it has one edge fewer than its vertex classes per component
    if joined < len(set(vroot)) - 1:
        raise DisconnectedError("triangulation is not connected")
    if reversed_edge:
        raise TriangulationError("edge glued to itself in reverse; no orientation")

    relators = []
    letter_of = letter.get
    for tet, row in enumerate(tri.gluings):
        base = 12 * tet
        for face, (tet2, face2, _) in enumerate(row):
            if 4 * tet + face > 4 * tet2 + face2:
                continue
            word: list[tuple[int, int]] = []  # reduced as it grows
            for d in _FACE_BOUNDARY[face]:
                x = letter_of(droot[base + d])
                if x is None:
                    continue
                if word and word[-1][0] == x[0] and word[-1][1] != x[1]:
                    word.pop()
                else:
                    word.append(x)
            relators.append(Word.from_checked(tuple(word)))

    # every letter comes from the letter table: (generator below g, +-1)
    return GroupPresentation.from_checked(g, tuple(relators), default_labels(g))

