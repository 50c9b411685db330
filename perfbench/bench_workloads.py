"""The benchmark's three workloads: seeded inputs, one item, its checks.

Each workload is a closed loop with one client in one process: the next
item starts when the previous one has returned.  Inputs are made from
the seed alone, and the library sees nothing but those inputs.  The
orders below are stratified so that every prefix of the item stream
mixes cheap and costly inputs in the same proportions whatever the seed;
without that, the run-to-run spread of a timed prefix is the spread of
the sample, not of the code.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import math
import os
import string
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(ROOT, "scripts")
FIXTURES = os.path.join(ROOT, "fixtures")
TRIANGLE_RANK = os.path.join(HERE, "triangle_rank.json")

LIB_MODULES = (
    "certificate",
    "galois",
    "intlinalg",
    "presentation",
    "projmat",
    "trianglerep",
    "triangulation",
)
NON_ABELIAN = "NonAbelianRep"
NON_CYCLIC = "NonCyclicAbelian"

clock = time.perf_counter_ns


def load_lib() -> types.SimpleNamespace:
    """Import lenscert and make_fixtures afresh, as a new process would."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("lenscert", "make_fixtures")]:
        del sys.modules[name]
    for path in (SCRIPTS, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    modules = {name: importlib.import_module(f"lenscert.{name}") for name in LIB_MODULES}
    modules["lenscert"] = sys.modules["lenscert"]
    modules["make_fixtures"] = importlib.import_module("make_fixtures")
    return types.SimpleNamespace(modules=modules, **modules)


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so every prefix samples the range evenly."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def stratified(population: list, block: int, rng) -> list:
    """Seeded order of a cost-sorted population.

    Consecutive blocks of similar cost are shuffled, then drawn one member
    per block per round, visiting blocks in bit-reversed order.
    """
    blocks = [list(population[i:i + block]) for i in range(0, len(population), block)]
    for members in blocks:
        rng.shuffle(members)
    order = spread_order(len(blocks))
    return [blocks[k][r] for r in range(block) for k in order if r < len(blocks[k])]


def read_fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


@dataclasses.dataclass
class Outcome:
    """One item: perf_counter_ns stamps of its start, of the start of the
    third-party parse + verify (None if it has none), and of its end."""

    start_ns: int
    verify_ns: int | None
    end_ns: int
    cert_text: str = ""
    report: object = None  # VerificationReport of the third-party parse + verify
    result: object = None  # workload-specific output, checked after the timed phase
    error: str = ""
    traced: bool = False


@dataclasses.dataclass
class Inputs:
    items: list
    probes: list = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# triangle-sweep


def is_hyperbolic(triple) -> bool:
    return sum(Fraction(1, n) for n in triple) < 1


ALL_TRIPLES = [
    (a, b, c) for a in range(2, 20) for b in range(a, 20) for c in range(b, 20)
]
NON_HYPERBOLIC = [t for t in ALL_TRIPLES if not is_hyperbolic(t)]


class Workload:
    name = ""
    # items every run completes: p90 needs 100, and the cost-model means and
    # the certificate digest, which must repeat exactly for a seed, use them
    min_items = 100

    def emitted(self, inputs: Inputs, outcomes: list, prefix: int) -> list[str]:
        """Certificate texts the run emitted, for the byte-identity digest."""
        return [o.cert_text for o in outcomes[:prefix]]

    def false_accepts(self, lib, probes) -> int:
        return 0


class TriangleSweep(Workload):
    """triangle_certificate -> serialize -> parse -> verify for one triple."""

    name = "triangle-sweep"
    block = 4  # 1116 hyperbolic triples -> 279 strata
    min_items = 303  # one triple from every stratum, and the 24 non-hyperbolic ones

    def setup(self, lib, rng, seconds, min_items) -> Inputs:
        with open(TRIANGLE_RANK, encoding="utf-8") as handle:
            ranked = [tuple(t) for t in json.load(handle)["triples"]]
        extra = list(NON_HYPERBOLIC)
        rng.shuffle(extra)
        items = []
        # the 24 non-hyperbolic triples land in the first 72 items, at every
        # third place, so that run.is_traced() splits them evenly
        for k, triple in enumerate(stratified(ranked, self.block, rng)):
            if k % 2 == 0 and extra:
                items.append(extra.pop())
            items.append(triple)
        return Inputs(items)

    def run(self, lib, triple) -> Outcome:
        cert_mod = lib.certificate
        t0 = clock()
        cert, _ = cert_mod.triangle_certificate(*triple)
        text = cert_mod.serialize(cert)
        t1 = clock()
        parsed = cert_mod.parse(text)
        report = cert_mod.verify(parsed)
        t2 = clock()
        return Outcome(t0, t1, t2, text, report, parsed)

    def check(self, lib, triple, out: Outcome) -> bool:
        kind = NON_CYCLIC if math.gcd(*triple) > 1 else NON_ABELIAN
        return (
            out.report.accepted
            and out.result.kind == kind
            and lib.certificate.serialize(out.result) == out.cert_text
        )


# ----------------------------------------------------------------------
# triangulation-homology

# 100 distinct p in [40, 240] at quantiles of a density ~ p^-2.5: SNF time
# grows as p^3, so a uniform spread would spend nearly all the time on the
# largest few.  Every run takes all of them (p90 needs 100 items), so the
# seed picks q and the order, and which p a run covers never changes.
LENS_P = sorted({round((40**-1.5 - k / 199 * (40**-1.5 - 240**-1.5)) ** (-1 / 1.5)) for k in range(200)})
Q_BINS = 4

# Seifert-fibered fixtures: (triangulation, base orbifold, surjection, pipeline step)
SEIFERT = (
    ("prism_q8.tri", (2, 2, 2), None, 1),
    ("t3_torus.tri", (2, 3, 7), None, 1),
    ("prism_q12.tri", (2, 2, 3), "prism_q12.surj", 2),
)


@dataclasses.dataclass(frozen=True)
class HomologyItem:
    p: int
    q: int
    lens_text: str
    fixture: str
    seifert_text: str
    base: tuple
    surjection: str | None
    h1: str
    step: int


def reformat(tri, rng) -> str:
    """The same gluings as a new text: lines shuffled, about half of them
    written in the reverse direction.  The parsed triangulation, and so
    every certificate and op count, is the fixture's own."""
    pairings = [fp.reverse() if rng.random() < 0.5 else fp for fp in tri.pairings()]
    rng.shuffle(pairings)
    lines = [f"t={tri.t}"]
    for fp in pairings:
        (a, f), (b, g) = fp.source, fp.target
        lines.append(f"{a}:{f} -> {b}:{g} perm={fp.perm}")
    return "\n".join(lines) + "\n"


def format_h1(h1: dict) -> str:
    return " + ".join([f"Z^{h1['free_rank']}"] + [f"Z/{d}" for d in h1["torsion"]])


class TriangulationHomology(Workload):
    """Homology of one lens space, then pipeline on one Seifert-fibered
    fixture (its gluings reordered), so every item also yields a
    certificate to verify."""

    name = "triangulation-homology"
    block = 2

    def setup(self, lib, rng, seconds, min_items) -> Inputs:
        tmod = lib.triangulation
        with open(os.path.join(FIXTURES, "metadata.json"), encoding="utf-8") as handle:
            metadata = json.load(handle)
        fixtures = [
            (name, tmod.parse_triangulation(read_fixture(name)), base,
             read_fixture(surj) if surj else None, step)
            for name, base, surj, step in SEIFERT
        ]
        # SNF time grows with q/p, by 1.5x from q = 1 to q = p/2 and 2x near
        # q = p.  L(p,q) and L(p,p-q) are the same manifold, so q < p/2
        # reaches every lens space.  The i-th p takes one of the three q
        # nearest to the middle of the (i mod 4)-th quarter of (0, p/2), so
        # the seed moves each item's cost only a little.
        q_of = {}
        for i, p in enumerate(LENS_P):
            middle = (2 * (i % Q_BINS) + 1) * p / (4 * Q_BINS)
            coprime = [q for q in range(1, (p + 1) // 2) if math.gcd(p, q) == 1]
            q_of[p] = rng.choice(sorted(coprime, key=lambda q: (abs(q - middle), q))[:3])
        seen: set = set()
        items = []
        for k, p in enumerate(stratified(LENS_P, self.block, rng)):
            q = q_of[p]
            lens = tmod.format_triangulation(lib.make_fixtures.lens_space(p, q))
            name, tri, base, surj, step = fixtures[k % len(fixtures)]
            text = read_fixture(name)
            while text in seen:
                text = reformat(tri, rng)
            seen.add(text)
            items.append(HomologyItem(
                p, q, lens, name, text, base, surj, format_h1(metadata[name]["h1"]), step
            ))
        return Inputs(items)

    def run(self, lib, item: HomologyItem) -> Outcome:
        tmod, cert_mod = lib.triangulation, lib.certificate
        t0 = clock()
        tri = tmod.parse_triangulation(item.lens_text)
        valid = tmod.validate(tri)
        orient = tmod.orientation_check(tri)
        h1 = lib.intlinalg.abelianization(lib.presentation.fundamental_group(tri))
        seifert = tmod.parse_triangulation(item.seifert_text)
        cert, info = cert_mod.pipeline(seifert, item.base, surjection_text=item.surjection)
        text = cert_mod.serialize(cert)
        t1 = clock()
        parsed = cert_mod.parse(text)
        report = cert_mod.verify(parsed)
        t2 = clock()
        return Outcome(t0, t1, t2, text, report, (valid, orient, h1, info, parsed))

    def check(self, lib, item: HomologyItem, out: Outcome) -> bool:
        valid, orient, h1, info, parsed = out.result
        return (
            valid.passed
            and orient.orientable
            and h1.free_rank == 0
            and tuple(h1.torsion) == (item.p,)
            and info["h1"] == item.h1
            and info["step"] == item.step
            and out.report.accepted
            and lib.certificate.serialize(parsed) == out.cert_text
        )


# ----------------------------------------------------------------------
# verify-corpus

CORPUS_TRIANGLES = (
    (2, 3, 9), (3, 10, 10), (4, 7, 8), (3, 17, 17), (4, 4, 19), (2, 9, 18),  # F_p
    (2, 3, 15), (4, 5, 10), (3, 16, 16), (2, 7, 14),  # F_p^2
    (7, 7, 7), (8, 8, 8), (9, 9, 9),  # (Z/d)^2
    (2, 2, 5), (2, 2, 9), (2, 3, 3), (2, 3, 5),  # dihedral and spherical
)
# corpus texts per second of --seconds: above the seed's verify rate, so the
# timed phase ends on the clock, not on an exhausted corpus
CORPUS_RATE = 650
# renamed texts made from each set of moved images (moving them costs most)
RENAMES_PER_MOVE = 4
MUTATIONS = ("relator", "witness", "entry")
MUTATIONS_PER_ROUND = 2
PROBES = 24


def random_sl2(lib, spec, rng):
    def element():
        return spec.element(rng.randrange(spec.p), rng.randrange(spec.p) if spec.degree == 2 else 0)

    a = element()
    while a.is_zero():
        a = element()
    b, c = element(), element()
    return lib.projmat.ProjMatrix(a, b, c, (spec.one() + b * c) / a)


def abelian_automorphism(images, a: int, b: int, rng):
    """Images under a seeded automorphism of Z/a x Z/b."""
    if a != b:
        k1 = rng.choice([k for k in range(1, a) if math.gcd(k, a) == 1])
        k2 = rng.choice([k for k in range(1, b) if math.gcd(k, b) == 1])
        return tuple((u * k1, v * k2) for u, v in images)
    while True:
        m = [rng.randrange(a) for _ in range(4)]
        if math.gcd(m[0] * m[3] - m[1] * m[2], a) == 1:
            break
    return tuple((u * m[0] + v * m[2], u * m[1] + v * m[3]) for u, v in images)


def fresh_labels(old: tuple, rng) -> tuple:
    """Distinct random generator names of the same lengths as the old ones."""
    while True:
        new = tuple(
            rng.choice(string.ascii_letters)
            + "".join(rng.choice(string.ascii_letters + string.digits) for _ in label[1:])
            for label in old
        )
        if len(set(new)) == len(new):
            return new


def move_images(lib, cert, rng):
    """The same certificate with its images conjugated by a seeded element
    of PSL(2, F), or moved by a seeded automorphism of the abelian target."""
    if cert.kind == NON_ABELIAN:
        g = random_sl2(lib, cert.field, rng)
        g_inv = g.inverse()
        return dataclasses.replace(cert, rep_images=tuple(g.mul(m).mul(g_inv) for m in cert.rep_images))
    a, b = cert.target
    return dataclasses.replace(cert, abelian_images=abelian_automorphism(cert.abelian_images, a, b, rng))


def rename(lib, cert, rng):
    """The same certificate with its generators renamed and each relator
    cyclically rotated.  Lengths, so every op count, are unchanged."""
    word_cls = lib.presentation.Word
    relators = []
    for w in cert.presentation.relators:
        k = rng.randrange(len(w))
        rotated = word_cls(w.letters[k:] + w.letters[:k])
        relators.append(rotated if rotated.is_reduced() else w)
    labels = fresh_labels(cert.presentation.labels, rng)
    pres = dataclasses.replace(cert.presentation, relators=tuple(relators), labels=labels)
    if cert.kind == NON_CYCLIC:
        return dataclasses.replace(cert, presentation=pres)
    rep_gens = fresh_labels(cert.rep_gens, rng) if cert.surjection else labels
    return dataclasses.replace(cert, presentation=pres, rep_gens=rep_gens)


def _generator_is_trivial(lib, cert, gen: int) -> bool:
    if cert.kind == NON_CYCLIC:
        return cert.abelian_images[gen] == (0, 0)
    word = cert.surjection[gen] if cert.surjection else lib.presentation.Word(((gen, 1),))
    return lib.projmat.evaluate_word(list(cert.rep_images), word).is_identity()


def mutate(lib, cert, text: str, kind: str):
    """One changed line that makes the certificate false by construction.

    relator: drop the last letter l of a relator w*l.  Since w*l maps to
    the identity, w maps to l^-1, which is not the identity when l's
    generator has a non-trivial image: rejected.
    witness: make both witness words equal: rejected.
    entry: add 1 to a matrix entry whose cofactor is non-zero, so the
    determinant is no longer 1: a parse error.
    Returns (text, expected verdict), or None if the kind does not apply.
    """
    lines = text.splitlines()
    if kind == "witness" and cert.kind == NON_ABELIAN:
        left = lines[-1][len("witness "):].split("|")[0].strip()
        lines[-1] = f"witness {left} | {left}"
        return "\n".join(lines) + "\n", "reject"
    if kind == "entry" and cert.kind == NON_ABELIAN:
        m = cert.rep_images[0]
        spec = cert.field
        entries = list(m.entries())
        k = 0 if not m.d.is_zero() else 1  # det = ad - bc and (c, d) != (0, 0)
        entries[k] = spec.element((entries[k].a + 1) % spec.p, entries[k].b)
        old = f"gen {cert.rep_gens[0]} = {m}"
        new = f"gen {cert.rep_gens[0]} = [[{entries[0]},{entries[1]}],[{entries[2]},{entries[3]}]]"
        return "\n".join(new if line == old else line for line in lines) + "\n", "malformed"
    pres = cert.presentation
    first = lines.index(f"rels {len(pres.relators)}") + 1
    for j, w in enumerate(pres.relators):
        if len(w) >= 2 and not _generator_is_trivial(lib, cert, w.letters[-1][0]):
            shorter = lib.presentation.Word(w.letters[:-1])
            lines[first + j] = lib.presentation.format_word(shorter, pres.labels)
            return "\n".join(lines) + "\n", "reject"
    return None


def cyclic_probe(rng) -> str:
    """A certificate for the cyclic group Z/p with two distinct powers of x
    as witness: false (Z/p is a lens space group), but accepted by a
    verifier that does not require a non-commuting witness pair."""
    p = rng.choice((5, 7, 11, 13))
    i, j = rng.sample((1, 2, 3), 2)

    def power(n):
        return " ".join(["x"] * n)

    return "\n".join([
        "lenscert v1", "kind NonAbelianRep", "gens 1 x", "rels 1", power(p),
        f"field p={p} deg=1", f"gen x = [[1,{rng.randrange(1, p)}],[0,1]]",
        f"witness {power(i)} | {power(j)}",
    ]) + "\n"


class VerifyCorpus(Workload):
    """parse + verify of one certificate text, against its expected verdict."""

    name = "verify-corpus"

    def bases(self, lib) -> list:
        cert_mod, tmod = lib.certificate, lib.triangulation
        out = [cert_mod.triangle_certificate(*t)[0] for t in CORPUS_TRIANGLES]
        for name, base, surj, _ in SEIFERT:
            tri = tmod.parse_triangulation(read_fixture(name))
            surj_text = read_fixture(surj) if surj else None
            out.append(cert_mod.pipeline(tri, base, surjection_text=surj_text)[0])
        out.append(cert_mod.parse(read_fixture("fig8.cert")))
        return out

    def setup(self, lib, rng, seconds, min_items) -> Inputs:
        serialize = lib.certificate.serialize
        bases = self.bases(lib)
        n_texts = max(min_items, round(seconds * CORPUS_RATE))
        seen: set = set()

        def fresh(cert):
            for _ in range(1000):
                renamed = rename(lib, cert, rng)
                text = serialize(renamed)
                if text not in seen:
                    seen.add(text)
                    return renamed, text
            raise RuntimeError("no fresh variant")

        items = []
        slot = 0
        for round_no in itertools.count():
            if len(items) >= n_texts:
                break
            if round_no % RENAMES_PER_MOVE == 0:
                moved = [move_images(lib, base, rng) for base in bases]
            items.extend((fresh(cert)[1], "accept") for cert in moved)
            for _ in range(MUTATIONS_PER_ROUND):
                mutated = None
                while mutated is None or mutated[0] in seen:
                    cert = moved[slot % len(moved)]
                    mutated = mutate(lib, *fresh(cert), MUTATIONS[slot % len(MUTATIONS)])
                    slot += 1
                seen.add(mutated[0])
                items.append(mutated)
        probes: set = set()
        while len(probes) < PROBES:
            probes.add(cyclic_probe(rng))
        return Inputs(items[:n_texts], sorted(probes))

    def run(self, lib, item) -> Outcome:
        cert_mod = lib.certificate
        t0 = clock()
        try:
            report = cert_mod.verify(cert_mod.parse(item[0]))
            verdict = "accept" if report.accepted else "reject"
        except cert_mod.CertificateSyntaxError:
            report, verdict = None, "malformed"
        t1 = clock()
        return Outcome(t0, t0, t1, "", report, verdict)

    def check(self, lib, item, out: Outcome) -> bool:
        return out.result == item[1]

    def emitted(self, inputs: Inputs, outcomes: list, prefix: int) -> list[str]:
        return [text for text, _ in inputs.items]

    def false_accepts(self, lib, probes) -> int:
        return sum(self.run(lib, (text, "reject")).result == "accept" for text in probes)


WORKLOADS = {w.name: w for w in (TriangleSweep(), TriangulationHomology(), VerifyCorpus())}
