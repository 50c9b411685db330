#!/usr/bin/env python3
"""Time first homology, H1, of lens spaces and prism manifolds, the
step-1 certificate and pipeline.

For each input, the triangulation is built by scripts/make_fixtures.py
and three things are timed:

  * build_us: format_triangulation(lens_space(p, q)), or of
    prism_manifold(m): the builder's gluing tuples assembled by
    make_triangulation, then written as text;
  * pi1_h1_us: abelianization(fundamental_group(tri)), each call on a
    fresh Triangulation(tri.t, tri.gluings), so the orbit walk that an
    instance keeps after its first use is timed in every call (with
    the instance's construction, about a microsecond);
  * h1_us: abelianization(pres) alone, on the presentation built
    once (a presentation keeps nothing between calls).

make_fixtures is imported from the scripts/ beside the measured SRC (from
this checkout's scripts/ when SRC has none), and builds with that tree's
lenscert, so build_us compares each tree's builders together with its
make_triangulation and format_triangulation.  A builder passes plain
gluing tuples and constructs no FacePairing.

The inputs are lens_space(p, q) for p in 40, 120, 240, 1000 and 10000,
q about 0.3 p, and prism_manifold(m) for m = 101 and 10000.  Two more
figures are timed on their own inputs:

  * step1_us: noncyclic_certificate(pres, core) on prism_manifold(m)
    for m = 160 and 10000, H1 = (Z/2)^2, given the seed_core(pres) that
    H1 is read off, as pipeline calls it;
  * pipeline_us: pipeline on the fixtures prism_q8 (base 2,2,2) and
    t3_torus (base 2,3,7), both step 1, and prism_q12 (base 2,2,3, with
    its surjection file), step 2.

One measurement is the median, over --repeats passes, of a pass's mean
microseconds per call, calibrated for machine speed by
bench_verify._median_pass_us (perfbench's reference loop timed around
each pass), with the raw figure beside it.  The trees and rounds are
run by bench_verify.drive: each source tree named by --tree is measured
in a fresh process once per round, the trees taking turns to go first;
a figure is the median over --rounds.  Every round of every tree must
give the same H1 for each input.

  python3 scripts/bench_homology.py --tree parent=OLD/src --tree change=src \\
      --out BENCH_homology.json

A tree is NAME=SRC, SRC a directory holding the lenscert package
(default: change=this checkout's src); a NAME may be given once, and
--repeats and --rounds are at least 1.
"""

from __future__ import annotations

import os
import statistics
import sys
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_verify import _median_pass_us, drive, driver_parser  # noqa: E402

LENS = ((40, 11), (120, 37), (240, 61), (1000, 331), (10000, 3001))
PRISM = (101, 10000)
GENERATORS_PER_PASS = 40_000  # small inputs repeat within a pass
STEP1_PRISM = (160, 10000)
PIPELINE = (
    ("prism_q8", (2, 2, 2), None),
    ("t3_torus", (2, 3, 7), None),
    ("prism_q12", (2, 2, 3), "prism_q12.surj"),
)
PIPELINES_PER_PASS = 400
METRICS = (
    "build_us", "build_us_raw", "pi1_h1_us", "pi1_h1_us_raw", "h1_us", "h1_us_raw",
    "step1_us", "step1_us_raw", "pipeline_us", "pipeline_us_raw",
)


def _fixture_text(name: str) -> str:
    with open(os.path.join(HERE, "..", "fixtures", name), encoding="utf-8") as handle:
        return handle.read()


def measure(repeats: int, src: str) -> dict:
    """One measurement of the lenscert package in src, first on sys.path,
    which must have the step-1 API this script times."""
    try:
        from lenscert.certificate import noncyclic_certificate, pipeline
        from lenscert.intlinalg import abelianization, format_abelian, seed_core
    except ImportError as exc:
        if "seed_core" not in str(exc):
            raise
        raise SystemExit(
            "error: the tree has no lenscert.intlinalg.seed_core, the step-1 API "
            "(noncyclic_certificate(pres, seed_core(pres))) this script times"
        ) from None
    from lenscert.presentation import fundamental_group
    from lenscert.triangulation import Triangulation, format_triangulation, parse_triangulation

    sys.path.insert(0, os.path.join(src, "..", "scripts"))
    from make_fixtures import lens_space, prism_manifold

    def timed(metric, name, items, run):
        doc[metric][name], doc[metric + "_raw"][name] = _median_pass_us(items, run, repeats)

    builds = [(f"L({p},{q})", partial(lens_space, p, q)) for p, q in LENS]
    builds += [(f"prism_manifold({m})", partial(prism_manifold, m)) for m in PRISM]
    doc: dict = {"h1": {}, **{metric: {} for metric in METRICS}}
    for name, build in builds:
        tri = build()
        pres = fundamental_group(tri)
        doc["h1"][name] = format_abelian(abelianization(pres))
        copies = max(1, GENERATORS_PER_PASS // pres.g)
        timed("build_us", name, [build] * copies, lambda b: format_triangulation(b()))
        timed("pi1_h1_us", name, [tri] * copies,
              lambda t: abelianization(fundamental_group(Triangulation(t.t, t.gluings))))
        timed("h1_us", name, [pres] * copies, abelianization)
    for m in STEP1_PRISM:
        pres = fundamental_group(prism_manifold(m))
        core = seed_core(pres)
        copies = max(1, GENERATORS_PER_PASS // pres.g)
        timed("step1_us", f"prism_manifold({m})", [pres] * copies,
              lambda p: noncyclic_certificate(p, core))
    for name, base, surj in PIPELINE:
        tri = parse_triangulation(_fixture_text(name + ".tri"))
        surj_text = _fixture_text(surj) if surj else None
        timed("pipeline_us", name, [tri] * PIPELINES_PER_PASS,
              lambda t: pipeline(t, base, surjection_text=surj_text))
    return doc


def _column(runs: list[dict]) -> dict:
    """Median of each timing over the rounds, and each round's timings."""
    column = {"h1": runs[0]["h1"]}
    for metric in METRICS:
        rounds = {name: [round(run[metric][name], 1) for run in runs] for name in runs[0][metric]}
        column[metric] = {name: round(statistics.median(v), 1) for name, v in rounds.items()}
        column[metric + "_rounds"] = rounds
    return column


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__.split("\n\n")[0])
    args = parser.parse_args(argv)
    return drive(
        parser, args, os.path.abspath(__file__), [],
        lambda: measure(args.repeats, args.measure), _column, same="h1",
    )


if __name__ == "__main__":
    sys.exit(main())
