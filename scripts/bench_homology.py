#!/usr/bin/env python3
"""Time first homology, H1, of lens spaces and prism manifolds, the
step-1 certificate and pipeline.

For each input, the triangulation is built by scripts/make_fixtures.py
and two things are timed:

  * pi1_h1_us: abelianization(fundamental_group(tri)), from the
    triangulation;
  * h1_us: abelianization(pres) alone, on a fresh copy of the
    presentation built once, so nothing a presentation keeps from an
    earlier call is reused.

The inputs are lens_space(p, q) for p in 40, 120, 240, 1000 and 10000,
q about 0.3 p, and prism_manifold(m) for m = 101 and 10000.  Two more
figures are timed on their own inputs:

  * step1_us: noncyclic_certificate(pres, h1) on prism_manifold(m) for
    m = 160 and 10000, H1 = (Z/2)^2, on a presentation whose H1
    abelianization has computed, as pipeline calls it;
  * pipeline_us: pipeline on the fixtures prism_q8 (base 2,2,2) and
    t3_torus (base 2,3,7), both step 1, and prism_q12 (base 2,2,3, with
    its surjection file), step 2.

One measurement is the median, over --repeats passes, of a pass's mean
microseconds per call, calibrated for machine speed by
bench_verify._median_pass_us (perfbench's reference loop timed around
each pass), with the raw figure beside it.  Each source tree named by
--tree is measured in a fresh process once per round, the trees taking
turns to go first; a figure is the median over --rounds.  Every round of
every tree must give the same H1 for each input.

  python3 scripts/bench_homology.py --tree parent=OLD/src --tree change=src \\
      --out BENCH_homology.json

A tree is NAME=SRC, SRC a directory holding the lenscert package
(default: change=this checkout's src).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_verify import _machine, _median_pass_us  # noqa: E402

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
    "pi1_h1_us", "pi1_h1_us_raw", "h1_us", "h1_us_raw",
    "step1_us", "step1_us_raw", "pipeline_us", "pipeline_us_raw",
)


def _fixture_text(name: str) -> str:
    with open(os.path.join(HERE, "..", "fixtures", name), encoding="utf-8") as handle:
        return handle.read()


def measure(repeats: int) -> dict:
    """One measurement of the lenscert package first on sys.path."""
    from lenscert.certificate import noncyclic_certificate, pipeline
    from lenscert.intlinalg import abelianization, format_abelian
    from lenscert.presentation import GroupPresentation, fundamental_group
    from lenscert.triangulation import parse_triangulation
    from make_fixtures import lens_space, prism_manifold

    def fresh_h1(pres):
        return abelianization(GroupPresentation.from_checked(pres.g, pres.relators, pres.labels))

    def timed(metric, name, items, run):
        doc[metric][name], doc[metric + "_raw"][name] = _median_pass_us(items, run, repeats)

    inputs = [(f"L({p},{q})", lens_space(p, q)) for p, q in LENS]
    inputs += [(f"prism_manifold({m})", prism_manifold(m)) for m in PRISM]
    doc: dict = {"h1": {}, **{metric: {} for metric in METRICS}}
    for name, tri in inputs:
        pres = fundamental_group(tri)
        doc["h1"][name] = format_abelian(abelianization(pres))
        copies = max(1, GENERATORS_PER_PASS // pres.g)
        timed("pi1_h1_us", name, [tri] * copies, lambda t: abelianization(fundamental_group(t)))
        timed("h1_us", name, [pres] * copies, fresh_h1)
    for m in STEP1_PRISM:
        pres = fundamental_group(prism_manifold(m))
        h1 = abelianization(pres)
        copies = max(1, GENERATORS_PER_PASS // pres.g)
        timed("step1_us", f"prism_manifold({m})", [pres] * copies,
              lambda p: noncyclic_certificate(p, h1))
    for name, base, surj in PIPELINE:
        tri = parse_triangulation(_fixture_text(name + ".tri"))
        surj_text = _fixture_text(surj) if surj else None
        timed("pipeline_us", name, [tri] * PIPELINES_PER_PASS,
              lambda t: pipeline(t, base, surjection_text=surj_text))
    return doc


def _measure_in_process(src: str, repeats: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", src, "--repeats", str(repeats)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _column(runs: list[dict]) -> dict:
    """Median of each timing over the rounds, and each round's timings."""
    column = {"h1": runs[0]["h1"]}
    for metric in METRICS:
        rounds = {name: [round(run[metric][name], 1) for run in runs] for name in runs[0][metric]}
        column[metric] = {name: round(statistics.median(v), 1) for name, v in rounds.items()}
        column[metric + "_rounds"] = rounds
    return column


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a lenscert source tree to measure, repeatable")
    parser.add_argument("--repeats", type=int, default=5, help="passes per measurement")
    parser.add_argument("--rounds", type=int, default=5, help="measurements per tree")
    parser.add_argument("--out", help="JSON file to write (default: print it)")
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.measure:
        sys.path.insert(0, args.measure)
        print(json.dumps(measure(args.repeats)))
        return 0

    trees = []
    for tree in args.tree or [f"change={os.path.join(HERE, '..', 'src')}"]:
        name, sep, src = tree.partition("=")
        if not sep or not name or not os.path.isdir(os.path.join(src, "lenscert")):
            parser.error(f"--tree {tree!r}: expected NAME=SRC with SRC/lenscert")
        trees.append((name, os.path.abspath(src)))
    runs: dict[str, list[dict]] = {name: [] for name, _ in trees}
    for k in range(args.rounds):
        for name, src in trees if k % 2 == 0 else trees[::-1]:
            runs[name].append(_measure_in_process(src, args.repeats))
    first = runs[trees[0][0]][0]["h1"]
    if any(run["h1"] != first for column in runs.values() for run in column):
        raise SystemExit("error: the trees or rounds disagree on H1")

    doc = {
        "command": f"scripts/bench_homology.py --repeats {args.repeats} --rounds {args.rounds}",
        "machine": _machine(),
        "python": platform.python_version(),
        "columns": {name: _column(runs[name]) for name, _ in trees},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
