#!/usr/bin/env python3
"""Time first homology, H1, of lens spaces and prism manifolds.

For each input, the triangulation is built by scripts/make_fixtures.py
and two things are timed:

  * pi1_h1_us: abelianization(fundamental_group(tri)), from the
    triangulation;
  * h1_us: abelianization(pres) alone, on the presentation built once.

The inputs are lens_space(p, q) for p in 40, 120, 240, 1000 and 10000,
q about 0.3 p, and prism_manifold(m) for m = 101 and 10000.  One
measurement is the median, over --repeats passes, of a pass's mean
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
METRICS = ("pi1_h1_us", "pi1_h1_us_raw", "h1_us", "h1_us_raw")


def measure(repeats: int) -> dict:
    """One measurement of the lenscert package first on sys.path."""
    # the tree's lenscert is imported before make_fixtures, which puts
    # this checkout's src on sys.path
    from lenscert.intlinalg import abelianization, format_abelian
    from lenscert.presentation import fundamental_group
    from make_fixtures import lens_space, prism_manifold

    inputs = [(f"L({p},{q})", lens_space(p, q)) for p, q in LENS]
    inputs += [(f"prism_manifold({m})", prism_manifold(m)) for m in PRISM]
    doc: dict = {"h1": {}, **{metric: {} for metric in METRICS}}
    for name, tri in inputs:
        pres = fundamental_group(tri)
        doc["h1"][name] = format_abelian(abelianization(pres))
        copies = max(1, GENERATORS_PER_PASS // pres.g)
        for metric, items, run in (
            ("pi1_h1_us", [tri] * copies, lambda t: abelianization(fundamental_group(t))),
            ("h1_us", [pres] * copies, abelianization),
        ):
            doc[metric][name], doc[metric + "_raw"][name] = _median_pass_us(items, run, repeats)
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
