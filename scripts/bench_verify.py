#!/usr/bin/env python3
"""Time certificate verification over the `lenscert sweep` triples.

Builds the certificate of every hyperbolic triple with entries up to
--max-n (1116 of them at 19), serializes each once, then times two
things per certificate, grouped by kind and field degree:

  * verify_us: parse of the certificate text plus verify;
  * relator_fold_us: the relators x^n1, y^n2, (xy)^n3 folded with
    fold_letters over the images' coordinate table (matrix
    certificates only), the part of verify that a faster fold moves.

It also times one input at the paper's scale: the step-1 certificate
`pipeline` writes for prism_manifold(10^4) (scripts/make_fixtures.py),
as bound_parse_ms, its parse, and bound_verify_ms, verify_bound of the
parsed certificate against the triangulation, read afresh from its text
for each pass so that no pass reuses the orbit walk a triangulation
caches.  The certificate's bytes and its verify_bound report, cost
model included, are recorded beside them as bound_certificate.

One measurement is the median, over --repeats passes, of a pass's mean
microseconds per certificate.  Each pass is calibrated for machine speed
as perfbench/run.py calibrates its timings: perfbench's reference_work()
is timed CALIBRATION_SAMPLES times just before the pass and as many just
after, and the pass's figure is scaled by REFERENCE_NS over the median of
those samples, so it reads in microseconds at perfbench's nominal speed.
The raw figure is kept beside it (verify_us_raw, relator_fold_us_raw,
and the same _raw names for the bound figures).
Each source tree named by --tree is measured in a fresh process once per
round, and the trees take turns going first, so that a drift in machine
speed falls on both alike; a figure is the median over --rounds.  The
cost-model means (relator and total mat_mults, field_ops, cert_bits) come
from the verify reports and must not change with a speed-up, and neither
may the bound certificate's bytes and report.

  python3 scripts/bench_verify.py --tree parent=OLD/src --tree change=src \\
      --out BENCH_verify.json

A tree is NAME=SRC, SRC a directory holding the lenscert package
(default: change=this checkout's src); a NAME may be given once,
and --repeats and --rounds are at least 1.  The JSON holds one column per
tree, with each round's figures, plus the machine and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.append(os.path.join(HERE, "..", "perfbench"))
from run import REFERENCE_NS, reference_work  # noqa: E402

GROUPS = ("abelian", "F_p", "F_p2")
CALIBRATION_SAMPLES = 3  # reference_work() timings on each side of a pass
BOUND_TETRAHEDRA = 10**4  # the prism manifold the bound figures are of
BOUND_INPUT = f"prism_manifold({BOUND_TETRAHEDRA})"
TIMINGS = ("verify_us", "relator_fold_us", "bound_parse_ms", "bound_verify_ms")


def _group(cert) -> str:
    if cert.field is None:
        return "abelian"
    return "F_p" if cert.field.degree == 1 else "F_p2"


def _reference_ns() -> list[int]:
    """CALIBRATION_SAMPLES timings of reference_work(), in ns, after one
    untimed call: the first call after a pass runs slower than the next."""
    reference_work()
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter_ns()
        reference_work()
        samples.append(time.perf_counter_ns() - start)
    return samples


def _scale(before: list[int]) -> float:
    """The factor that takes a time measured just after the reference
    samples before to nominal speed: REFERENCE_NS over the median of
    those samples and of as many taken now."""
    return REFERENCE_NS / statistics.median(before + _reference_ns())


def _median_pass_us(items, run, repeats: int) -> tuple[float, float]:
    """Median over repeats of one pass's mean microseconds per item:
    calibrated by the reference samples taken around the pass, and raw."""
    calibrated, raw = [], []
    for _ in range(repeats):
        before = _reference_ns()
        start = time.perf_counter()
        for item in items:
            run(item)
        us = (time.perf_counter() - start) / len(items) * 1e6
        calibrated.append(us * _scale(before))
        raw.append(us)
    return statistics.median(calibrated), statistics.median(raw)


def _bound_figures(repeats: int) -> dict:
    """The bound figures the module docstring describes, each the median
    over repeats passes, in ms at nominal speed and raw."""
    from make_fixtures import prism_manifold
    from lenscert.certificate import parse, pipeline, serialize
    from lenscert.checker import verify_bound
    from lenscert.triangulation import format_triangulation, parse_triangulation

    tri = prism_manifold(BOUND_TETRAHEDRA)
    text, tri_text = serialize(pipeline(tri)[0]), format_triangulation(tri)
    raw: dict[str, list[float]] = {"bound_parse_ms": [], "bound_verify_ms": []}
    calibrated: dict[str, list[float]] = {metric: [] for metric in raw}
    for _ in range(repeats):
        fresh = parse_triangulation(tri_text)
        before = _reference_ns()
        start = time.perf_counter()
        cert = parse(text)
        parsed = time.perf_counter()
        report = verify_bound(cert, fresh)
        ms = {"bound_parse_ms": parsed - start, "bound_verify_ms": time.perf_counter() - parsed}
        scale = _scale(before)
        for metric, seconds in ms.items():
            raw[metric].append(seconds * 1e3)
            calibrated[metric].append(seconds * 1e3 * scale)
    if not report.accepted:
        raise SystemExit(f"error: verify_bound rejected the bound certificate: {report.reason}")
    doc: dict = {"bound_certificate": {"bytes": len(text.encode()), "report": report._asdict()}}
    for metric in raw:
        doc[metric] = {BOUND_INPUT: statistics.median(calibrated[metric])}
        doc[metric + "_raw"] = {BOUND_INPUT: statistics.median(raw[metric])}
    return doc


def measure(max_n: int, repeats: int) -> dict:
    """One measurement of the lenscert package on sys.path."""
    from lenscert.certificate import parse, serialize, triangle_certificate, verify
    # projmat defines these in older trees and imports them from psl in this one
    from lenscert.projmat import fold_letters, letter_coords
    from lenscert.trianglerep import hyperbolic_triples

    texts: dict[str, list[str]] = {g: [] for g in GROUPS}
    folds: dict[str, list[tuple]] = {g: [] for g in GROUPS[1:]}
    for t in hyperbolic_triples(max_n):
        cert, _ = triangle_certificate(*t.triple)
        group = _group(cert)
        texts[group].append(serialize(cert))
        if cert.field is not None:
            relators = tuple(rel.letters for rel in cert.presentation.relators)
            folds[group].append((cert.field, letter_coords(cert.rep_images), relators))

    reports = [verify(parse(text)) for group in GROUPS for text in texts[group]]
    if not all(r.accepted for r in reports):
        raise SystemExit("error: a sweep certificate was rejected")

    def verify_text(text: str) -> None:
        verify(parse(text))

    def fold_relators(item) -> None:
        spec, table, relators = item
        for letters in relators:
            fold_letters(spec, table, letters)

    doc = {"certificates": {g: len(texts[g]) for g in GROUPS}}
    for metric, groups, run in (
        ("verify_us", texts, verify_text),
        ("relator_fold_us", folds, fold_relators),
    ):
        figures = {g: _median_pass_us(items, run, repeats) for g, items in groups.items()}
        doc[metric] = {g: us for g, (us, _) in figures.items()}
        doc[metric + "_raw"] = {g: raw for g, (_, raw) in figures.items()}
    doc["cost_model_means"] = {
        key: statistics.fmean(getattr(r, key) for r in reports)
        for key in ("relator_mat_mults", "mat_mults", "field_ops", "cert_bits")
    }
    doc.update(_bound_figures(repeats))
    return doc


def _column(runs: list[dict]) -> dict:
    """Median of each timing over the rounds, each round's timings, the
    cost-model means and the bound certificate's bytes and report, which
    every round must repeat exactly."""
    first = runs[0]
    if any(run["cost_model_means"] != first["cost_model_means"] for run in runs):
        raise SystemExit("error: the cost-model means differ between rounds")
    column = {
        "certificates": first["certificates"],
        "cost_model_means": {
            key: round(value, 4) for key, value in first["cost_model_means"].items()
        },
        "bound_certificate": first["bound_certificate"],
    }
    for metric in (name + suffix for name in TIMINGS for suffix in ("", "_raw")):
        rounds = {g: [round(run[metric][g], 2) for run in runs] for g in first[metric]}
        column[metric] = {g: round(statistics.median(v), 2) for g, v in rounds.items()}
        column[metric + "_rounds"] = rounds
    return column


def _machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, {platform.system()} {platform.machine()}"


def driver_parser(description: str) -> argparse.ArgumentParser:
    """The options every bench script shares: --tree, --repeats, --rounds
    and --out, plus the hidden --measure a round's child process gets."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a lenscert source tree to measure, repeatable")
    parser.add_argument("--repeats", type=int, default=5, help="passes per measurement")
    parser.add_argument("--rounds", type=int, default=5, help="measurements per tree")
    parser.add_argument("--out", help="JSON file to write (default: print it)")
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    return parser


def drive(parser, args, script: str, options: list[str], measure, column, same=None) -> int:
    """Run a bench script's rounds and write its JSON document.

    With --measure SRC, print measure()'s figures for the lenscert package
    in SRC.  Otherwise measure each --tree in a fresh process, running
    script with options and --repeats, once per round, the trees taking
    turns to go first, and write one column(runs) per tree.  Every run of
    every tree must give the same value for the key same, if one is named.
    Zero repeats or rounds and a repeated tree NAME are usage errors, and
    a failed measurement ends the run with the child's error output."""
    for flag in ("repeats", "rounds"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1")
    if args.measure:
        sys.path.insert(0, args.measure)
        print(json.dumps(measure()))
        return 0

    trees: dict[str, str] = {}
    for tree in args.tree or [f"change={os.path.join(HERE, '..', 'src')}"]:
        name, sep, src = tree.partition("=")
        if not sep or not name or not os.path.isdir(os.path.join(src, "lenscert")):
            parser.error(f"--tree {tree!r}: expected NAME=SRC with SRC/lenscert")
        if name in trees:
            parser.error(f"--tree {tree!r}: the name {name!r} is given twice")
        trees[name] = os.path.abspath(src)
    options = [*options, "--repeats", str(args.repeats)]
    order = list(trees.items())
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    for k in range(args.rounds):
        for name, src in order if k % 2 == 0 else order[::-1]:
            out = subprocess.run(
                [sys.executable, script, "--measure", src, *options],
                capture_output=True, text=True,
            )
            if out.returncode:
                raise SystemExit(f"error: measuring tree {name!r} failed:\n{out.stderr}")
            runs[name].append(json.loads(out.stdout))
    if same is not None:
        first = runs[order[0][0]][0][same]
        if any(run[same] != first for column_runs in runs.values() for run in column_runs):
            raise SystemExit(f"error: the trees or rounds disagree on {same}")

    doc = {
        "command": " ".join(
            [f"scripts/{os.path.basename(script)}", *options, "--rounds", str(args.rounds)]
        ),
        "machine": _machine(),
        "python": platform.python_version(),
        "columns": {name: column(runs[name]) for name in trees},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=19)
    args = parser.parse_args(argv)
    if args.max_n < 4:
        parser.error("--max-n must be at least 4: no triple with entries up to 3 is hyperbolic")
    return drive(
        parser, args, os.path.abspath(__file__), ["--max-n", str(args.max_n)],
        lambda: measure(args.max_n, args.repeats), _column, same="bound_certificate",
    )


if __name__ == "__main__":
    sys.exit(main())
