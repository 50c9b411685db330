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
parsed certificate against the triangulation, each call on a fresh
Triangulation(tri.t, tri.gluings) so that no call reuses the orbit walk
an instance caches.  The certificate's bytes and its verify_bound
report, cost model included, are recorded beside them as
bound_certificate.

One measurement is _median_pass_us's: the median, over --repeats
passes, of a pass's mean microseconds per item (milliseconds for the
bound figures).  Each pass is calibrated for machine speed as
perfbench/run.py calibrates its timings: perfbench's reference_work() is
timed CALIBRATION_SAMPLES times just before the pass and as many just
after, and the pass's figure is scaled by REFERENCE_NS over the median of
those samples, so it reads at perfbench's nominal speed.  The raw figure
is kept beside it under the same name with _raw.

drive() runs the rounds and says how they become each tree's column.
The certificate counts and the cost-model means (relator and total
mat_mults, field_ops, cert_bits, to 4 places, from the verify reports)
must not change between rounds, and the bound certificate must not
change between rounds or trees: a speed-up moves none of them.

  python3 scripts/bench_verify.py --tree parent=OLD/src --tree change=src \\
      --out BENCH_verify.json

A tree is NAME=SRC, SRC a directory holding the lenscert package
(default: change=this checkout's src); a NAME may be given once,
and --repeats and --rounds are at least 1.  The JSON holds one column per
tree, plus the machine and Python version.
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
    """The bound figures the module docstring describes, in ms at nominal
    speed and raw, and the bound certificate's bytes and report."""
    from make_fixtures import prism_manifold
    from lenscert.certificate import parse, pipeline, serialize
    from lenscert.checker import verify_bound
    from lenscert.triangulation import Triangulation

    tri = prism_manifold(BOUND_TETRAHEDRA)
    text = serialize(pipeline(tri)[0])
    cert = parse(text)
    report = verify_bound(cert, tri)
    if not report.accepted:
        raise SystemExit(f"error: verify_bound rejected the bound certificate: {report.reason}")
    doc: dict = {"bound_certificate": {"bytes": len(text.encode()), "report": report._asdict()}}
    for metric, item, run in (
        ("bound_parse_ms", text, parse),
        ("bound_verify_ms", cert, lambda c: verify_bound(c, Triangulation(tri.t, tri.gluings))),
    ):
        ms, raw = _median_pass_us([item], run, repeats)
        doc[metric], doc[metric + "_raw"] = {BOUND_INPUT: ms / 1e3}, {BOUND_INPUT: raw / 1e3}
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
        key: round(statistics.fmean(getattr(r, key) for r in reports), 4)
        for key in ("relator_mat_mults", "mat_mults", "field_ops", "cert_bits")
    }
    doc.update(_bound_figures(repeats))
    return doc


def _over_rounds(values: list) -> tuple:
    """The median, to two decimals, of each number in values, one value
    per round, at any depth of nested dicts, and its rounds."""
    if isinstance(values[0], dict):
        pairs = {key: _over_rounds([value[key] for value in values]) for key in values[0]}
        return {k: m for k, (m, _) in pairs.items()}, {k: r for k, (_, r) in pairs.items()}
    rounds = [round(value, 2) for value in values]
    return round(statistics.median(rounds), 2), rounds


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


def drive(parser, args, script: str, options: list[str], measure, fixed=(), same=None) -> int:
    """Run a bench script's rounds and write its JSON document.

    With --measure SRC, print measure()'s figures for the lenscert package
    in SRC.  Otherwise measure each --tree in a fresh process, running
    script with options and --repeats, once per round, the trees taking
    turns to go first so that a drift in machine speed falls on all
    alike, and write one column per tree.  A column holds each key of
    measure()'s figures by one rule:

      * a key named in fixed or same must hold the same value in every
        round of its tree, and is copied as it is; the key same, if one
        is named, must also hold it in every tree;
      * every other key holds, for each number at any depth of its
        value, the median over the rounds to two decimals, and
        <key>_rounds holds each round's number there, to two decimals.

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

    kept = {*fixed, *([same] if same is not None else [])}
    columns = {}
    for name, column_runs in runs.items():
        first = column_runs[0]
        for key in fixed:
            if any(run[key] != first[key] for run in column_runs):
                raise SystemExit(f"error: the rounds of tree {name!r} disagree on {key}")
        column = {key: first[key] for key in kept}
        for key in first.keys() - kept:
            column[key], column[key + "_rounds"] = _over_rounds([run[key] for run in column_runs])
        columns[name] = column

    doc = {
        "command": " ".join(
            [f"scripts/{os.path.basename(script)}", *options, "--rounds", str(args.rounds)]
        ),
        "machine": _machine(),
        "python": platform.python_version(),
        "columns": columns,
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
        lambda: measure(args.max_n, args.repeats),
        fixed=("certificates", "cost_model_means"), same="bound_certificate",
    )


if __name__ == "__main__":
    sys.exit(main())
