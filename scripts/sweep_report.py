#!/usr/bin/env python3
"""Build every hyperbolic triangle-group certificate up to a bound and
tabulate the observed field sizes against the theoretical budgets.

For each sorted hyperbolic triple with entries <= --max-n this prints
the split prime, the field degree, the trace-field degree phi(ell)/2,
the first non-real-embedding witness l, and the observed ratios
p / ell^5.18 (the effective Linnik exponent) and |F| / ell^10 (the
certificate-size budget).  Ends with the extremes over the whole run.

Usage: python scripts/sweep_report.py [--max-n 19] [--out report.tsv]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lenscert.certificate import triangle_certificate
from lenscert.trianglerep import field_degree_report, hyperbolic_triples


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=19)
    parser.add_argument("--out", help="also write the table as TSV")
    args = parser.parse_args()

    start = time.time()
    triples = hyperbolic_triples(args.max_n)
    rows = []
    worst_linnik = (0.0, None)
    worst_budget = (0.0, None)
    degree_two = 0
    witnessed_all = True
    for t in triples:
        scan = field_degree_report(t)
        witnessed_all = witnessed_all and scan.witness_l is not None
        # raises unless the certificate it builds verifies
        _cert, info = triangle_certificate(*t.triple)
        if t.d > 1:
            rows.append(
                (t.triple, t.ell, t.d, "-", "-", scan.trace_degree, scan.witness_l, "-", "-")
            )
            continue
        linnik = info["p"] / t.ell**5.18
        budget = info["field_size"] / t.ell**10
        if linnik > worst_linnik[0]:
            worst_linnik = (linnik, t.triple)
        if budget > worst_budget[0]:
            worst_budget = (budget, t.triple)
        degree_two += info["field_degree"] == 2
        rows.append(
            (
                t.triple,
                t.ell,
                t.d,
                info["p"],
                info["field_degree"],
                scan.trace_degree,
                scan.witness_l,
                f"{linnik:.3g}",
                f"{budget:.3g}",
            )
        )

    header = (
        "triple",
        "ell",
        "gcd",
        "p",
        "deg",
        "phi(ell)/2",
        "witness_l",
        "p/ell^5.18",
        "|F|/ell^10",
    )
    lines = ["\t".join(header)]
    for row in rows:
        triple = ",".join(str(n) for n in row[0])
        lines.append("\t".join([f"({triple})"] + [str(x) for x in row[1:]]))
    table = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
        print(f"wrote {args.out}")
    else:
        print(table)

    coprime = sum(1 for t in triples if t.d == 1)
    print()
    print(f"{len(triples)} hyperbolic triples, {coprime} coprime builds, "
          f"{len(triples) - coprime} abelian certificates")
    print(f"quadratic extensions needed: {degree_two}/{coprime}")
    print(f"largest p/ell^5.18: {worst_linnik[0]:.4g} at {worst_linnik[1]}")
    print(f"largest |F|/ell^10: {worst_budget[0]:.4g} at {worst_budget[1]}")
    print(f"embedding witness found for all: {witnessed_all}")
    print(f"elapsed {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
