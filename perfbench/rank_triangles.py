#!/usr/bin/env python3
"""Rewrite perfbench/triangle_rank.json (takes about two minutes).

    python3 perfbench/rank_triangles.py

Lists every hyperbolic triple with entries in [2, 19], sorted by image
kind ((Z/d)^2, PSL over F_p, PSL over F_p^2) and then by the number of
field multiplications one triangle_certificate + serialize + parse +
verify performs.  Counts, unlike timings, do not depend on the machine.
triangle-sweep uses only the order: consecutive triples form its strata,
so every stratum holds one image kind and similar work.  Re-rank when a
change shifts the relative costs much.
"""

from __future__ import annotations

import json

from bench_workloads import ALL_TRIPLES, TRIANGLE_RANK, is_hyperbolic, load_lib

NOTE = (
    "Every hyperbolic triple with entries in [2, 19], sorted by image kind "
    "((Z/d)^2, then PSL(2, F_p), then PSL(2, F_p^2)) and then by the field "
    "multiplications of one triangle_certificate + serialize + parse + verify. "
    "Written by perfbench/rank_triangles.py."
)


def main() -> None:
    lib = load_lib()
    cert_mod, field_cls = lib.certificate, lib.galois.FieldElement
    multiply = field_cls.__mul__
    count = [0]

    def counted(self, other):
        count[0] += 1
        return multiply(self, other)

    field_cls.__mul__ = counted
    keys = []
    try:
        for triple in filter(is_hyperbolic, ALL_TRIPLES):
            count[0] = 0
            cert, _ = cert_mod.triangle_certificate(*triple)
            cert_mod.verify(cert_mod.parse(cert_mod.serialize(cert)))
            kind = cert.field.degree if cert.field else 0
            keys.append((kind, count[0], triple))
    finally:
        field_cls.__mul__ = multiply
    rows = ",\n".join(f"    {json.dumps(list(t))}" for *_, t in sorted(keys))
    with open(TRIANGLE_RANK, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n  "note": {json.dumps(NOTE)},\n  "triples": [\n{rows}\n  ]\n}}\n')


if __name__ == "__main__":
    main()
