"""Span tracing for the benchmark's traced runs.

The library is not edited: at run time every public function named in
SPANS is replaced, in each loaded lenscert module (and make_fixtures)
that holds a reference to it, by a wrapper that records a span
[name, start_ns, end_ns, parent, item, muls_at_start, muls_at_end].
Two hot methods are only counted, not timed, because a span per field
multiply would cost more than the multiply.  Spans stay in memory until
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, function) pairs timed as spans, each reported as <module>.<function>.self_ms
SPANS = (
    ("triangulation", "parse_triangulation"),
    ("triangulation", "validate"),
    ("triangulation", "orientation_check"),
    ("presentation", "fundamental_group"),
    ("intlinalg", "smith_normal_form"),
    ("projmat", "projective_order"),
    ("projmat", "evaluate_word"),
    ("galois", "smallest_prime_in_progression"),
    ("galois", "root_of_unity"),
    ("trianglerep", "solve_r"),
    ("trianglerep", "build_hyperbolic_rep"),
    ("trianglerep", "build_nonhyperbolic_cert"),
    ("certificate", "triangle_certificate"),
    ("certificate", "pipeline"),
    ("certificate", "noncyclic_certificate"),
    ("certificate", "serialize"),
    ("certificate", "parse"),
    ("certificate", "verify"),
)
# spans whose call count is reported as <name>.calls
CALLS = ("intlinalg.smith_normal_form", "projmat.projective_order", "certificate.verify")
# counted methods: metric prefix -> (module, class, attribute)
COUNTED = {
    "projmat.mul": ("projmat", "ProjMatrix", "mul"),
    "galois.field_mul": ("galois", "FieldElement", "__mul__"),
}
ORDER_CHECK = "projmat.projective_order"
ITEM_SPAN = "item"

PER_LAYER = (
    [(f"{m}.{f}.self_ms", "ms") for m, f in SPANS]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.calls", "count") for name in COUNTED]
    + [
        ("projmat.mul_per_order_check", "count"),
        ("certificate.verify.false_accepts", "count"),
        ("trace_overhead_frac", "ratio"),
    ]
)


class Tracer:
    """Patches the library while installed; install and uninstall are cheap,
    so a run can trace every other item."""

    def __init__(self, lib):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.counts = {name: 0 for name in COUNTED}
        # (owner, attribute, original, wrapper) for every reference to patch
        self._patches: list[tuple[object, str, object, object]] = []
        modules = lib.modules
        for modname, fname in SPANS:
            original = getattr(modules[modname], fname)
            wrapper = self._span(f"{modname}.{fname}", original)
            for mod in modules.values():
                self._patches.extend(
                    (mod, attr, original, wrapper) for attr, v in vars(mod).items() if v is original
                )
        for name, (modname, cls, attr) in COUNTED.items():
            klass = getattr(modules[modname], cls)
            original = vars(klass)[attr]
            self._patches.append((klass, attr, original, self._counter(name, original)))

    def _span(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item, counts["projmat.mul"], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[6] = counts["projmat.mul"]
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_item(self, index, fn, *args):
        """Call fn(*args) traced, inside a root span for item `index`."""
        self.item = index
        self.install()
        try:
            return self._span(ITEM_SPAN, fn)(*args)
        finally:
            self.uninstall()

    def layer_metrics(self, n_items: int) -> dict[str, float]:
        """Per-item means of self time and counts over the traced items."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        order_muls = 0
        for rec, children in zip(self.spans, child_ns):
            self_ns[rec[0]] += rec[2] - rec[1] - children
            calls[rec[0]] += 1
            if rec[0] == ORDER_CHECK:
                order_muls += rec[6] - rec[5]
        n = max(n_items, 1)
        out = {f"{m}.{f}.self_ms": self_ns[f"{m}.{f}"] / 1e6 / n for m, f in SPANS}
        out.update({f"{name}.calls": calls[name] / n for name in CALLS})
        out.update({f"{name}.calls": count / n for name, count in self.counts.items()})
        out["projmat.mul_per_order_check"] = order_muls / calls[ORDER_CHECK] if calls[ORDER_CHECK] else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec[:5]) + "\n")
