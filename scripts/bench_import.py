#!/usr/bin/env python3
"""Time importing lenscert, as perfbench's set-up and every CLI run pay it.

Four things are measured per source tree:

  * import_ms: the re-import that perfbench's load_lib does, each of its
    lenscert modules dropped from sys.modules and imported again, in two
    modes: "uncached", with no bytecode written or read, so every module
    is compiled from source, as under PYTHONDONTWRITEBYTECODE=1 with no
    __pycache__; and "cached", from a warm bytecode cache.  Both keep
    their bytecode under a temporary sys.pycache_prefix (what
    PYTHONPYCACHEPREFIX sets), so nothing is read from or written into
    the tree;
  * split_ms: each mode's import_ms split into compiling source
    ("compile", time in the source loader's source_to_code), dataclass
    code generation ("dataclass", time in dataclasses._process_class)
    and everything else ("rest");
  * dataclass_classes: the classes of the package that carry
    __dataclass_fields__, every module of the package imported;
  * cli_verify_ms: the wall time of `python -m lenscert.cli verify
    fixtures/fig8.cert` in a fresh interpreter under
    PYTHONDONTWRITEBYTECODE=1, start-up included: the standard library
    loads from its installed bytecode, and lenscert from the tree's
    __pycache__ if it has one, else from source.  It is reported, not
    compared: interpreter start-up alone moves by milliseconds between
    identical runs.

One import_ms measurement is the median, over --repeats passes of
IMPORTS_PER_PASS imports, of a pass's mean milliseconds per import,
calibrated for machine speed by bench_verify._median_pass_us
(perfbench's reference loop timed around each pass), with the raw figure
beside it; one warm-up import in each mode comes first.  cli_verify_ms
is the median of --repeats runs.  bench_verify.drive runs the trees and
rounds and builds each tree's column; every round of a tree must find
the same dataclass classes.

  python3 scripts/bench_import.py --tree parent=OLD/src --tree change=src \\
      --out BENCH_import.json

A tree is NAME=SRC, SRC a directory holding the lenscert package
(default: change=this checkout's src); a NAME may be given once, and
--repeats and --rounds are at least 1.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.machinery
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.append(os.path.join(HERE, "..", "perfbench"))
from bench_verify import _median_pass_us, drive, driver_parser  # noqa: E402
from bench_workloads import LIB_MODULES  # noqa: E402

MODES = ("uncached", "cached")
PARTS = ("compile", "dataclass", "rest")
IMPORTS_PER_PASS = 4
FIG8 = os.path.join(HERE, "..", "fixtures", "fig8.cert")


def _import_lib() -> None:
    """load_lib's import: its lenscert modules, from none loaded."""
    for name in [n for n in sys.modules if n.split(".")[0] == "lenscert"]:
        del sys.modules[name]
    for name in LIB_MODULES:
        importlib.import_module(f"lenscert.{name}")


class _Split:
    """While installed, adds the time spent compiling source and
    generating dataclass code to spent_ns, and run's imports to total_ns."""

    def __init__(self):
        self.spent_ns = {"compile": 0, "dataclass": 0}
        self.total_ns = 0

    def run(self, _) -> None:
        start = time.perf_counter_ns()
        _import_lib()
        self.total_ns += time.perf_counter_ns() - start

    def _timed(self, part, fn):
        spent = self.spent_ns

        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[part] += time.perf_counter_ns() - start

        return timed

    def __enter__(self):
        loader = importlib.machinery.SourceFileLoader
        self._saved = (loader.source_to_code, dataclasses._process_class)
        loader.source_to_code = self._timed("compile", loader.source_to_code)
        dataclasses._process_class = self._timed("dataclass", dataclasses._process_class)
        return self

    def __exit__(self, *exc):
        importlib.machinery.SourceFileLoader.source_to_code, dataclasses._process_class = (
            self._saved
        )


def _time_imports(repeats: int) -> tuple[float, float, dict[str, float]]:
    """import_ms calibrated and raw, and the raw share of each part."""
    _import_lib()  # warm-up: the standard library modules stay loaded
    with _Split() as split:
        ms, raw = _median_pass_us(range(IMPORTS_PER_PASS), split.run, repeats)
    share = {part: ns / split.total_ns for part, ns in split.spent_ns.items()}
    share["rest"] = 1 - sum(share.values())
    return ms / 1000, raw / 1000, share


def _dataclass_classes(src: str) -> list[str]:
    """module.Class of each class of the package with __dataclass_fields__."""
    files = os.listdir(os.path.join(src, "lenscert"))
    names = sorted(f[:-3] for f in files if f.endswith(".py") and f != "__init__.py")
    found = []
    for name in names:
        module = importlib.import_module(f"lenscert.{name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type) and obj.__module__ == module.__name__
                and hasattr(obj, "__dataclass_fields__")
            ):
                found.append(f"{name}.{obj.__qualname__}")
    return sorted(found)


def _cli_verify_ms(src: str, repeats: int) -> float:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "lenscert.cli", "verify", FIG8],
            capture_output=True, text=True, env=env,
        )
        times.append((time.perf_counter() - start) * 1000)
        if out.returncode:
            raise SystemExit(f"error: lenscert verify exited {out.returncode}:\n{out.stderr}")
    return statistics.median(times)


def measure(repeats: int, src: str) -> dict:
    """One measurement of the lenscert package in src, first on sys.path."""
    doc: dict = {"import_ms": {}, "import_ms_raw": {}, "split_ms": {}}
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    try:
        for mode in MODES:
            with tempfile.TemporaryDirectory() as prefix:
                sys.pycache_prefix = prefix
                sys.dont_write_bytecode = mode == "uncached"
                if mode == "cached":
                    _import_lib()  # writes the cache that the timed imports read
                ms, raw, share = _time_imports(repeats)
                doc["import_ms"][mode], doc["import_ms_raw"][mode] = ms, raw
                doc["split_ms"][mode] = {part: ms * share[part] for part in PARTS}
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved
    doc["dataclass_classes"] = _dataclass_classes(src)
    doc["cli_verify_ms"] = _cli_verify_ms(src, repeats)
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = driver_parser(__doc__.split("\n\n")[0])
    args = parser.parse_args(argv)
    return drive(
        parser, args, os.path.abspath(__file__), [],
        lambda: measure(args.repeats, args.measure), fixed=("dataclass_classes",),
    )


if __name__ == "__main__":
    sys.exit(main())
