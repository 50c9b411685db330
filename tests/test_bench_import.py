"""scripts/bench_import.py runs end to end and writes the JSON its
docstring describes."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_import.py")


def test_bench_import_one_round_writes_one_column():
    out = subprocess.run(
        [sys.executable, SCRIPT, "--repeats", "1", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["command"] == "scripts/bench_import.py --repeats 1 --rounds 1"
    assert list(doc["columns"]) == ["change"]
    column = doc["columns"]["change"]
    assert column["dataclass_classes"] == [
        "checker.NonAbelianRep", "checker.NonCyclicAbelian", "presentation.GroupPresentation",
    ]
    for metric in ("import_ms", "import_ms_raw"):
        assert set(column[metric]) == {"uncached", "cached"}
        assert all(ms > 0 for ms in column[metric].values())
        assert all(len(v) == 1 for v in column[metric + "_rounds"].values())
    for mode, split in column["split_ms"].items():
        assert set(split) == {"compile", "dataclass", "rest"}
        assert all(len(v) == 1 for v in column["split_ms_rounds"][mode].values())
        assert abs(sum(split.values()) - column["import_ms"][mode]) < 0.05
    # a warm cache compiles nothing; without one, every module is compiled
    assert column["split_ms"]["cached"]["compile"] == 0
    assert column["split_ms"]["uncached"]["compile"] > 0
    assert column["cli_verify_ms"] > 0 and len(column["cli_verify_ms_rounds"]) == 1
