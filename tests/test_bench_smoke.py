"""The benchmark command runs each workload to a correct end.

perfbench/run.py exits 0 even when items fail, so each workload is run
here at its smallest size (one seed, no timed seconds, two items) and
its last line must say "correct": true.  The inputs digest is pinned
per workload: on triangulation-homology it covers the lens-space texts
that format_triangulation writes, as the benchmark reads them.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

INPUTS_SHA256 = {
    "triangle-sweep": "b903daca588e2ebe450309dfbbc2564faba46fb18093e1dce4b6bd0eea66382d",
    "triangulation-homology": "dc672b73d80fa15c5acd7619d2d38a7a33b80b76046d351b81fcbfff9a6dae95",
    "verify-corpus": "da3f13e435cb4b3a0f7c40b103ac438b1df27a42db32a7cd06890e5da466ab2d",
}


@pytest.mark.parametrize("workload", sorted(INPUTS_SHA256))
def test_benchmark_command_runs_the_workload_correctly(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--min-items", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True, out.stderr
    assert f"  inputs_sha256 {INPUTS_SHA256[workload]}" in lines
