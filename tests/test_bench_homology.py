"""scripts/bench_homology.py runs end to end and writes the JSON its
docstring describes."""

import json
import os
import shutil
import subprocess
import sys

from conftest import SRC
from families import FAMILIES
from lenscert.intlinalg import format_abelian

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_homology.py")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=300
    )


def test_bench_homology_one_round_writes_one_column():
    out = _run("--repeats", "1", "--rounds", "1")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["command"] == "scripts/bench_homology.py --repeats 1 --rounds 1"
    assert list(doc["columns"]) == ["change"]
    column = doc["columns"]["change"]
    pairs = ((40, 11), (120, 37), (240, 61), (1000, 331), (10000, 3001))
    lens = {f"L({p},{q})": ("lens_space", p, q) for p, q in pairs}
    prism = {f"prism_manifold({m})": ("prism_manifold", m) for m in (101, 10000)}
    assert column["h1"] == {
        label: format_abelian(FAMILIES[name].truth(*params).h1)
        for label, (name, *params) in {**lens, **prism}.items()
    }
    inputs = {
        "step1_us": {"prism_manifold(160)", "prism_manifold(10000)"},
        "pipeline_us": {"prism_q8", "t3_torus", "prism_q12"},
    }
    for metric in ("build_us", "pi1_h1_us", "h1_us", "step1_us", "pipeline_us"):
        for timing in (metric, metric + "_raw"):
            assert set(column[timing]) == inputs.get(metric, set(column["h1"]))
            assert all(us > 0 for us in column[timing].values())
            assert all(len(v) == 1 for v in column[timing + "_rounds"].values())


def test_bench_homology_names_a_tree_without_seed_core(tmp_path):
    """A tree from before intlinalg.seed_core ends its child with one
    line naming the missing step-1 API, not an ImportError traceback."""
    shutil.copytree(
        os.path.join(SRC, "lenscert"), tmp_path / "lenscert",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    intlinalg = tmp_path / "lenscert" / "intlinalg.py"
    intlinalg.write_text(intlinalg.read_text().replace("def seed_core(", "def _seed_core("))
    out = _run("--tree", f"old={tmp_path}", "--rounds", "1", "--repeats", "1")
    assert out.returncode == 1
    assert out.stderr.rstrip("\n").splitlines() == [
        "error: measuring tree 'old' failed:",
        "error: the tree has no lenscert.intlinalg.seed_core, the step-1 API "
        "(noncyclic_certificate(pres, seed_core(pres))) this script times",
    ]
