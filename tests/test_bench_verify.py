"""scripts/bench_verify.py runs end to end on a small sweep and writes
the JSON its docstring describes, and its drive() runs the trees and
rounds of every bench script."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

from lenscert.certificate import triangle_certificate
from lenscert.checker import parse, serialize, verify
from lenscert.trianglerep import hyperbolic_triples

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
SCRIPT = os.path.join(SCRIPTS, "bench_verify.py")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=120
    )


def test_bench_verify_small_sweep_writes_one_column():
    out = _run("--max-n", "5", "--repeats", "1", "--rounds", "1")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["command"] == "scripts/bench_verify.py --max-n 5 --repeats 1 --rounds 1"
    assert list(doc["columns"]) == ["change"]
    column = doc["columns"]["change"]
    assert column["certificates"] == {"abelian": 2, "F_p": 2, "F_p2": 7}
    for metric in ("verify_us", "verify_us_raw"):
        assert set(column[metric]) == {"abelian", "F_p", "F_p2"}
        assert all(us > 0 for us in column[metric].values())
    for metric in ("relator_fold_us", "relator_fold_us_raw"):
        assert set(column[metric]) == {"F_p", "F_p2"}
        assert all(us > 0 for us in column[metric].values())
    for metric in (f"bound_{step}_ms{raw}" for step in ("parse", "verify") for raw in ("", "_raw")):
        assert list(column[metric]) == ["prism_manifold(10000)"]
        assert column[metric]["prism_manifold(10000)"] > 0
    bound = column["bound_certificate"]
    assert bound["bytes"] == 593455
    assert bound["report"]["accepted"] and bound["report"]["kind"] == "NonCyclicAbelian"
    reports = [
        verify(parse(serialize(triangle_certificate(*t.triple)[0])))
        for t in hyperbolic_triples(5)
    ]
    assert column["cost_model_means"] == {
        key: round(statistics.fmean(getattr(r, key) for r in reports), 4)
        for key in ("relator_mat_mults", "mat_mults", "field_ops", "cert_bits")
    }


def test_bench_verify_refuses_a_sweep_without_hyperbolic_triples():
    out = _run("--max-n", "3", "--repeats", "1", "--rounds", "1")
    assert out.returncode == 2
    assert "--max-n must be at least 4" in out.stderr
    assert "Traceback" not in out.stderr


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    else:
        yield value


def test_bench_verify_two_trees_take_turns_over_two_rounds():
    out = _run(
        "--tree", f"a={SRC}", "--tree", f"b={SRC}",
        "--max-n", "5", "--repeats", "1", "--rounds", "2",
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["command"].endswith("--rounds 2")
    assert list(doc["columns"]) == ["a", "b"]
    for column in doc["columns"].values():
        rounds = [leaf for key in column if key.endswith("_rounds") for leaf in _leaves(column[key])]
        assert rounds and all(len(leaf) == 2 for leaf in rounds)


def test_bench_verify_refuses_trees_that_disagree_on_the_bound_certificate(tmp_path):
    shutil.copytree(
        os.path.join(SRC, "lenscert"), tmp_path / "lenscert",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    presentation = tmp_path / "lenscert" / "presentation.py"
    old = presentation.read_text()
    new = old.replace('tuple(f"x{i}" for i in range(g))', 'tuple(f"gen{i}" for i in range(g))')
    assert new != old
    presentation.write_text(new)
    out = _run(
        "--tree", f"a={SRC}", "--tree", f"b={tmp_path}",
        "--max-n", "5", "--repeats", "1", "--rounds", "1",
    )
    assert out.returncode == 1
    assert out.stderr.rstrip("\n") == "error: the trees or rounds disagree on bound_certificate"


def test_bench_verify_refuses_a_tree_whose_rounds_disagree_on_a_fixed_key(tmp_path):
    # in the copy, every process after the first, told so by a marker file
    # the first leaves beside the module, sweeps one triple fewer
    shutil.copytree(
        os.path.join(SRC, "lenscert"), tmp_path / "lenscert",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    trianglerep = tmp_path / "lenscert" / "trianglerep.py"
    trianglerep.write_text(trianglerep.read_text() + (
        "\nimport os as _os\n"
        "_MARKER = _os.path.join(_os.path.dirname(__file__), 'measured')\n"
        "_LATER = _os.path.exists(_MARKER)\n"
        "open(_MARKER, 'w').close()\n"
        "_all_triples = hyperbolic_triples\n\n\n"
        "def hyperbolic_triples(max_n):\n"
        "    triples = _all_triples(max_n)\n"
        "    return triples[:-1] if _LATER else triples\n"
    ))
    out = _run("--tree", f"a={tmp_path}", "--max-n", "5", "--repeats", "1", "--rounds", "2")
    assert out.returncode == 1
    assert out.stderr.rstrip("\n") == "error: the rounds of tree 'a' disagree on certificates"


@pytest.mark.parametrize("script", ["bench_verify.py", "bench_homology.py", "bench_import.py"],
                         ids=["verify", "homology", "import"])
@pytest.mark.parametrize(
    "args, message",
    [
        (("--rounds", "0"), "--rounds must be at least 1"),
        (("--repeats", "0"), "--repeats must be at least 1"),
        (("--tree", f"a={SRC}", "--tree", f"a={SRC}"), "the name 'a' is given twice"),
        (("--tree", f"old={SCRIPTS}"), "expected NAME=SRC with SRC/lenscert"),
    ],
    ids=["rounds-0", "repeats-0", "name-twice", "no-lenscert"],
)
def test_bench_refuses_an_empty_or_merged_measurement(script, args, message):
    """drive() refuses these before it measures anything, for every bench
    script; SCRIPTS holds no lenscert package."""
    out = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 2
    assert message in out.stderr
    assert "Traceback" not in out.stderr
