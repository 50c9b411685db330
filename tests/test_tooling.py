"""Each set-up fact is stated once: pyproject.toml's `test` extra pins the
test dependencies, which README and CI install, and pytest's import path;
conftest.py holds the deadline, the fixture inventory and a child's
PYTHONPATH; scripts/families.py holds each family's H1.  Read as text or
ast: 3.10 has no tomllib."""

import ast
import re
from pathlib import Path

from hypothesis import settings

from families import FAMILIES

ROOT = Path(__file__).resolve().parent.parent
INSTALL = ['pip install "setuptools>=68" wheel', 'pip install -e ".[test]" --no-build-isolation']


def _read(path) -> str:
    return (ROOT / path).read_text(encoding="utf-8")


def _test_nodes():
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(_read(path))):
            yield path.name, node


def test_ci_installs_the_pins_of_the_test_extra():
    (extra,) = [line for line in _read("pyproject.toml").splitlines() if line.startswith("test = [")]
    assert set(re.findall(r'"(\w+)==', extra)) == {"pytest", "hypothesis"}
    for path in (".github/workflows/tier1.yml", "README.md"):
        text = _read(path)
        assert not re.search(r"(pytest|hypothesis)\s*[=<>~!]=", text), path
        lines = (line.strip().removeprefix("run: ").split(" #")[0].rstrip() for line in text.splitlines())
        assert [line for line in lines if line.startswith("pip install ")] == INSTALL, path


def test_pyproject_alone_sets_the_import_path():
    assert 'pythonpath = ["src", "scripts"]' in _read("pyproject.toml").splitlines()
    assert "PYTHONPATH" not in _read(".github/workflows/tier1.yml")
    # a string naming sys.path, as a child process's source, is not code
    assert [
        (module, node.lineno) for module, node in _test_nodes()
        if isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.path", "monkeypatch.syspath_prepend")
    ] == []


def test_conftest_alone_names_a_childs_pythonpath_and_the_metadata():
    # strings ending in name and keywords called name, outside this module, which seeks them
    for name in ("PYTHONPATH", "metadata.json"):
        assert [
            module for module, node in _test_nodes() if module != Path(__file__).name
            and (isinstance(node, ast.Constant) and str(node.value).endswith(name)
                 or isinstance(node, ast.keyword) and node.arg == name)
        ] == ["conftest.py"], name


def test_no_test_module_globs_the_fixtures():
    assert [
        (module, node.lineno) for module, node in _test_nodes()
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("glob", "iglob", "rglob")
        and "fixture" in ast.unparse(node).lower()
    ] == []


def test_certificate_tests_import_no_cli():
    # the CLI's exit codes are test_cli.py's to check
    assert [
        ast.unparse(node) for module, node in _test_nodes()
        if module == "test_certificate.py" and isinstance(node, (ast.Import, ast.ImportFrom))
        and re.search(r"\blenscert\.cli\b|^from lenscert import .*\bcli\b", ast.unparse(node))
    ] == []


def test_conftest_alone_sets_the_hypothesis_deadline():
    assert settings.default.deadline is None
    assert [
        (module, node.lineno) for module, node in _test_nodes()
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "settings"
        and any(keyword.arg == "deadline" for keyword in node.keywords)
    ] == []


def test_only_the_registry_tests_restate_a_familys_h1():
    # a test that names a registered builder, by a call, through FAMILIES
    # or in a string such as "prism_manifold(101)", reads that member's H1
    # from families.py: it writes no AbelianGroup(...), no `.torsion ==`
    # tuple and no string that starts "Z^0 + Z/"; a CLI message that
    # quotes an H1 inside its text is not such a string.  This module,
    # which names them to find them, is skipped
    builder = re.compile(r"\bFAMILIES\b|\b(%s)\(" % "|".join(FAMILIES))

    def is_literal(node) -> bool:
        if isinstance(node, ast.Call):
            return ast.unparse(node.func).split(".")[-1] == "AbelianGroup"
        if isinstance(node, ast.Compare):
            return (isinstance(node.left, ast.Attribute) and node.left.attr == "torsion"
                    and isinstance(node.ops[0], ast.Eq) and isinstance(node.comparators[0], ast.Tuple))
        return isinstance(node, ast.Constant) and str(node.value).startswith("Z^0 + Z/")

    assert [
        (module, node.name) for module, node in _test_nodes()
        if module not in ("test_families.py", Path(__file__).name)
        and isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        and builder.search(ast.unparse(node)) and any(is_literal(inner) for inner in ast.walk(node))
    ] == []
