"""Each set-up fact is stated once: pyproject.toml's `test` extra pins the
test dependencies, which README and CI install, and pytest's import path;
conftest.py sets the deadline.  Read as text or ast: 3.10 has no tomllib."""

import ast
import re
from pathlib import Path

from hypothesis import settings

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
    # a string naming sys.path, as a child process's source, is not code
    assert [
        (module, node.lineno) for module, node in _test_nodes()
        if isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.path", "monkeypatch.syspath_prepend")
    ] == []


def test_conftest_alone_sets_the_hypothesis_deadline():
    assert settings.default.deadline is None
    assert [
        (module, node.lineno) for module, node in _test_nodes()
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "settings"
        and any(keyword.arg == "deadline" for keyword in node.keywords)
    ] == []
