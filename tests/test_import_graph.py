"""The modules a certificate checker reads import none of the producers.

The graph is read from the modules' own import statements with `ast`,
so nothing is imported to draw it, and followed transitively inside the
lenscert package.  The package's `__init__` re-exports every module and
is not a node: a checker that loads these modules by path reads only
the modules the graph reaches.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "lenscert")
CHECKER = ("galois", "triangulation", "unionfind", "presentation", "projmat")
PRODUCERS = {"intlinalg", "trianglerep", "certificate", "cli"}


def _modules() -> set[str]:
    return {
        name[:-3] for name in os.listdir(PACKAGE)
        if name.endswith(".py") and name != "__init__.py"
    }


def _imports(module: str, modules: set[str]) -> set[str]:
    """The lenscert modules that module's source imports, at any depth
    of its syntax tree."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found.update(parts[1] for parts in names if parts[0] == "lenscert" and len(parts) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:  # absolute: only lenscert.x counts
                if parts[:1] != ["lenscert"]:
                    continue
                parts = parts[1:]
            if parts:
                found.add(parts[0])  # from .x import y, from lenscert.x import y
            else:
                found.update(alias.name for alias in node.names)  # from . import x
    return found & modules


def _reach(start: str) -> set[str]:
    modules = _modules()
    seen, todo = {start}, [start]
    while todo:
        for name in _imports(todo.pop(), modules) - seen:
            seen.add(name)
            todo.append(name)
    return seen - {start}


def test_the_graph_reads_every_kind_of_import_statement():
    modules = _modules()
    assert set(CHECKER) | PRODUCERS <= modules
    assert _imports("certificate", modules) >= {"intlinalg", "presentation", "projmat"}
    assert "presentation" in _imports("intlinalg", modules)  # from . import presentation
    assert _reach("cli") >= PRODUCERS - {"cli"}


@pytest.mark.parametrize("module", CHECKER)
def test_checker_modules_reach_no_producer(module):
    assert not _reach(module) & PRODUCERS
