"""The modules a certificate checker reads import none of the producers.

The graph is read from the modules' own import statements with `ast`,
so nothing is imported to draw it, and followed transitively inside the
lenscert package.  The package's `__init__` is a node too, one that
imports no lenscert module, so `import lenscert.checker` loads only the
modules the graph reaches from checker; a subprocess checks that it
does, and that README states how many lines each of those modules holds.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
PACKAGE = os.path.join(SRC, "lenscert")
CHECKER = ("psl", "triangulation", "presentation", "checker")
PRODUCERS = {"galois", "projmat", "intlinalg", "trianglerep", "certificate", "cli"}
TRUSTED = {"psl", "presentation", "triangulation"}


def _modules() -> set[str]:
    return {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}


def _tree(module: str) -> ast.Module:
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _imports(module: str, modules: set[str]) -> set[str]:
    """The lenscert modules that module's source imports, at any depth
    of its syntax tree."""
    found = set()
    for node in ast.walk(_tree(module)):
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
    assert "certificate" in _imports("cli", modules)  # from . import certificate as certmod
    assert _reach("cli") >= PRODUCERS - {"cli"}


def _defined_names(module: str) -> set[str]:
    """The names module binds at its top level by def, class or
    assignment; an imported name is not defined there."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_no_public_name_is_defined_in_two_modules():
    """A name moved from one module to another leaves no copy behind;
    the other modules import it from its one home."""
    homes: dict[str, list[str]] = {}
    for module in sorted(_modules()):
        for name in _defined_names(module):
            homes.setdefault(name, []).append(module)
    assert "parse_word" in _defined_names("certificate")
    assert {"Closure", "closure", "lift"} <= _defined_names("intlinalg")
    assert {name: found for name, found in homes.items() if len(found) > 1} == {}


@pytest.mark.parametrize("module", CHECKER)
def test_checker_modules_reach_no_producer(module):
    assert not _reach(module) & PRODUCERS


def test_the_checker_reaches_only_the_trusted_modules():
    modules = _modules()
    assert _reach("checker") == TRUSTED
    assert "checker" in _imports("certificate", modules)
    assert not _imports("__init__", modules)


def test_importing_the_checker_loads_only_the_trusted_modules():
    """A file's line count is its physical lines; the loaded-line count
    sums them over every lenscert file that a fresh `import
    lenscert.checker` loads, __init__ included.  README states each
    file's count and the total."""
    script = (
        "import sys, lenscert.checker\n"
        "for name in sorted(m for m in sys.modules if m.split('.')[0] == 'lenscert'):\n"
        "    with open(sys.modules[name].__file__, encoding='utf-8') as handle:\n"
        "        print(name, len(handle.read().splitlines()))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    counts = {name: int(lines) for name, lines in map(str.split, out.splitlines())}
    assert set(counts) == {"lenscert", "lenscert.checker"} | {f"lenscert.{m}" for m in TRUSTED}
    with open(README, encoding="utf-8") as handle:
        readme = " ".join(handle.read().split())
    for name, lines in counts.items():
        file = name.partition(".")[2] or "__init__"
        assert re.search(rf"`{file}` \({lines}(?!\d)", readme), (file, lines)
    assert f"`import lenscert.checker` loads {sum(counts.values()):,} source lines" in readme
