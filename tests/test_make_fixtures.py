"""scripts/make_fixtures.py regenerates fixtures/ byte for byte, its
parametric builders check their arguments and give the manifolds they
name, and every public name of the library, down to the methods and
properties of its classes, has a caller outside the unit tests."""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from lenscert.intlinalg import AbelianGroup, abelianization
from lenscert.presentation import fundamental_group
from lenscert.triangulation import orientation_check, validate

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
import make_fixtures  # noqa: E402


def test_make_fixtures_regenerates_every_fixture_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_fixtures, "FIXTURES", str(tmp_path))
    make_fixtures.main()
    capsys.readouterr()
    names = sorted(os.listdir(FIXTURES))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(FIXTURES, name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["-h"], 0), (["--bogus"], 2), (["x"], 2)])
def test_make_fixtures_arguments_write_nothing(argv, code, tmp_path, monkeypatch, capsys):
    # --help prints usage and an unknown argument is refused, both
    # before any fixture is built or written
    out = tmp_path / "fixtures"
    monkeypatch.setattr(make_fixtures, "FIXTURES", str(out))
    with pytest.raises(SystemExit) as exit_info:
        make_fixtures.main(argv)
    assert exit_info.value.code == code
    assert not out.exists()
    printed = capsys.readouterr()
    assert "usage: " in (printed.out if code == 0 else printed.err)


def test_importing_make_fixtures_keeps_the_importers_lenscert(tmp_path):
    # a copied tree first on sys.path, this checkout's src on PYTHONPATH:
    # imported, make_fixtures builds with the copy, as a bench script
    # measuring another tree needs
    root = Path(__file__).resolve().parent.parent
    copy = tmp_path / "copy"
    shutil.copytree(root / "src" / "lenscert", copy / "lenscert")
    code = (
        f"import sys; sys.path[:0] = [{str(copy)!r}, {str(root / 'scripts')!r}]\n"
        "import make_fixtures\n"
        "print(make_fixtures.abelianization.__code__.co_filename)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert Path(out.stdout.strip()) == copy / "lenscert" / "intlinalg.py"


@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (4, 0), (4, 4), (4, 5), (4, 2), (6, -1)])
def test_lens_space_refuses_bad_parameters(p, q):
    with pytest.raises(ValueError, match=r"L\(p,q\)"):
        make_fixtures.lens_space(p, q)


@pytest.mark.parametrize("m", [1, 0, -3])
def test_prism_manifold_refuses_m_below_two(m):
    # S^3/Q_4 is L(4,1), and smaller m names no group
    with pytest.raises(ValueError, match="m >= 2"):
        make_fixtures.prism_manifold(m)


@pytest.mark.parametrize("m", [*range(2, 41), 97, 160, 1000])
def test_prism_manifold_is_the_prism_manifold(m):
    # H1(S^3/Q_{4m}) is Z/4 for odd m and (Z/2)^2 for even m (Orlik,
    # Seifert Manifolds, LNM 291, 1972), a fact independent of this code
    tri = make_fixtures.prism_manifold(m)
    assert tri.t == m
    assert validate(tri).passed
    assert orientation_check(tri).orientable
    h1 = AbelianGroup(0, (4,) if m % 2 else (2, 2))
    assert abelianization(fundamental_group(tri)) == h1


def test_enumerate_tables_yields_every_table_on_one_tetrahedron():
    # 3 ways to pair the 4 faces, and 6 perms sending one face to another
    # for each of the 2 pairs
    assert sum(1 for _ in make_fixtures.enumerate_tables(1)) == 3 * 6 * 6 == 108


def test_every_public_name_has_a_product_caller():
    # product callers: the library itself, scripts/, perfbench/ and the
    # acceptance tests; a name only unit tests or oracles use belongs there
    root = Path(__file__).resolve().parent.parent
    library = sorted((root / "src" / "lenscert").glob("*.py"))
    callers = [path for path in library if path.name != "__init__.py"]
    callers += sorted((root / "scripts").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    callers.append(root / "tests" / "test_acceptance.py")
    lines = [
        (path, lineno, line)
        for path in callers
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
    ]
    unused = []
    for path in library:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((node, rf"\b{node.name}\b", node.name))
            if isinstance(node, ast.ClassDef):
                # methods and properties, called through an attribute
                defs += [
                    (item, rf"\.{item.name}\b", f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
            for item, pattern, label in defs:
                name = re.compile(pattern)
                if not any(
                    name.search(line) and (where, lineno) != (path, item.lineno)
                    for where, lineno, line in lines
                ):
                    unused.append(f"{path.stem}.{label}")
    assert unused == []
