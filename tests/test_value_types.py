"""lenscert's value types and records generate no code at import.

The validated value types derive from psl.Frozen and the plain records
are NamedTuples; only the two certificate records and GroupPresentation,
which callers rebuild with dataclasses.replace, stay dataclasses.  Each of the other
15 types keeps what it had as a frozen dataclass: its repr, == by class
and fields, the hash of its field tuple, and no attribute that can be
set or deleted.  ProjMatrix, a Frozen value too, has the same == and
hash over its spec and coordinates, and writes its repr as a matrix.
Frozen is the one class that defines __setattr__, __delattr__, __eq__
or __hash__.
"""

import ast
import os
import subprocess
import sys

import pytest

from conftest import fixture_text
from lenscert.checker import parse, verify
from lenscert.intlinalg import AbelianGroup, IntMatrix, smith_normal_form
from lenscert.presentation import Word
from lenscert.psl import FieldElement, FieldSpec, ProjMatrix
from lenscert.trianglerep import bound_report, classify, field_degree_report
from lenscert.triangulation import (
    FacePairing,
    Permutation4,
    Triangulation,
    orientation_check,
    parse_triangulation,
    validate,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
ONE_TET = "t=1\n0:0 -> 0:1 perm=1032\n0:2 -> 0:3 perm=0132\n"

# name -> (a builder of a fresh instance, its fields in order, its repr as
# the frozen dataclass wrote it)
CASES = {
    "FieldSpec": (lambda: FieldSpec(7, 2, 3), ("p", "degree", "s"),
                  "FieldSpec(p=7, degree=2, s=3)"),
    "FieldElement": (
        lambda: FieldElement(FieldSpec(7, 2, 3), 1, 9), ("spec", "a", "b"),
        "FieldElement(spec=FieldSpec(p=7, degree=2, s=3), a=1, b=2)",
    ),
    "ProjMatrix": (
        lambda: ProjMatrix(*(FieldSpec(7).element(x) for x in (5, 4, 6, 5))), ("spec", "coords"),
        "ProjMatrix([[2,3],[1,2]])",
    ),
    "Permutation4": (lambda: Permutation4((1, 0, 2, 3)), ("images",),
                     "Permutation4(images=(1, 0, 2, 3))"),
    "FacePairing": (
        lambda: FacePairing((0, 3), (1, 2), Permutation4((0, 1, 3, 2))),
        ("source", "target", "perm"),
        "FacePairing(source=(0, 3), target=(1, 2), perm=Permutation4(images=(0, 1, 3, 2)))",
    ),
    "Triangulation": (
        lambda: parse_triangulation(ONE_TET), ("t", "gluings"),
        "Triangulation(t=1, gluings=(((0, 1, Permutation4(images=(1, 0, 3, 2))), "
        "(0, 0, Permutation4(images=(1, 0, 3, 2))), (0, 3, Permutation4(images=(0, 1, 3, 2))), "
        "(0, 2, Permutation4(images=(0, 1, 3, 2)))),))",
    ),
    "Word": (lambda: Word(((0, 1), (1, -1))), ("letters",), "Word(letters=((0, 1), (1, -1)))"),
    "IntMatrix": (lambda: IntMatrix([[1, 2], [3, 4]]), ("entries", "rows", "cols"),
                  "IntMatrix(entries=((1, 2), (3, 4)), rows=2, cols=2)"),
    "AbelianGroup": (lambda: AbelianGroup(1, (2, 4)), ("free_rank", "torsion"),
                     "AbelianGroup(free_rank=1, torsion=(2, 4))"),
    "VerificationReport": (
        lambda: verify(parse(fixture_text("fig8.cert"))),
        ("accepted", "kind", "reason", "relator_mat_mults", "mat_mults", "field_ops",
         "cert_bits", "matrix_bits"),
        "VerificationReport(accepted=True, kind='NonAbelianRep', reason=None, "
        "relator_mat_mults=10, mat_mults=14, field_ops=178, cert_bits=1584, "
        "matrix_bits=(16, 16))",
    ),
    "ValidationReport": (
        lambda: validate(parse_triangulation(fixture_text("t3_torus.tri"))),
        ("v", "e", "f", "t", "euler", "vertex_link_eulers", "reversed_edges", "passed",
         "failures"),
        "ValidationReport(v=1, e=7, f=12, t=6, euler=0, vertex_link_eulers=(2,), "
        "reversed_edges=0, passed=True, failures=())",
    ),
    "OrientationResult": (
        lambda: orientation_check(parse_triangulation(fixture_text("s2xs1_twisted.tri"))),
        ("orientable", "assignment", "witness"),
        "OrientationResult(orientable=False, assignment=None, witness=FacePairing("
        "source=(1, 1), target=(2, 1), perm=Permutation4(images=(0, 1, 2, 3))))",
    ),
    "SNFResult": (
        lambda: smith_normal_form(IntMatrix([[2, 4], [6, 8]])), ("diag", "rank", "v"),
        "SNFResult(diag=(2, 4), rank=2, v=IntMatrix(entries=((1, -2), (0, 1)), rows=2, cols=2))",
    ),
    "TriangleType": (
        lambda: classify(7, 3, 2), ("n1", "n2", "n3", "ell", "d", "curvature"),
        "TriangleType(n1=2, n2=3, n3=7, ell=84, d=1, curvature='hyperbolic')",
    ),
    "FieldDegreeReport": (
        lambda: field_degree_report(classify(2, 3, 7)),
        ("triple", "ell", "trace_degree", "candidate_degrees", "witness_l", "verdict",
         "variant_disagrees"),
        "FieldDegreeReport(triple=(2, 3, 7), ell=84, trace_degree=12, candidate_degrees=(12, 24), "
        "witness_l=5, verdict='degree_phi', variant_disagrees=False)",
    ),
    "BoundReport": (
        lambda: bound_report(classify(2, 3, 7), t=10),
        ("triple", "ell", "d", "t", "ell_bound_bits", "ell_within_bound", "trace_degree",
         "degree_bound_bits", "degree_within_bound", "field_size", "field_within_ell10",
         "field_ratio_ell10", "prime", "linnik_ratio"),
        "BoundReport(triple=(2, 3, 7), ell=84, d=1, t=10, ell_bound_bits=211, "
        "ell_within_bound=True, trace_degree=12, degree_bound_bits=105, "
        "degree_within_bound=True, field_size=None, field_within_ell10=None, "
        "field_ratio_ell10=None, prime=None, linnik_ratio=None)",
    ),
}


def test_only_certificate_and_presentation_are_dataclasses():
    """Every module of the package imported, in a fresh interpreter."""
    script = (
        "import importlib, os, lenscert\n"
        "for f in sorted(os.listdir(os.path.dirname(lenscert.__file__))):\n"
        "    if f.endswith('.py') and f != '__init__.py':\n"
        "        m = importlib.import_module('lenscert.' + f[:-3])\n"
        "        for obj in vars(m).values():\n"
        "            if (isinstance(obj, type) and obj.__module__ == m.__name__\n"
        "                    and hasattr(obj, '__dataclass_fields__')):\n"
        "                print(f[:-3] + '.' + obj.__qualname__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == [
        "checker.NonCyclicAbelian", "checker.NonAbelianRep", "presentation.GroupPresentation",
    ]


def test_only_frozen_defines_attribute_writes_equality_and_hash():
    package = os.path.join(SRC, "lenscert")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            found.extend(
                f"{name[:-3]}.{node.name}.{item.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and item.name in ("__setattr__", "__delattr__", "__eq__", "__hash__")
            )
    assert sorted(found) == [
        "psl.Frozen.__delattr__", "psl.Frozen.__eq__", "psl.Frozen.__hash__",
        "psl.Frozen.__setattr__",
    ]


def test_no_source_file_calls_exec_or_eval():
    package = os.path.join(SRC, "lenscert")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            calls = [
                node.func.id for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval")
            ]
            assert calls == [], name


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_repr(name):
    make, _, expected = CASES[name]
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == expected


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_and_hash_as_their_field_tuple(name):
    make, fields, _ = CASES[name]
    one, two = make(), make()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two) == hash(tuple(getattr(one, f) for f in fields))


def _with_field(value, name, new):
    """value with one field replaced, its constructor's checks skipped."""
    if isinstance(value, tuple):
        return value._replace(**{name: new})
    copy = object.__new__(type(value))
    for slot in type(value).__slots__:
        if slot != "__dict__":
            object.__setattr__(copy, slot, getattr(value, slot))
    object.__setattr__(copy, name, new)
    return copy


@pytest.mark.parametrize("name", CASES)
def test_a_value_differing_in_one_field_is_unequal(name):
    make, fields, _ = CASES[name]
    value = make()
    for field in fields:
        other = _with_field(value, field, object())
        assert other != value and value != other, field
        assert _with_field(value, field, getattr(value, field)) == value, field


@pytest.mark.parametrize("name", CASES)
def test_fields_can_be_neither_set_nor_deleted(name):
    make, fields, expected = CASES[name]
    value = make()
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == expected


def test_a_matrix_differing_in_its_spec_or_one_coordinate_is_unequal():
    one = ProjMatrix.identity(FieldSpec(7))
    assert one.coords == ProjMatrix.identity(FieldSpec(11)).coords
    assert one != ProjMatrix.identity(FieldSpec(11))
    assert one != ProjMatrix.identity(FieldSpec(7, 2, 3))
    e = FieldSpec(7).element
    assert one != ProjMatrix(e(1), e(1), e(0), e(1))
    assert one == ProjMatrix(e(6), e(0), e(0), e(6))


def test_a_permutation_compares_and_hashes_by_its_images_only():
    perm = Permutation4((1, 0, 2, 3))
    twin = _with_field(perm, "index", perm.index + 1)
    assert twin == perm and hash(twin) == hash(perm) == hash(((1, 0, 2, 3),))
    assert repr(twin) == repr(perm)
    assert Permutation4((1, 0, 2, 3)) != Permutation4((0, 1, 3, 2))


def test_the_orbit_walk_memo_stays_out_of_eq_hash_and_repr():
    tri = parse_triangulation(ONE_TET)
    twin = Triangulation(tri.t, tri.gluings)
    before = (hash(tri), repr(tri))
    walk = tri.orbit_walk
    assert vars(tri) == {"orbit_walk": walk} and vars(twin) == {}
    assert tri == twin and twin == tri
    assert (hash(tri), repr(tri)) == before == (hash(twin), repr(twin))
    assert tri.orbit_walk is walk
