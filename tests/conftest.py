import json
import os

import pytest
from hypothesis import settings

# an example takes as long as its input is large: no per-example deadline
settings.register_profile("lenscert", deadline=None)
settings.load_profile("lenscert")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.fixture(scope="session")
def fixture_dir() -> str:
    return FIXTURES


@pytest.fixture(scope="session")
def fixture_metadata() -> dict:
    with open(os.path.join(FIXTURES, "metadata.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_fixture(name: str):
    from lenscert.triangulation import parse_triangulation

    with open(fixture_path(name), encoding="utf-8") as handle:
        return parse_triangulation(handle.read())


def fixture_text(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as handle:
        return handle.read()


MANIFOLD_FIXTURES = [
    "s3_boundary_4simplex.tri",
    "lens_2_1.tri",
    "lens_3_1.tri",
    "lens_4_1.tri",
    "lens_5_2.tri",
    "lens_7_2.tri",
    "t3_torus.tri",
    "s2xs1.tri",
    "s2xs1_twisted.tri",
    "prism_q8.tri",
    "prism_q12.tri",
    "onevertex_t2.tri",
]

ORIENTABLE_FIXTURES = [n for n in MANIFOLD_FIXTURES if n != "s2xs1_twisted.tri"]

# Mersenne primes, the second of 2203 bits: both lie beyond the
# deterministic Miller-Rabin range that galois.is_prime covers
MERSENNE_PRIMES = (2**127 - 1, 2**2203 - 1)


def toy_certificate_text(p: int, s=None, relators: bool = False) -> str:
    """The rotation witness x y | y x for <x, y> (or <x, y | x^p, y^p>
    with relators) over Z/p, x -> [[1,1],[0,1]] and y -> [[1,0],[1,1]];
    given s, over Z/p[w]/(w^2 - s) with y -> [[1,0],[w,1]].  Both images
    are unipotent of order p, and x y != +-y x for every odd p >= 3, so
    verify accepts it whether or not p is prime or s a nonresidue."""
    if s is None:
        field, one, zero, corner = f"field p={p} deg=1", "1", "0", "1"
    else:
        field, one, zero, corner = f"field p={p} deg=2 s={s}", "1+0*w", "0+0*w", "0+1*w"
    rels = [" ".join([g] * p) for g in "xy"] if relators else []
    lines = ["lenscert v1", "kind NonAbelianRep", "gens 2 x y", f"rels {len(rels)}", *rels]
    lines += [
        field,
        f"gen x = [[{one},{one}],[{zero},{one}]]",
        f"gen y = [[{one},{zero}],[{corner},{one}]]",
        "witness x y | y x",
    ]
    return "\n".join(lines) + "\n"


# the modulus of numeric_field_texts' texts beside the field it sizes:
# 10^4300 - 1, odd and of psl.MAX_DIGITS digits
WIDE_MODULUS = 10**4300 - 1


def _swapped(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def numeric_field_texts(digits: int) -> dict[str, str]:
    """One certificate text per numeric field, that field written with
    `digits` digits: the gens and rels counts, the field's p, deg and s,
    a degree-1 and a degree-2 matrix coordinate, a target modulus and an
    abelian image.  The field is 10^digits - 1 where it is a modulus and
    10^digits - 2 elsewhere, spelled without int(); every other modulus
    is WIDE_MODULUS, so at 4300 digits each value lies in its range."""
    modulus, value = "9" * digits, "9" * (digits - 1) + "8"
    deg1, deg2 = toy_certificate_text(WIDE_MODULUS), toy_certificate_text(WIDE_MODULUS, 1)
    abelian = (
        "lenscert v1\nkind NonCyclicAbelian\ngens 2 x y\nrels 0\n"
        "target Z/{a} x Z/{a}\ngen x = ({u},0)\ngen y = (0,1)\n"
    )
    return {
        "gens count": _swapped(deg1, "\ngens 2 ", f"\ngens {value} "),
        "rels count": _swapped(deg1, "\nrels 0\n", f"\nrels {value}\n"),
        "field p": _swapped(deg1, f" p={WIDE_MODULUS} ", f" p={modulus} "),
        "field deg": _swapped(deg1, " deg=1\n", f" deg={value}\n"),
        "field s": _swapped(deg2, " s=1\n", f" s={value}\n"),
        "deg-1 coordinate": _swapped(deg1, ",[1,1]]\n", f",[{value},1]]\n"),
        "deg-2 coordinate": _swapped(deg2, ",[0+1*w,", f",[0+{value}*w,"),
        "target modulus": abelian.format(a=modulus, u=1),
        "abelian image": abelian.format(a=WIDE_MODULUS, u=value),
    }
