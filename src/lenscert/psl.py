"""The ring Z/p[w]/(w^2 - s) and PSL(2) over it: the arithmetic the checker runs.

A FieldSpec names that ring and checks only its shape, so the checker
trusts a ring, not a field; the producers make it one with galois.

A matrix is stored as its field spec and eight reduced ints
(a0, a1, b0, b1, c0, c1, d0, d1): entry k is v[2k] + v[2k+1]*w, and the
odd coordinates are 0 over a prime field.  Products, inverses and
powers run on these ints; FieldElement appears only at the boundary
(the public constructor and the a, b, c, d, entries and trace views).

det = 1 and the field are checked once, where a matrix is built from
outside data: ProjMatrix(a, b, c, d) from field elements of one spec,
or ProjMatrix.from_reduced from ints already reduced mod p.  A product
or inverse of determinant-1 matrices has determinant 1, so results are
built without a recheck; and no product or sum, of matrices or of
field elements, rechecks that its operands share a field, which every
caller's values do (the checker's parse and Certificate see to it).

Products run on raw 8-int tuples in one 2x2 kernel, _mul_coords, which
mul and fold_letters (one product per letter of a word) call; powers
(_power_coords) double a pair of ring elements on the same ints, by
Cayley-Hamilton.  A word is one fold_letters over the coordinates of
the images and their inverses (letter_coords, or coord_table for images
given by their coordinates), which projmat.evaluate_word takes per call
and a verifier once per certificate, every image's inverse taken once
there.  fold_letters multiplies letter by letter unless the word has a
period d <= 4, as the relators x^n and (xy)^n of a triangle group do:
then it is w^k u, and w^k costs O(d + log k) operations instead of n
products.

The +-M ambiguity is resolved at construction: the first nonzero of the
eight coordinates is forced into [0, (p-1)/2], which holds one of x and
-x as p is odd, so equality is coordinate equality.  A fold of
unnormalized representatives is the product up to sign, so it is
normalized once, at the end.

FieldSpec, FieldElement and ProjMatrix, and the package's other value
types that check or normalize what they are built from (Permutation4,
FacePairing, Triangulation, Word, IntMatrix and AbelianGroup), derive
from Frozen: the fields named in _fields sit in __slots__ and are set
once, by the type's own __init__ after its checks (or, for a matrix
product, by _from_coords).  Frozen gives what a frozen dataclass would
(== between instances of one class with equal fields, the hash of the
field tuple, the dataclass repr and no attribute that can be set or
deleted) from plain methods, so importing a module generates no code;
== and hash read the fields in C, by one attrgetter.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Optional, Sequence

_IDENTITY = (1, 0, 0, 0, 0, 0, 1, 0)


class Frozen:
    """An immutable value with the fields named in _fields, which a
    subclass keeps in its __slots__ and sets in __init__ with
    object.__setattr__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # a tuple of the fields for two or more, the bare value for one
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        values = self._values(self)
        return hash(values if len(self._fields) > 1 else (values,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(Frozen):
    """Z/p (degree 1) or Z/p[w]/(w^2 - s) (degree 2): p odd and at least
    3, and 0 < s < p."""

    __slots__ = _fields = ("p", "degree", "s")

    def __init__(self, p: int, degree: int = 1, s: Optional[int] = None) -> None:
        if p < 3 or not p & 1:
            raise ValueError(f"field modulus must be odd and at least 3, got {p}")
        if degree not in (1, 2):
            raise ValueError("only degree 1 and 2 fields are supported")
        if degree == 1:
            if s is not None:
                raise ValueError("s only makes sense for degree 2")
        elif s is None:
            raise ValueError("degree 2 needs s, the square of w")
        elif not 0 < s < p:
            raise ValueError(f"s={s} is not in [1, {p})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "s", s)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1, 0)

    def element(self, a: int, b: int = 0) -> "FieldElement":
        return FieldElement(self, a, b)


class FieldElement(Frozen):
    """a (degree 1) or a + b*w (degree 2), coordinates reduced mod p."""

    __slots__ = _fields = ("spec", "a", "b")

    def __init__(self, spec: FieldSpec, a: int, b: int = 0) -> None:
        a, b = a % spec.p, b % spec.p
        if spec.degree == 1 and b:
            raise ValueError("degree-1 element with a w coordinate")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, -self.a, -self.b)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        s, a, b = self.spec.s or 0, self.a, self.b
        return FieldElement(self.spec, a * other.a + s * b * other.b, a * other.b + b * other.a)

    def inverse(self) -> "FieldElement":
        """(a - b*w) / (a^2 - s*b^2): ValueError if that norm, and so the
        element, is not a unit, as in a ring that is not a field."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        p = self.spec.p
        ninv = pow(self.a * self.a - (self.spec.s or 0) * self.b * self.b, -1, p)
        return FieldElement(self.spec, self.a * ninv, -self.b * ninv)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = self.spec.one()
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if self.spec.degree == 1:
            return str(self.a)
        return f"{self.a}+{self.b}*w"


# the most digits a number in a text may have: int()'s default limit, so
# int() reads every such number under any setting of that limit or none
MAX_DIGITS = 4300
# a canonical decimal: ASCII, no sign, no leading zero, so str() gives it back
DECIMAL_PATTERN = f"(?:0|[1-9][0-9]{{0,{MAX_DIGITS - 1}}})"
# the group in which a line's reader captures a number
DECIMAL_GROUP = f"({DECIMAL_PATTERN})"
_DECIMAL_RE = re.compile(DECIMAL_PATTERN)


def parse_decimal(text: str) -> int:
    """The int a canonical decimal (DECIMAL_PATTERN) spells."""
    if _DECIMAL_RE.fullmatch(text):
        return int(text)
    if text.isdigit() and text.isascii() and text[0] != "0":  # canonical but too long
        raise ValueError(f"number has {len(text)} digits, more than {MAX_DIGITS}")
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def parse_coords(text: str, spec: FieldSpec) -> tuple[int, int]:
    """The coordinates (a, b) of a field element written canonically:
    "a" over F_p, "a+b*w" over F_{p^2}, each coordinate in [0, p)."""
    if spec.degree == 1:
        a, b = parse_decimal(text), 0
    else:
        main, _, wpart = text.partition("+")
        if not wpart.endswith("*w"):
            raise ValueError(f"bad degree-2 element syntax: {text!r}")
        a, b = parse_decimal(main), parse_decimal(wpart[:-2])
    if a >= spec.p or b >= spec.p:
        raise ValueError(f"coordinate {a if a >= spec.p else b} out of range for p={spec.p}")
    return a, b


def _mul_coords(p: int, s: int, u: tuple, v: tuple) -> tuple:
    """Coordinates of the product of u and v, reduced but not
    sign-normalized; s is the nonresidue, 0 over a prime field."""
    a0, a1, b0, b1, c0, c1, d0, d1 = u
    e0, e1, f0, f1, g0, g1, h0, h1 = v
    if not s:
        return (
            (a0 * e0 + b0 * g0) % p, 0,
            (a0 * f0 + b0 * h0) % p, 0,
            (c0 * e0 + d0 * g0) % p, 0,
            (c0 * f0 + d0 * h0) % p, 0,
        )
    return (
        (a0 * e0 + b0 * g0 + s * (a1 * e1 + b1 * g1)) % p,
        (a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0) % p,
        (a0 * f0 + b0 * h0 + s * (a1 * f1 + b1 * h1)) % p,
        (a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0) % p,
        (c0 * e0 + d0 * g0 + s * (c1 * e1 + d1 * g1)) % p,
        (c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0) % p,
        (c0 * f0 + d0 * h0 + s * (c1 * f1 + d1 * h1)) % p,
        (c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0) % p,
    )


def _inverse_coords(p: int, v: tuple) -> tuple:
    """The adjugate (d, -b, -c, a): the inverse of a determinant-1 matrix."""
    a0, a1, b0, b1, c0, c1, d0, d1 = v
    return (d0, d1, -b0 % p, -b1 % p, -c0 % p, -c1 % p, a0, a1)


def _power_coords(p: int, s: int, v: tuple, k: int) -> tuple:
    """Coordinates of v^k for k >= 0, reduced but not sign-normalized:
    exactly those of the product of k factors v, in O(log k) ring
    operations and no 2x2 product.  v must have determinant 1, the
    invariant _inverse_coords' adjugate relies on too: then
    v^2 = t*v - I, t = tr v, by Cayley-Hamilton over any commutative
    ring, field or not, so v^j = a*v + b*I, and the bits of k, from the
    top, take (a, b) from j to 2j by (a(at + 2b), b^2 - a^2) and to j + 1
    by (at + b, -a), as Joye and Quisquater double Lucas sequences."""
    if k < 2:
        return v if k else _IDENTITY
    a0, a1, b0, b1, c0, c1, d0, d1 = v
    t0, x0, y0 = a0 + d0, 1, 0  # v = 1*v + 0*I
    if not s:  # every odd coordinate is 0
        for bit in bin(k)[3:]:
            x0, y0 = x0 * (x0 * t0 + 2 * y0) % p, (y0 - x0) * (y0 + x0) % p
            if bit == "1":
                x0, y0 = (x0 * t0 + y0) % p, -x0
        return ((x0 * a0 + y0) % p, 0, x0 * b0 % p, 0, x0 * c0 % p, 0, (x0 * d0 + y0) % p, 0)
    t1, x1, y1 = a1 + d1, 0, 0
    for bit in bin(k)[3:]:
        u0, u1 = (x0 * t0 + s * x1 * t1 + 2 * y0) % p, (x0 * t1 + x1 * t0 + 2 * y1) % p
        x0, x1, y0, y1 = (
            (x0 * u0 + s * x1 * u1) % p,
            (x0 * u1 + x1 * u0) % p,
            ((y0 - x0) * (y0 + x0) + s * (y1 - x1) * (y1 + x1)) % p,
            2 * (y0 * y1 - x0 * x1) % p,
        )
        if bit == "1":
            x0, x1, y0, y1 = (
                (x0 * t0 + s * x1 * t1 + y0) % p, (x0 * t1 + x1 * t0 + y1) % p, -x0, -x1
            )
    return (
        (x0 * a0 + s * x1 * a1 + y0) % p, (x0 * a1 + x1 * a0 + y1) % p,
        (x0 * b0 + s * x1 * b1) % p, (x0 * b1 + x1 * b0) % p,
        (x0 * c0 + s * x1 * c1) % p, (x0 * c1 + x1 * c0) % p,
        (x0 * d0 + s * x1 * d1 + y0) % p, (x0 * d1 + x1 * d0 + y1) % p,
    )


def _sign_normalized(p: int, v: tuple) -> tuple:
    for x in v:
        if x:
            if x > (p - 1) >> 1:
                a0, a1, b0, b1, c0, c1, d0, d1 = v
                return (-a0 % p, -a1 % p, -b0 % p, -b1 % p, -c0 % p, -c1 % p, -d0 % p, -d1 % p)
            break
    return v


def _check_det(spec: FieldSpec, v: tuple) -> None:
    p, s = spec.p, spec.s or 0
    a0, a1, b0, b1, c0, c1, d0, d1 = v
    det = (
        (a0 * d0 + s * a1 * d1 - b0 * c0 - s * b1 * c1) % p,
        (a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0) % p,
    )
    if det != (1, 0):
        raise ValueError(f"matrix determinant is {spec.element(*det)}, not 1")


def _from_coords(spec: FieldSpec, v: tuple) -> "ProjMatrix":
    """The matrix with coordinates v, known to have determinant 1."""
    m = object.__new__(ProjMatrix)
    object.__setattr__(m, "spec", spec)
    object.__setattr__(m, "coords", _sign_normalized(spec.p, v))
    return m


class ProjMatrix(Frozen):
    __slots__ = _fields = ("spec", "coords")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement) -> None:
        spec = a.spec
        if b.spec != spec or c.spec != spec or d.spec != spec:
            raise ValueError("matrix entries from different fields")
        v = (a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b)
        _check_det(spec, v)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coords", _sign_normalized(spec.p, v))

    @staticmethod
    def from_reduced(spec: FieldSpec, v: tuple) -> "ProjMatrix":
        """The matrix with coordinates (a0, a1, b0, b1, c0, c1, d0, d1),
        already reduced mod p and the odd ones 0 over a prime field, as
        parse_coords gives them: only the determinant is checked, and
        ValueError is raised unless it is 1."""
        _check_det(spec, v)
        return _from_coords(spec, v)

    @staticmethod
    def identity(spec: FieldSpec) -> "ProjMatrix":
        return _from_coords(spec, _IDENTITY)

    def is_identity(self) -> bool:
        return self.coords == _IDENTITY

    def mul(self, other: "ProjMatrix") -> "ProjMatrix":
        spec = self.spec
        return _from_coords(spec, _mul_coords(spec.p, spec.s or 0, self.coords, other.coords))

    def inverse(self) -> "ProjMatrix":
        return _from_coords(self.spec, _inverse_coords(self.spec.p, self.coords))

    def power(self, n: int) -> "ProjMatrix":
        p, s = self.spec.p, self.spec.s or 0
        base = self.coords if n >= 0 else _inverse_coords(p, self.coords)
        return _from_coords(self.spec, _power_coords(p, s, base, abs(n)))

    def _entry(self, k: int) -> FieldElement:
        return FieldElement(self.spec, self.coords[2 * k], self.coords[2 * k + 1])

    @property
    def a(self) -> FieldElement:
        return self._entry(0)

    @property
    def b(self) -> FieldElement:
        return self._entry(1)

    @property
    def c(self) -> FieldElement:
        return self._entry(2)

    @property
    def d(self) -> FieldElement:
        return self._entry(3)

    def trace(self) -> FieldElement:
        """Trace of the normalized representative (defined up to sign)."""
        v = self.coords
        return FieldElement(self.spec, v[0] + v[6], v[1] + v[7])

    def entries(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        a0, a1, b0, b1, c0, c1, d0, d1 = self.coords
        if self.spec.degree == 1:
            return f"[[{a0},{b0}],[{c0},{d0}]]"
        return f"[[{a0}+{a1}*w,{b0}+{b1}*w],[{c0}+{c1}*w,{d0}+{d1}*w]]"

    def __repr__(self) -> str:
        return f"ProjMatrix({self})"


def letter_coords(images: Sequence[ProjMatrix]) -> tuple:
    """The coordinates of the images and of their inverses, for many
    folds: table[1][k] is image k and table[-1][k] its inverse.  The
    images must share one field."""
    return coord_table(images[0].spec.p, [m.coords for m in images])


def coord_table(p: int, coords: list) -> tuple:
    """letter_coords for images given by their coordinates over F_p or
    F_{p^2}, as fold_letters returns them; the list may be empty."""
    return (None, coords, [_inverse_coords(p, v) for v in coords])


def _period(letters: Sequence[tuple[int, int]]) -> int:
    """The least d <= 4 with letters[i] == letters[i + d] for every i, or
    0; each test is two slices and one compare, run in C."""
    for d in range(1, 5):
        # the one-letter compare refuses most aperiodic words unsliced
        if letters[d] == letters[0] and letters[d:] == letters[:-d]:
            return d
    return 0


def fold_letters(spec: FieldSpec, table: tuple, letters: Sequence[tuple[int, int]]) -> tuple:
    """Sign-normalized coordinates of the left-to-right product of
    table[exp][gen] over the letters (gen, exp).  A word of n >= 6
    letters with a period d <= 4 (letters[i] == letters[i + d]
    throughout) is w^k u, with w its first d letters, k = n // d and
    u = w[:n % d]: w and u are folded letter by letter and w^k is taken
    by _power_coords.  w's fold is sign-normalized, so that power is the
    product of the same factors up to sign, and the result, normalized,
    is exactly the letter-by-letter fold's.  Any other word starts from
    its first letter and takes one _mul_coords per later letter."""
    p, s = spec.p, spec.s or 0
    n = len(letters)
    period = _period(letters) if n >= 6 else 0
    if period:
        # w and u have fewer than 6 letters, so they are folded letter by letter
        k, r = divmod(n, period)
        out = _power_coords(p, s, fold_letters(spec, table, letters[:period]), k)
        if r:
            out = _mul_coords(p, s, out, fold_letters(spec, table, letters[:r]))
    elif letters:
        gen, exp = letters[0]
        out = table[exp][gen]
        for gen, exp in letters[1:]:
            out = _mul_coords(p, s, out, table[exp][gen])
    else:
        out = _IDENTITY
    return _sign_normalized(p, out)
