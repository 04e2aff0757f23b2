"""Cayley-Dickson tower over exact scalars: R, C, H, O and their Gaussian
base-ring twins (C tensor C, H tensor C, O tensor C).

Levels 0..3 double the base ring, with the product convention

    (p, q) (r, s) = (p r - conj(s) q,  s p + q conj(r))

fixed once for the whole package.  The signed basis multiplication table is
generated from this recursion (``unit_product``, never entered by hand),
compiled once per level into a sparse integer tensor and contracted in
integers by the bilinear engine (``bilinear.Bilinear``), which is how
``cd_mul`` multiplies.  A ``CDNumber`` is stored in the engine's own
operand format, one integer vector over one positive denominator in lowest
terms, so a product reads its operands' integers and is stored as it comes;
the ``Scalar`` coordinates (``coeffs``) are a view for the API, JSON and
``repr``.  The pair recursion itself is kept as ``cd_mul_doubling``, an
independent route on that view that shares no code with the engine, so
tests can cross-check the two against each other.

Complexification is a base-ring swap (rational -> Gaussian rational), not a
fourth doubling, so the Gaussian-base level-3 algebra stays 8-dimensional over
its base ring and is not the sedenion algebra.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .bilinear import Bilinear, box
from .linalg import _int_row
from .scalars import RingMismatch, Scalar

MAX_LEVEL = 3

LEVEL_NAMES = {0: "R", 1: "C", 2: "H", 3: "O"}
LEVEL_OF_ALGEBRA = {v: k for k, v in LEVEL_NAMES.items()}


@lru_cache(maxsize=None)
def unit_product(level: int, i: int, j: int):
    """(k, sign) with e_i e_j = sign * e_k, derived from the doubling rule."""
    if level == 0:
        return 0, 1
    half = 1 << (level - 1)
    hi_i, lo_i = divmod(i, half)
    hi_j, lo_j = divmod(j, half)
    conj_sign = lambda idx: 1 if idx == 0 else -1
    if hi_i == 0 and hi_j == 0:  # (p,0)(r,0) = (pr, 0)
        k, s = unit_product(level - 1, lo_i, lo_j)
        return k, s
    if hi_i == 0 and hi_j == 1:  # (p,0)(0,s) = (0, sp)
        k, s = unit_product(level - 1, lo_j, lo_i)
        return half + k, s
    if hi_i == 1 and hi_j == 0:  # (0,q)(r,0) = (0, q conj(r))
        k, s = unit_product(level - 1, lo_i, lo_j)
        return half + k, s * conj_sign(lo_j)
    # (0,q)(0,s) = (-conj(s) q, 0)
    k, s = unit_product(level - 1, lo_j, lo_i)
    return k, -s * conj_sign(lo_j)


class CDNumber:
    """Element of the level-``level`` Cayley-Dickson algebra over Q or Q(i).

    Stored as ``v / den``: ``v`` a tuple of 2^level ints over Q and twice as
    many over Q(i) (real parts, then imaginary parts), ``den`` > 0 and
    gcd(den, *v) = 1, so a value has one storage.  ``coeffs`` keeps the
    Scalars a number was built from, or boxes an engine result on first use.
    """

    __slots__ = ("level", "gaussian", "v", "den", "_coeffs")

    def __init__(self, level: int, coeffs):
        coeffs = tuple(coeffs)
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be 0..{MAX_LEVEL}, got {level}")
        if len(coeffs) != 1 << level:
            raise ValueError(f"level {level} needs {1 << level} coefficients")
        g = coeffs[0].gaussian
        if any(c.gaussian != g for c in coeffs):
            raise RingMismatch("mixed base rings in one CDNumber")
        parts = [c.re for c in coeffs] + ([c.im for c in coeffs] if g else [])
        v, den = _int_row(parts)  # least den, so already canonical
        _init(self, level, g, tuple(v), den, coeffs)

    @staticmethod
    def _of(level: int, gaussian: bool, v, den: int) -> "CDNumber":
        """The number v / den for an int sequence v and den > 0, normalized."""
        g = gcd(den, *v)
        if g != 1:
            v, den = [x // g for x in v], den // g
        x = object.__new__(CDNumber)
        _init(x, level, gaussian, tuple(v), den, None)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("CDNumber is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(level: int, gaussian=False) -> "CDNumber":
        return CDNumber._of(level, gaussian, (0,) * ((2 if gaussian else 1) << level), 1)

    @staticmethod
    def one(level: int, gaussian=False) -> "CDNumber":
        return CDNumber.unit(level, 0, gaussian)

    @staticmethod
    def unit(level: int, k: int, gaussian=False) -> "CDNumber":
        v = [0] * ((2 if gaussian else 1) << level)
        v[k] = 1
        return CDNumber._of(level, gaussian, v, 1)

    @staticmethod
    def from_scalar(level: int, s: Scalar) -> "CDNumber":
        c = [Scalar.zero(s.gaussian)] * (1 << level)
        c[0] = s
        return CDNumber(level, c)

    @property
    def coeffs(self):
        """The coordinates as Scalars."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", box(self.v, self.den, self.gaussian))
        return self._coeffs

    @property
    def algebra(self) -> str:
        return LEVEL_NAMES[self.level]

    def complexify(self) -> "CDNumber":
        """Base-ring swap Q -> Q(i); already-Gaussian values pass through."""
        if self.gaussian:
            return self
        return CDNumber._of(self.level, True, self.v + (0,) * len(self.v), self.den)

    # -- ring checks ----------------------------------------------------------

    def _check(self, other: "CDNumber"):
        if not isinstance(other, CDNumber):
            raise TypeError(f"expected CDNumber, got {type(other).__name__}")
        if other.level != self.level:
            raise RingMismatch("Cayley-Dickson level mismatch")
        if other.gaussian != self.gaussian:
            raise RingMismatch("base ring mismatch")

    # -- linear structure -----------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        v = [a * fa + b * fb for a, b in zip(self.v, other.v)]
        return CDNumber._of(self.level, self.gaussian, v, da * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return CDNumber._of(self.level, self.gaussian, [-a for a in self.v], self.den)

    def scale(self, s: Scalar) -> "CDNumber":
        if s.gaussian != self.gaussian:
            raise RingMismatch("scalar ring mismatch")
        (a, b), d = _int_row([s.re, s.im])
        v, n = self.v, len(self.v) // 2
        if b:  # (a + bi)(x + yi) = (ax - by) + (ay + bx)i, coordinate by coordinate
            pairs = list(zip(v[:n], v[n:]))
            v = [a * x - b * y for x, y in pairs] + [a * y + b * x for x, y in pairs]
        else:
            v = [a * x for x in v]
        return CDNumber._of(self.level, self.gaussian, v, self.den * d)

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        return cd_mul(self, other)

    def conjugate(self) -> "CDNumber":
        """Negates every coordinate but the real unit's, over Q(i) too."""
        w, v = 1 << self.level, self.v
        out = [-x for x in v]
        out[0] = v[0]
        if self.gaussian:
            out[w] = v[w]
        return CDNumber._of(self.level, self.gaussian, out, self.den)

    def real(self) -> Scalar:
        return self.coeffs[0]

    def norm(self) -> Scalar:
        """N(x) = real part of x conj(x) = sum of squared coefficients.

        Over Q(i) this form is isotropic: N(x) = 0 does not force x = 0.
        """
        acc = Scalar.zero(self.gaussian)
        for c in self.coeffs:
            acc = acc + c * c
        return acc

    def is_zero(self) -> bool:
        return not any(self.v)

    def is_real(self) -> bool:
        w = 1 << self.level
        return not (any(self.v[1:w]) or any(self.v[w + 1 :]))

    def __eq__(self, other):
        if not isinstance(other, CDNumber):
            return NotImplemented
        # the tuple length tells the ring apart within a level
        return self.level == other.level and self.den == other.den and self.v == other.v

    def __hash__(self):
        return hash((self.level, self.den, self.v))

    def __repr__(self):
        return f"CDNumber({self.level}, {[str(c) for c in self.coeffs]})"

    # -- JSON -------------------------------------------------------------------

    def to_json(self):
        return {"level": self.level, "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "CDNumber":
        level = obj["level"]
        coeffs = [Scalar.from_json(c) for c in obj["coeffs"]]
        return CDNumber(level, coeffs)


def _init(x: CDNumber, level, gaussian, v, den, coeffs):
    set_ = object.__setattr__
    set_(x, "level", level)
    set_(x, "gaussian", gaussian)
    set_(x, "v", v)
    set_(x, "den", den)
    set_(x, "_coeffs", coeffs)


@lru_cache(maxsize=None)
def _cd_product(level: int) -> Bilinear:
    """The signed unit table of one level, compiled for the bilinear engine."""
    n = 1 << level
    return Bilinear(
        [[(unit_product(level, i, j),) for j in range(n)] for i in range(n)]
    )


def cd_mul(a: CDNumber, b: CDNumber) -> CDNumber:
    """Bilinear product through the compiled basis table, on the stored integers."""
    a._check(b)
    table = _cd_product(a.level)
    acc = table.contract(a.v, b.v, a.gaussian)
    return CDNumber._of(a.level, a.gaussian, acc, a.den * b.den * table.den)


def cd_mul_doubling(a: CDNumber, b: CDNumber) -> CDNumber:
    """The pair recursion itself, kept as an independent route for tests."""
    a._check(b)
    if a.level == 0:
        return CDNumber(0, (a.coeffs[0] * b.coeffs[0],))
    half = 1 << (a.level - 1)
    split = lambda x: (
        CDNumber(x.level - 1, x.coeffs[:half]),
        CDNumber(x.level - 1, x.coeffs[half:]),
    )
    p, q = split(a)
    r, s = split(b)
    first = cd_mul_doubling(p, r) - cd_mul_doubling(s.conjugate(), q)
    second = cd_mul_doubling(s, p) + cd_mul_doubling(q, r.conjugate())
    return CDNumber(a.level, first.coeffs + second.coeffs)


def cd_conj(a: CDNumber) -> CDNumber:
    return a.conjugate()


def cd_real(a: CDNumber) -> Scalar:
    return a.real()


def cd_norm(a: CDNumber) -> Scalar:
    return a.norm()


def cd_associator(a: CDNumber, b: CDNumber, c: CDNumber) -> CDNumber:
    """(ab)c - a(bc); identically zero through level 2, not at level 3."""
    return cd_mul(cd_mul(a, b), c) - cd_mul(a, cd_mul(b, c))


def basis(level: int, gaussian=False):
    return [CDNumber.unit(level, k, gaussian) for k in range(1 << level)]
