"""Cayley-Dickson tower over exact scalars: R, C, H, O and their Gaussian
base-ring twins (C tensor C, H tensor C, O tensor C).

Levels 0..3 double the base ring, with the product convention

    (p, q) (r, s) = (p r - conj(s) q,  s p + q conj(r))

fixed once for the whole package.  The signed basis multiplication table is
generated from this recursion (``unit_product``, never entered by hand),
compiled once per level into a sparse integer tensor and contracted in
integers by the bilinear engine (``bilinear.Bilinear``), which is how
``cd_mul`` multiplies.  The pair recursion itself is kept as
``cd_mul_doubling``, an independent route that shares no code with the
engine, so tests can cross-check the two against each other.

Complexification is a base-ring swap (rational -> Gaussian rational), not a
fourth doubling, so the Gaussian-base level-3 algebra stays 8-dimensional over
its base ring and is not the sedenion algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .bilinear import Bilinear
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
    """Element of the level-``level`` Cayley-Dickson algebra over Q or Q(i)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        coeffs = tuple(coeffs)
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be 0..{MAX_LEVEL}, got {level}")
        if len(coeffs) != 1 << level:
            raise ValueError(f"level {level} needs {1 << level} coefficients")
        g = coeffs[0].gaussian
        if any(c.gaussian != g for c in coeffs):
            raise RingMismatch("mixed base rings in one CDNumber")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CDNumber is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(level: int, gaussian=False) -> "CDNumber":
        z = Scalar.zero(gaussian)
        return CDNumber(level, (z,) * (1 << level))

    @staticmethod
    def one(level: int, gaussian=False) -> "CDNumber":
        return CDNumber.unit(level, 0, gaussian)

    @staticmethod
    def unit(level: int, k: int, gaussian=False) -> "CDNumber":
        c = [Scalar.zero(gaussian)] * (1 << level)
        c[k] = Scalar.one(gaussian)
        return CDNumber(level, c)

    @staticmethod
    def from_scalar(level: int, s: Scalar) -> "CDNumber":
        c = [Scalar.zero(s.gaussian)] * (1 << level)
        c[0] = s
        return CDNumber(level, c)

    @property
    def gaussian(self) -> bool:
        return self.coeffs[0].gaussian

    @property
    def algebra(self) -> str:
        return LEVEL_NAMES[self.level]

    def complexify(self) -> "CDNumber":
        """Base-ring swap Q -> Q(i); already-Gaussian values pass through."""
        return CDNumber(self.level, tuple(c.to_gaussian() for c in self.coeffs))

    # -- ring checks ----------------------------------------------------------

    def _check(self, other: "CDNumber"):
        if not isinstance(other, CDNumber):
            raise TypeError(f"expected CDNumber, got {type(other).__name__}")
        if other.level != self.level:
            raise RingMismatch("Cayley-Dickson level mismatch")
        if other.gaussian != self.gaussian:
            raise RingMismatch("base ring mismatch")

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return CDNumber(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CDNumber(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CDNumber(self.level, tuple(-a for a in self.coeffs))

    def scale(self, s: Scalar) -> "CDNumber":
        if s.gaussian != self.gaussian:
            raise RingMismatch("scalar ring mismatch")
        return CDNumber(self.level, tuple(s * c for c in self.coeffs))

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        return cd_mul(self, other)

    def conjugate(self) -> "CDNumber":
        return CDNumber(
            self.level,
            (self.coeffs[0],) + tuple(-c for c in self.coeffs[1:]),
        )

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
        return all(c.is_zero() for c in self.coeffs)

    def is_real(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    def __eq__(self, other):
        if not isinstance(other, CDNumber):
            return NotImplemented
        return (
            self.level == other.level
            and self.gaussian == other.gaussian
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, self.coeffs))

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


@lru_cache(maxsize=None)
def _cd_product(level: int) -> Bilinear:
    """The signed unit table of one level, compiled for the bilinear engine."""
    n = 1 << level
    return Bilinear(
        [[(unit_product(level, i, j),) for j in range(n)] for i in range(n)]
    )


def cd_mul(a: CDNumber, b: CDNumber) -> CDNumber:
    """Bilinear product through the compiled basis table."""
    a._check(b)
    return CDNumber(a.level, _cd_product(a.level).mul(a.coeffs, b.coeffs, a.gaussian))


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
