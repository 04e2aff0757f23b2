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
that format and its linear structure (+, -, scaling, equality, hashing)
live in ``bilinear.IntVector``, and the ``Scalar`` coordinates (``coeffs``)
are a view for the API, JSON and ``repr``.  The pair recursion itself is
kept as ``cd_mul_doubling``, an independent route on the same stored
integers (over Q(i), four real recursions on the real and imaginary parts)
that reads neither the unit table nor the engine, so tests can cross-check
the two against each other.

Complexification is a base-ring swap (rational -> Gaussian rational), not a
fourth doubling, so the Gaussian-base level-3 algebra stays 8-dimensional over
its base ring and is not the sedenion algebra.
"""

from __future__ import annotations

from functools import lru_cache
from .bilinear import Bilinear, IntVector, box
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


class CDNumber(IntVector):
    """Element of the level-``level`` Cayley-Dickson algebra over Q or Q(i).

    Stored as ``v / den`` (``bilinear.IntVector``, whose ``tag`` is the
    level): ``v`` holds 2^level ints over Q and twice as many over Q(i).
    ``coeffs`` keeps the Scalars a number was built from, or boxes an engine
    result on first use.
    """

    __slots__ = ()
    level = IntVector.tag  # the tag slot itself, read as fast as any slot

    def __new__(cls, level: int, coeffs):
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
        return cls._canonical(level, g, v, den, coeffs)

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
        if self._view is None:
            object.__setattr__(self, "_view", box(self.v, self.den, self.gaussian))
        return self._view

    @property
    def algebra(self) -> str:
        return LEVEL_NAMES[self.tag]

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        return cd_mul(self, other)

    def conjugate(self) -> "CDNumber":
        """Negates every coordinate but the real unit's, over Q(i) too."""
        w, v = 1 << self.tag, self.v
        out = [-x for x in v]
        out[0] = v[0]
        if self.gaussian:
            out[w] = v[w]
        return self._canonical(self.tag, self.gaussian, out, self.den)  # still lowest terms

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

    def is_real(self) -> bool:
        w = 1 << self.tag
        return not (any(self.v[1:w]) or any(self.v[w + 1 :]))

    def __repr__(self):
        return f"CDNumber({self.tag}, {[str(c) for c in self.coeffs]})"

    # -- JSON -------------------------------------------------------------------

    def to_json(self):
        return {"level": self.tag, "coeffs": [c.to_json() for c in self.coeffs]}

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
    """Bilinear product through the compiled basis table, on the stored integers."""
    a._check(b)
    table = _cd_product(a.tag)
    return a._like(table.contract(a.v, b.v, a.gaussian), a.den * b.den * table.den)


def _conj(u):
    return [u[0]] + [-c for c in u[1:]]


def _doubling(x, y):
    """The pair recursion on integer coordinate lists over Q:
    (p, q) (r, s) = (p r - conj(s) q, s p + q conj(r))."""
    if len(x) == 1:
        return [x[0] * y[0]]
    h = len(x) // 2
    p, q, r, s = x[:h], x[h:], y[:h], y[h:]
    first = [u - w for u, w in zip(_doubling(p, r), _doubling(_conj(s), q))]
    second = [u + w for u, w in zip(_doubling(s, p), _doubling(q, _conj(r)))]
    return first + second


def cd_mul_doubling(a: CDNumber, b: CDNumber) -> CDNumber:
    """The pair recursion itself on the stored integers, kept as an
    independent route for tests; over Q(i), four real recursions."""
    a._check(b)
    if not a.gaussian:
        return a._like(_doubling(a.v, b.v), a.den * b.den)
    n = len(a.v) // 2
    ar, ai, br, bi = a.v[:n], a.v[n:], b.v[:n], b.v[n:]
    re = [u - w for u, w in zip(_doubling(ar, br), _doubling(ai, bi))]
    im = [u + w for u, w in zip(_doubling(ar, bi), _doubling(ai, br))]
    return a._like(re + im, a.den * b.den)


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
