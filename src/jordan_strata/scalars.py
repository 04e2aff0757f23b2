"""Exact scalar arithmetic over Q and over the Gaussian rationals Q(i).

Every ring element in this package ultimately reduces to a Scalar, so this
module is the exactness substrate: no float enters or leaves any computation.
A Scalar carries a ring tag; mixing the two rings raises, promotion is always
explicit via to_gaussian().
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_FracLike = (int, Fraction)


class RingMismatch(ValueError):
    """Operands live in different coefficient rings."""


class Scalar:
    """A rational number, or a Gaussian rational when ``gaussian`` is set."""

    __slots__ = ("re", "im", "gaussian")

    def __init__(self, re=0, im=0, gaussian=False):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        if not gaussian and im:
            raise ValueError("rational scalar with nonzero imaginary part")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "gaussian", bool(gaussian))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction -------------------------------------------------------

    @staticmethod
    def _of(re: Fraction, im: Fraction, gaussian: bool) -> "Scalar":
        """The Scalar of two Fractions the engine made, with no checks."""
        s = object.__new__(Scalar)
        object.__setattr__(s, "re", re)
        object.__setattr__(s, "im", im)
        object.__setattr__(s, "gaussian", gaussian)
        return s

    @staticmethod
    def zero(gaussian=False) -> "Scalar":
        return Scalar(0, 0, gaussian)

    @staticmethod
    def one(gaussian=False) -> "Scalar":
        return Scalar(1, 0, gaussian)

    @staticmethod
    def i() -> "Scalar":
        return Scalar(0, 1, gaussian=True)

    def to_gaussian(self) -> "Scalar":
        return Scalar(self.re, self.im, gaussian=True)

    # -- ring discipline -----------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.gaussian != self.gaussian:
                raise RingMismatch("cannot mix Q and Q(i) scalars")
            return other
        if isinstance(other, _FracLike):
            return Scalar(Fraction(other), 0, self.gaussian)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im, self.gaussian)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im, self.gaussian)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im, self.gaussian)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.im or other.im):
            return Scalar(self.re * other.re, 0, self.gaussian)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.gaussian,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.re / n, -self.im / n, self.gaussian)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im, self.gaussian)

    def norm(self) -> Fraction:
        """Multiplicative norm re^2 + im^2 (a plain rational)."""
        return self.re * self.re + self.im * self.im

    # -- predicates / views --------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, _FracLike):
            return self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.gaussian == other.gaussian
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        # equal to the hash of the rational it equals, whatever the ring tag
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.gaussian:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im}, gaussian=True)"

    def __str__(self):
        if not self.gaussian:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"

    # -- square roots (used by the momentum-map lift machinery) ---------------

    def sqrt(self):
        """An exact square root in the same ring, or None if there is none."""
        if not self.gaussian:
            r = _rational_sqrt(self.re)
            return None if r is None else Scalar(r)
        # z = (a+bi)^2 needs |z| = a^2+b^2 to be a rational square first.
        n = _rational_sqrt(self.norm())
        if n is None:
            return None
        a2 = (self.re + n) / 2
        a = _rational_sqrt(a2)
        if a is None:
            return None
        if a == 0:
            b = _rational_sqrt(-self.re)
            if b is None:
                return None
            return Scalar(0, b, gaussian=True)
        b = self.im / (2 * a)
        cand = Scalar(a, b, gaussian=True)
        return cand if cand * cand == self else None

    # -- JSON (coefficient encodings shared by CDNumber / JordanElement) ------

    def to_json(self):
        if not self.gaussian:
            return [self.re.numerator, self.re.denominator]
        return [
            [self.re.numerator, self.re.denominator],
            [self.im.numerator, self.im.denominator],
        ]

    @staticmethod
    def from_json(obj) -> "Scalar":
        re, im = json_fractions(obj)
        return Scalar(re, im or 0, im is not None)


def json_int(x) -> int:
    """An integer of a JSON encoding; a JSON boolean, an int in Python, is not one."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_fractions(obj):
    """(re, im) Fractions of a scalar's JSON encoding, im None over Q; its one reader."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"bad scalar encoding: {obj!r}")
    if isinstance(obj[0], (list, tuple)):
        (rn, rd), (im_n, im_d) = obj
        if type(rn) is type(rd) is type(im_n) is type(im_d) is int:  # not a JSON boolean
            return Fraction(rn, rd), Fraction(im_n, im_d)
    else:
        n, d = obj
        if type(n) is type(d) is int:
            return Fraction(n, d), None
    raise ValueError(f"bad scalar encoding: {obj!r}, whose entries must be integers")


def _rational_sqrt(q: Fraction):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# Candidates a square-sum search tries before it gives up: well above what
# the lifts of bounded-height samples need, far below what large heights do.
MAX_TWO_SQUARE_CANDIDATES = 10_000_000
MAX_FOUR_SQUARE_CANDIDATES = 50_000


class SearchExhausted(RuntimeError):
    """A square-sum search used up its candidates and found no decomposition."""


def _candidates(search: str, q: Fraction, limit: int):
    """The attempts of a search: ``limit`` of them, then an error."""
    yield from range(limit)
    raise SearchExhausted(f"{search}({q}): no decomposition in {limit} candidates")


def _no_two_squares(n: int) -> bool:
    """n > 0 with odd part 3 mod 4, hence no sum of two squares."""
    return (n >> ((n & -n).bit_length() - 1)) & 3 == 3


def _no_three_squares(n: int) -> bool:
    """n = 4^k (8j + 7), no sum of three squares (Legendre)."""
    v = (n & -n).bit_length() - 1
    return n > 0 and v % 2 == 0 and (n >> v) & 7 == 7


def two_squares(q: Fraction):
    """Write a positive rational as x^2 + y^2 over Q, or return None.

    Searches n*d = a^2 + b^2 over the integers, a upward; raises
    SearchExhausted when the search is cut before it decides.
    """
    if q < 0:
        return None
    if q == 0:
        return Fraction(0), Fraction(0)
    n, d = q.numerator, q.denominator
    m = n * d
    if _no_two_squares(m):
        return None
    tries = _candidates("two_squares", q, MAX_TWO_SQUARE_CANDIDATES)
    for a, _ in zip(range(isqrt(m) + 1), tries):
        b2 = m - a * a
        b = isqrt(b2)
        if b * b == b2:
            return Fraction(a, d), Fraction(b, d)
    return None


def four_squares(q: Fraction):
    """Write a nonnegative rational as a sum of four rational squares.

    Always solvable.  Searches n*d = a^2 + b^2 + c^2 + e^2 with a, b, c
    downward, skipping an a or b whose remainder is no sum of three or two
    squares (so the full search would find nothing there); raises
    SearchExhausted when it is cut.
    """
    if q < 0:
        raise ValueError("negative rational is not a sum of squares")
    if q == 0:
        z = Fraction(0)
        return z, z, z, z
    n, d = q.numerator, q.denominator
    m = n * d
    tries = _candidates("four_squares", q, MAX_FOUR_SQUARE_CANDIDATES)
    for a in range(isqrt(m), -1, -1):
        next(tries)
        r1 = m - a * a
        if _no_three_squares(r1):
            continue
        for b in range(isqrt(r1), -1, -1):
            next(tries)
            r2 = r1 - b * b
            if r2 and _no_two_squares(r2):
                continue
            for c in range(isqrt(r2), -1, -1):
                next(tries)
                e2 = r2 - c * c
                e = isqrt(e2)
                if e * e == e2:
                    return (
                        Fraction(a, d),
                        Fraction(b, d),
                        Fraction(c, d),
                        Fraction(e, d),
                    )
    raise AssertionError("four-square search failed")  # unreachable for m >= 0
