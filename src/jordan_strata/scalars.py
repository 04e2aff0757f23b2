"""Exact arithmetic over Q and over the Gaussian rationals Q(i): the one
storage format of every exact value, and the one codec of every JSON number.

``IntVector`` is that format: a value is one integer vector ``v`` over one
positive denominator ``den`` in lowest terms (the real parts, then the
imaginary parts over Q(i)), so a value has one storage and equality and
hashing compare integers.  It owns the linear structure, written once:
+ and - over the lcm of two denominators, negation, scaling, the base-ring
swap, the zero test, equality, hashing and the JSON writer.  ``CDNumber``,
``JordanElement`` and ``tkk.TKKElement`` are IntVectors, and so is
``Scalar``, the one-coordinate value with no tag: ``v = (re,)`` over Q and
``(re, im)`` over Q(i).  ``_int_row`` clears the denominators of a row of
rationals, which is how every value is built from rationals, and ``scaled``
multiplies an integer vector by a Gaussian integer.  No float enters or
leaves any computation; mixing the two rings raises, and promotion is
always explicit (``to_gaussian``, ``complexify``).

The JSON codec of every number is here as well: ``json_int`` (an integer),
``json_fractions`` (a scalar), ``json_entry`` (a vector entry, which may be
a bare integer), ``json_rational`` (a rational) and ``rational_to_json``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

_FracLike = (int, Fraction)


class RingMismatch(ValueError):
    """Operands live in different coefficient rings."""


def _int_row(xs):
    """(row, den): the integer row den * xs for the least such den, for a
    row of ints and Fractions."""
    # a list, not a generator: CPython builds the argument tuple of a
    # generator by resizing, and such tuples pile up on its tuple free list
    dens = [x.denominator for x in xs]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (den // d) for x, d in zip(xs, dens)], den


def scaled(v, a, b=0):
    """(a + bi) v for integers a, b and an integer vector v (real parts, then
    imaginary parts over Q(i); b = 0 over Q)."""
    if not b:
        return [a * x for x in v]
    n = len(v) // 2
    pairs = list(zip(v[:n], v[n:]))  # (a + bi)(x + yi) = (ax - by) + (ay + bx)i
    return [a * x - b * y for x, y in pairs] + [a * y + b * x for x, y in pairs]


class IntVector:
    """An exact vector stored as ``v / den``: ``v`` a tuple of ints, the real
    parts and, over Q(i), then the imaginary parts; ``den`` > 0 and
    gcd(den, *v) = 1, so a value has one storage, and equality and hashing
    compare integers.

    ``tag`` names the space the vector lives in (a Cayley-Dickson level, a
    Jordan algebra, a TKK case; None for a ``Scalar``) and ``gaussian`` its
    base ring; values of different tags or rings never mix.  A value holds
    only its integers: the ``Scalar`` coordinates of a vector are boxed from
    them on each read (``bilinear.box``).  Subclasses build values in
    ``__new__``, so every value is made by ``_canonical``.
    """

    __slots__ = ("tag", "gaussian", "v", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _canonical(cls, tag, gaussian: bool, v, den: int):
        """The value v / den for an int sequence v and den > 0 already in
        lowest terms, as ``_int_row`` makes them."""
        x = object.__new__(cls)
        set_ = object.__setattr__
        set_(x, "tag", tag)
        set_(x, "gaussian", gaussian)
        set_(x, "v", tuple(v))
        set_(x, "den", den)
        return x

    @classmethod
    def _of(cls, tag, gaussian: bool, v, den: int):
        """The value v / den for an int sequence v and den > 0, normalized."""
        g = gcd(den, *v)
        if g != 1:
            v, den = [x // g for x in v], den // g
        return cls._canonical(tag, gaussian, v, den)

    @classmethod
    def _from_json_fractions(cls, tag, gaussian: bool, pairs):
        """The value of one ``json_fractions`` pair per coordinate, over one lcm."""
        parts = [re for re, _ in pairs] + ([im for _, im in pairs] if gaussian else [])
        return cls._canonical(tag, gaussian, *_int_row(parts))

    def _json_entries(self):
        """One JSON scalar per coordinate: x / den as [x // g, den // g], g = gcd(x, den)."""
        den, n = self.den, len(self.v) // 2
        e = [[x // (g := gcd(x, den)), den // g] for x in self.v]
        return [[a, b] for a, b in zip(e[:n], e[n:])] if self.gaussian else e

    def _like(self, v, den: int):
        """v / den in the space and ring of self."""
        return self._of(self.tag, self.gaussian, v, den)

    def _check(self, other):
        """``other``, once it is a value of the space and ring of self."""
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.tag != self.tag or other.gaussian != self.gaussian:
            raise RingMismatch(f"{type(self).__name__} space or base-ring mismatch")
        return other

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators.

        Both operands are in lowest terms, so a prime dividing only one
        denominator cannot divide every numerator of the sum, and for a prime
        dividing both the lcm holds no higher power of it than g = gcd(da, db)
        does: the sum is normalized by gcd(g, *v), and is stored as it is when
        g = 1.
        """
        other = self._check(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        v, den = [a * fa + b * fb for a, b in zip(self.v, other.v)], da * fa
        if g != 1:
            h = gcd(g, *v)
            if h != 1:
                v, den = [x // h for x in v], den // h
        return self._canonical(self.tag, self.gaussian, v, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._canonical(self.tag, self.gaussian, [-a for a in self.v], self.den)  # still lowest terms

    def scale(self, s):
        """s times self, for a Scalar (or a rational) s of the same base ring."""
        if not isinstance(s, Scalar):
            s = Scalar(s, 0, self.gaussian)
        if s.gaussian != self.gaussian:
            raise RingMismatch("scalar ring mismatch")
        return self._like(scaled(self.v, *s.v), self.den * s.den)

    def complexify(self):
        """Base-ring swap Q -> Q(i); already-Gaussian values pass through."""
        if self.gaussian:
            return self
        return self._canonical(self.tag, True, self.v + (0,) * len(self.v), self.den)

    def is_zero(self) -> bool:
        return not any(self.v)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # the length of v tells the ring apart within a space
        return self.tag == other.tag and self.den == other.den and self.v == other.v

    def __hash__(self):
        return hash((self.tag, self.den, self.v))


class Scalar(IntVector):
    """A rational number, or a Gaussian rational when ``gaussian`` is set:
    the IntVector with no tag and ``v = (re,)`` over Q, ``(re, im)`` over
    Q(i).  An int or a Fraction operand is read in the ring of the Scalar,
    and equality and hashing agree with the rational a Scalar equals,
    whatever its ring."""

    __slots__ = ()

    def __new__(cls, re=0, im=0, gaussian=False):
        if not isinstance(re, _FracLike):
            re = Fraction(re)
        if not gaussian:
            if im:
                raise ValueError("rational scalar with nonzero imaginary part")
            return cls._canonical(None, False, (re.numerator,), re.denominator)
        if not isinstance(im, _FracLike):
            im = Fraction(im)
        d, e = re.denominator, im.denominator
        den = lcm(d, e)  # of two denominators in lowest terms, so v / den is too
        v = (re.numerator * (den // d), im.numerator * (den // e))
        return cls._canonical(None, True, v, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self.v[0], self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.v[1], self.den) if self.gaussian else Fraction(0)

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(gaussian=False) -> "Scalar":
        return Scalar(0, 0, gaussian)

    @staticmethod
    def one(gaussian=False) -> "Scalar":
        return Scalar(1, 0, gaussian)

    @staticmethod
    def i() -> "Scalar":
        return Scalar(0, 1, gaussian=True)

    to_gaussian = IntVector.complexify

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        """``other`` as a Scalar of this ring: an int or a Fraction is promoted."""
        if isinstance(other, _FracLike):
            return Scalar(other, 0, self.gaussian)
        return IntVector._check(self, other)

    # bound here as well as inherited: the benchmark's tracer counts each operator
    # it finds in Scalar.__dict__
    __add__ = __radd__ = IntVector.__add__
    __sub__ = IntVector.__sub__
    __neg__ = IntVector.__neg__

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return self._like(scaled(self.v, *other.v), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "Scalar":
        """1 / z = den conj(v) / |v|^2 for z = v / den."""
        n = sum(x * x for x in self.v)
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return self._like(scaled(self.conjugate().v, self.den), n)

    def conjugate(self) -> "Scalar":
        if not self.gaussian:
            return self
        re, im = self.v
        return self._canonical(None, True, (re, -im), self.den)  # still lowest terms

    def norm(self) -> Fraction:
        """Multiplicative norm re^2 + im^2 (a plain rational)."""
        return Fraction(sum(x * x for x in self.v), self.den * self.den)

    # -- predicates / views --------------------------------------------------

    def __bool__(self):
        return any(self.v)

    def __eq__(self, other):
        if isinstance(other, _FracLike):
            return not any(self.v[1:]) and self.v[0] == other * self.den
        return IntVector.__eq__(self, other)

    def __hash__(self):
        # equal to the hash of the rational it equals, whatever the ring tag
        if not any(self.v[1:]):
            return hash(Fraction(self.v[0], self.den))
        return hash((self.den, self.v))

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
        return self._json_entries()[0]

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


def json_entry(obj):
    """(re, im) of a vector entry of ``embed`` or ``reduce``: a scalar, or a
    bare integer (never a JSON boolean, an int in Python)."""
    return (Fraction(obj), None) if type(obj) is int else json_fractions(obj)


def json_rational(obj, entry=False) -> Fraction:
    """A rational field: [n, d], or a bare integer if ``entry``; never the Q(i) form."""
    re, im = (json_entry if entry else json_fractions)(obj)
    if im is not None:
        raise ValueError(f"expected a rational, got {obj!r}")
    return re


def rational_to_json(q: Fraction):
    """The [n, d] of a rational, in lowest terms (``IntVector`` writes its own)."""
    return [q.numerator, q.denominator]


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
