"""Sparse integer bilinear products: the one engine behind ``cd_mul``,
the ``cdmatrix`` blocks, ``jordan_mul``, the Jordan cross product (``sharp``,
``det``, ``jordan_rank``), the coordinate product of ``tkk.JordanSpace``
and the Lie bracket of ``tkk.TKKAlgebra``.

A structure-constant table e_i e_j = sum_k c_ijk e_k with rational c_ijk is
compiled once into integer constants over one common denominator.  Over the
Gaussian base ring Q(i) the same constants act on 2n rational coordinates
(the real parts, then the imaginary parts), so one contraction serves both
rings; that doubled table is compiled on the first Gaussian product only.
An operand is one integer vector over one positive denominator, which is
how a ``CDNumber``, a ``JordanElement`` and a ``tkk.TKKElement`` store their
coordinates (``IntVector``, below), so a product reads its operands'
integers as they are, sums in Python ints and hands back the integer
accumulator over the product of the denominators; the caller stores it as
it is.  ``square`` contracts x with itself on a half table of a
commutative product, c_ijk + c_jik once per unordered pair i < j and c_iik
on the diagonal, about half the work of ``contract(x, x)``.  ``left``
writes the table out as the integer matrix of y -> x y, the left-regular
operator on which ``cdmatrix`` multiplies and inverts.

``IntVector`` owns that storage format and its linear structure, written
once for all three classes: normalization to lowest terms, + and - over the
lcm of two denominators, negation, scaling by a ``Scalar``, the base-ring
swap, the zero test, equality and hashing.  ``scaled`` multiplies such an
integer vector by a Gaussian integer, and ``box`` makes the ``Scalar`` view
of such a vector, when one is asked for.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import _int_row
from .scalars import RingMismatch, Scalar

_ZERO = Fraction(0)


class Bilinear:
    """A bilinear product compiled from its structure constants.

    ``rows[i][j]`` lists the (k, c) with e_i e_j = sum (c / den) e_k and c a
    nonzero integer.
    """

    __slots__ = ("dim", "den", "rows", "_gauss_rows", "_left_rows", "_half_rows")

    def __init__(self, table, den=None):
        """``table[i][j]`` lists the (k, c) with e_i e_j = sum c e_k, or, when
        ``den`` is given, already the integer rows over that denominator."""
        if den is None:
            den = lcm(*[Fraction(c).denominator for row in table for cell in row for _, c in cell])
            table = [[tuple((k, int(c * den)) for k, c in cell) for cell in row] for row in table]
        self.dim = len(table)
        self.den = den
        self.rows = table
        self._gauss_rows = None
        self._left_rows = [None, None]  # left's tables over Q and over Q(i)
        self._half_rows = [None, None]  # square's tables over Q and over Q(i)

    def _gauss(self):
        """The constants on 2n coordinates, compiled on first use."""
        if self._gauss_rows is None:
            n, rows = self.dim, self.rows
            # (a + bi)(a' + b'i) = (aa' - bb') + (ab' + ba')i, coordinate by coordinate
            gauss = [[()] * (2 * n) for _ in range(2 * n)]
            for p in (0, 1):
                for q in (0, 1):
                    sign = -1 if p and q else 1
                    shift = n if p != q else 0
                    for i in range(n):
                        for j in range(n):
                            gauss[p * n + i][q * n + j] = tuple(
                                (k + shift, sign * c) for k, c in rows[i][j]
                            )
            self._gauss_rows = gauss
        return self._gauss_rows

    def contract(self, xv, yv, gaussian=False, acc=None):
        """den * (x y) for integer coordinate vectors x, y (2n long over Q(i)),
        added into ``acc`` when given."""
        rows = self._gauss() if gaussian else self.rows
        if acc is None:
            acc = [0] * len(xv)
        ys = [(j, b) for j, b in enumerate(yv) if b]
        for i, a in enumerate(xv):
            if a:
                row = rows[i]
                for j, b in ys:
                    cell = row[j]
                    if cell:
                        p = a * b
                        for k, c in cell:
                            acc[k] += p * c
        return acc

    def _half(self, gaussian):
        """square's table, compiled on first use: row i holds, for j >= i,
        the cell of the unordered pair {i, j}, c_ijk + c_jik = 2 c_ijk off
        the diagonal and c_iik on it."""
        if self._half_rows[gaussian] is None:
            rows = self.rows
            if any(sorted(rows[i][j]) != sorted(rows[j][i])
                   for i in range(self.dim) for j in range(i)):
                raise ValueError("square needs a commutative product table")
            rows = self._gauss() if gaussian else rows
            self._half_rows[gaussian] = [
                [() if j < i else row[j] if j == i else tuple((k, 2 * c) for k, c in row[j])
                 for j in range(len(row))]
                for i, row in enumerate(rows)
            ]
        return self._half_rows[gaussian]

    def square(self, xv, gaussian=False):
        """den * (x x) for an integer coordinate vector x (2n long over Q(i))
        of a commutative product, each unordered pair of coordinates
        contracted once; ``ValueError`` on a non-commutative table."""
        rows = self._half(gaussian)
        acc = [0] * len(xv)
        xs = [(i, a) for i, a in enumerate(xv) if a]
        for s, (i, a) in enumerate(xs):
            row = rows[i]
            for j, b in xs[s:]:
                cell = row[j]
                if cell:
                    p = a * b
                    for k, c in cell:
                        acc[k] += p * c
        return acc

    def left(self, xv, gaussian=False):
        """den * L(x) for an integer coordinate vector x (2n long over Q(i)):
        the integer matrix of y -> x y, row k holding coordinate k of the
        products x e_j."""
        if self._left_rows[gaussian] is None:
            # row k lists the (j, i, c) with c the coefficient of e_k in e_i e_j
            rows = self._gauss() if gaussian else self.rows
            cs = [(k, j, i, c) for i, r in enumerate(rows) for j, cl in enumerate(r) for k, c in cl]
            self._left_rows[gaussian] = [[t[1:] for t in cs if t[0] == k] for k in range(len(rows))]
        out = []
        for row in self._left_rows[gaussian]:
            m = [0] * len(xv)
            for j, i, c in row:
                m[j] += c * xv[i]
            out.append(m)
        return out


def box(v, den, gaussian):
    """The Scalars v / den, one per coordinate of an integer vector (real
    parts, then imaginary parts over Q(i))."""
    if not gaussian:
        return tuple(Scalar._of(Fraction(x, den), _ZERO, False) for x in v)
    n = len(v) // 2
    return tuple(
        Scalar._of(Fraction(v[k], den), Fraction(v[n + k], den), True) for k in range(n)
    )


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
    Jordan algebra, a TKK case) and ``gaussian`` its base ring; values of
    different tags or rings never mix.  ``_view`` holds a subclass's ``Scalar`` view, kept
    from construction or built on first read.  Subclasses build values in
    ``__new__``, so every value is made by ``_canonical``.
    """

    __slots__ = ("tag", "gaussian", "v", "den", "_view")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _canonical(cls, tag, gaussian: bool, v, den: int, view=None):
        """The value v / den for an int sequence v and den > 0 already in
        lowest terms, as ``linalg._int_row`` makes them."""
        x = object.__new__(cls)
        set_ = object.__setattr__
        set_(x, "tag", tag)
        set_(x, "gaussian", gaussian)
        set_(x, "v", tuple(v))
        set_(x, "den", den)
        set_(x, "_view", view)
        return x

    @classmethod
    def _of(cls, tag, gaussian: bool, v, den: int):
        """The value v / den for an int sequence v and den > 0, normalized."""
        g = gcd(den, *v)
        if g != 1:
            v, den = [x // g for x in v], den // g
        return cls._canonical(tag, gaussian, v, den)

    def _like(self, v, den: int):
        """v / den in the space and ring of self."""
        return self._of(self.tag, self.gaussian, v, den)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.tag != self.tag or other.gaussian != self.gaussian:
            raise RingMismatch(f"{type(self).__name__} space or base-ring mismatch")

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators.

        Both operands are in lowest terms, so a prime dividing only one
        denominator cannot divide every numerator of the sum, and for a prime
        dividing both the lcm holds no higher power of it than g = gcd(da, db)
        does: the sum is normalized by gcd(g, *v), and is stored as it is when
        g = 1.
        """
        self._check(other)
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
            s = Scalar(Fraction(s), 0, self.gaussian)
        if s.gaussian != self.gaussian:
            raise RingMismatch("scalar ring mismatch")
        (a, b), d = _int_row([s.re, s.im])
        return self._like(scaled(self.v, a, b), self.den * d)

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
