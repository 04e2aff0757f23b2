"""Rank-3 Jordan algebras of hermitian 3x3 matrices over R, C, H, O.

A JordanElement is the hermitian matrix

        [ a    z    y  ]
        [ z*   b    x  ]          diag = (a, b, c),  off = (x, y, z)
        [ y*   x*   c  ]

with a, b, c scalars and x = X_23, y = X_13, z = X_12 Cayley-Dickson numbers
of the level matching the algebra tag.  Over the rational base ring these are
the four euclidean algebras; swapping the base ring to Q(i) gives their
complexifications.  An element is stored in the bilinear engine's operand
format, one integer vector over one positive denominator
(``bilinear.IntVector``, which also owns +, -, scaling, equality, hashing
and the JSON codec), so every product and invariant reads the stored
integers, a product is stored as the engine hands it back, and JSON is
written and read from the integers; ``diag`` and ``off`` are views.

The Jordan product x o y = (xy + yx)/2 runs on structure constants.  The
table ``_mult_table`` is generated straight from the Cayley-Dickson unit
table by the hermitian-matrix rule, compiled once into a sparse integer
tensor (``structure_tensor``) and multiplied in integers by the bilinear
engine's generated code.  The invariants run on a second table read off it
on first use (``cross_tensor``), the Freudenthal cross product, with t the
trace and T(x, y) = tr(x o y) the trace form (McCrimmon, A Taste of Jordan
Algebras):

    x × y = x o y - (t(x) y + t(y) x)/2 + (t(x) t(y) - T(x, y))/2 I,
    sharp(x) = x × x,   det(x) = T(x, sharp(x)) / 3,   sigma2(x) = tr(sharp(x)).

A square (x o x, x × x) takes each unordered pair of coordinates once
(``Bilinear.square``), and a product of two elements runs through
``Bilinear.product``, which pays for the nonzero coordinates of its first
operand.  This × is normalized by x × x = sharp(x), so it is
half of McCrimmon's x ×_M y = sharp(x + y) - sharp(x) - sharp(y), and his
quadratic representation U_a x = T(a, x) a - sharp(a) ×_M x reads here

    U_a(x) = T(a, x) a - 2 (sharp(a) × x),

one adjoint and one cross product in place of four Jordan products; the
cross product is taken as x × sharp(a), since x is the sparse operand.

``jordan_rank`` zero-tests x, x × x and T(x, x × x) as integer vectors: the
rank is 0, 1, 2 or 3 as x, sharp(x) or det(x) is the first to be nonzero.
So one square gives every invariant of a point: ``rank_det_sharp`` returns
the rank, det(x) and sharp(x) from one x × x, and ``sigma`` reads its
(tr, sigma2, det) off it; ``jordan_rank``, ``det``, ``sharp`` and ``sigma2``
each stay for callers that need one invariant.

The matrix route ``jordan_mul_matrices`` multiplies the hermitian matrices
entry by entry with ``cd_mul_doubling`` and reads neither table; the tests
build on it their oracles x o x - tr(x) x + sigma2(x) I for sharp,
abc - a N(x) - b N(y) - c N(z) + 2 Re((z x) conj(y)) for det and
2 a o (a o x) - (a o a) o x for U_a.

Matrix models used for rank identification:

  * algebra R: the element is itself a symmetric 3x3 scalar matrix;
  * algebra C: entry a + b e1 maps to the plain matrix entry a + b i; the
    mirror entry then carries the transpose, so the complexified algebra is
    isomorphic to all of M3 with symmetrized matrix product;
  * algebra H: quaternions embed in 2x2 complex blocks via
        1 -> [[1,0],[0,1]],  e1 -> [[i,0],[0,-i]],
        e2 -> [[0,1],[-1,0]], e3 -> [[0,i],[i,0]],
    and X maps to psi(X) J6 with J6 = diag(J2, J2, J2), J2 = [[0,1],[-1,0]],
    which is skew-symmetric.  Block (i, j) is written straight from the
    coordinates of X_ij = c0 + c1 e1 + c2 e2 + c3 e3:

        psi(q) J2 = [[-(c2 + i c3), c0 + i c1], [-(c0 - i c1), -c2 + i c3]],

    and a block [[p, b], [c, d]] reads back as
    q = (b - c)/2 + (b + c)/(2i) e1 - (p + d)/2 e2 + (d - p)/(2i) e3.
    Jordan rank is half the matrix rank there, and det(X) = Pf(psi(X) J6),
    the pfaffian normalized by Pf(J6) = +1 (J6 is the model of the identity).

Each model is one closed-form pair (``to_*_matrix`` / ``from_*_matrix``) on
Scalar arithmetic; none reads the structure tables, so ``matrix_model_rank``
stays an independent check of ``jordan_rank``.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from . import linalg
from .bilinear import Bilinear, IntVector, box, scaled
from .cayley_dickson import CDNumber, LEVEL_OF_ALGEBRA, cd_mul_doubling, unit_product
from .scalars import RingMismatch, Scalar, json_fractions

ALGEBRAS = ("R", "C", "H", "O")


class Sigma(NamedTuple):
    """Coefficients of the generic cubic t^3 - tr t^2 + sigma2 t - det."""

    tr: Scalar
    sigma2: Scalar
    det: Scalar


class JordanElement(IntVector):
    """A hermitian 3x3 matrix over the algebra ``algebra``, stored as
    ``v / den`` (``bilinear.IntVector``, whose ``tag`` is the algebra) in
    ``coords`` order: a, b, c, then the units of x, y and z, the real parts
    first and, over Q(i), then the imaginary parts.  ``diag`` (3 Scalars)
    and ``off`` (3 CDNumbers) are views, kept from construction or built on
    first read."""

    __slots__ = ()
    algebra = IntVector.tag  # the tag slot itself, read as fast as any slot

    def __new__(cls, algebra: str, diag, off):
        diag, off = tuple(diag), tuple(off)
        g = _base_ring(algebra, [s.gaussian for s in diag], [(q.level, q.gaussian) for q in off])
        level = LEVEL_OF_ALGEBRA[algebra]
        parts = [s.re for s in diag] + ([s.im for s in diag] if g else [])
        # the lcm of every coordinate's denominator, so already canonical
        den = lcm(*[f.denominator for f in parts], *[q.den for q in off])
        dv = [f.numerator * (den // f.denominator) for f in parts]
        ov = [q.v if q.den == den else [c * (den // q.den) for c in q.v] for q in off]
        w = 1 << level
        v = dv[:3] + [c for o in ov for c in o[:w]] + dv[3:] + [c for o in ov for c in o[w:]]
        return cls._canonical(algebra, g, v, den, (diag, off))

    # -- basic structure -------------------------------------------------------

    @property
    def level(self) -> int:
        return LEVEL_OF_ALGEBRA[self.tag]

    def _views(self):
        """(diag, off), boxed from the integers on first use."""
        if self._view is None:
            v, den, g, level = self.v, self.den, self.gaussian, self.level
            n, w = len(v) // (2 if g else 1), 1 << level
            off = tuple(
                CDNumber._of(level, g, v[a : a + w] + v[n + a : n + a + w], den)
                for a in range(3, n, w)
            )
            object.__setattr__(self, "_view", (box(v[:3] + v[n : n + 3], den, g), off))
        return self._view

    @property
    def diag(self):
        """The diagonal (a, b, c) as Scalars."""
        return self._views()[0]

    @property
    def off(self):
        """The off-diagonal entries (x, y, z) = (X_23, X_13, X_12) as CDNumbers."""
        return self._views()[1]

    @staticmethod
    def zero(algebra: str, gaussian=False) -> "JordanElement":
        return JordanElement.diagonal(algebra, 0, 0, 0, gaussian)

    @staticmethod
    def identity(algebra: str, gaussian=False) -> "JordanElement":
        return JordanElement.diagonal(algebra, 1, 1, 1, gaussian)

    @staticmethod
    def diagonal(algebra: str, a, b, c, gaussian=False) -> "JordanElement":
        conv = lambda v: v if isinstance(v, Scalar) else Scalar(Fraction(v), 0, gaussian)
        q = CDNumber.zero(LEVEL_OF_ALGEBRA[algebra], gaussian)
        return JordanElement(algebra, (conv(a), conv(b), conv(c)), (q, q, q))

    def __repr__(self):
        return (
            f"JordanElement({self.algebra}, diag={[str(s) for s in self.diag]}, "
            f"off={self.off!r})"
        )

    # -- matrix view over the division algebra ---------------------------------

    def to_matrix(self):
        x, y, z = self.off
        d = [CDNumber.from_scalar(self.level, s) for s in self.diag]
        return (
            (d[0], z, y),
            (z.conjugate(), d[1], x),
            (y.conjugate(), x.conjugate(), d[2]),
        )

    @staticmethod
    def from_matrix(algebra: str, m) -> "JordanElement":
        """Read a hermitian 3x3 CDNumber matrix back into storage form."""
        for i in range(3):
            if not m[i][i].is_real():
                raise ValueError("non-real diagonal entry")
            for j in range(i + 1, 3):
                if m[j][i] != m[i][j].conjugate():
                    raise ValueError("matrix is not hermitian")
        diag = tuple(m[i][i].real() for i in range(3))
        off = (m[1][2], m[0][2], m[0][1])
        return JordanElement(algebra, diag, off)

    # -- coordinates (used by the operator layer) -------------------------------

    def coords(self):
        """Flat coordinate tuple: 3 diagonal scalars then 3 * 2^level slots."""
        diag, off = self._views()
        return diag + tuple(c for q in off for c in q.coeffs)

    @staticmethod
    def from_coords(algebra: str, coords, gaussian=False) -> "JordanElement":
        """The element with the Scalar coordinates ``coords`` over the ring
        ``gaussian`` names."""
        if len(coords) != JordanElement.space_dim(algebra):
            raise ValueError(f"algebra {algebra} needs {JordanElement.space_dim(algebra)} coordinates")
        if any(c.gaussian != gaussian for c in coords):
            raise RingMismatch("coordinate ring does not match the gaussian flag")
        parts = [c.re for c in coords] + ([c.im for c in coords] if gaussian else [])
        return JordanElement._canonical(algebra, gaussian, *linalg._int_row(parts))

    @staticmethod
    def space_dim(algebra: str) -> int:
        return 3 + 3 * (1 << LEVEL_OF_ALGEBRA[algebra])

    @staticmethod
    def space_basis(algebra: str, gaussian=False):
        dim = JordanElement.space_dim(algebra) * (2 if gaussian else 1)
        return [
            JordanElement._canonical(algebra, gaussian, [int(i == k) for i in range(dim)], 1)
            for k in range(JordanElement.space_dim(algebra))
        ]

    def split_real_imag(self):
        """A Gaussian-base element as (real part, imaginary part) over Q."""
        if not self.gaussian:
            raise ValueError("element is not complexified")
        n = len(self.v) // 2
        return (
            JordanElement._of(self.tag, False, self.v[:n], self.den),
            JordanElement._of(self.tag, False, self.v[n:], self.den),
        )

    # -- JSON --------------------------------------------------------------------

    def to_json(self):
        """Written from the stored integers; no ``Scalar`` view is built."""
        e, level, w = self._json_entries(), self.level, 1 << self.level
        return {
            "algebra": self.algebra,
            "complexified": self.gaussian,
            "diag": e[:3],
            "off": [{"level": level, "coeffs": e[a : a + w]} for a in range(3, len(e), w)],
        }

    @staticmethod
    def from_json(obj) -> "JordanElement":
        """The constructor's checks and errors; no ``Scalar`` view is built until one is read."""
        diag = [json_fractions(s) for s in obj["diag"]]
        off = [CDNumber._json_fractions(q) for q in obj["off"]]
        algebra = obj["algebra"]
        g = _base_ring(algebra, [im is not None for _, im in diag], [(lv, r) for lv, r, _ in off])
        if bool(obj.get("complexified")) != g:
            raise ValueError("complexified flag contradicts coefficient encoding")
        fracs = diag + [f for _, _, fs in off for f in fs]
        return JordanElement._from_json_fractions(algebra, g, fracs)


def _base_ring(algebra, diag_rings, off_shapes):
    """The common base ring, once the shape and the rings of the entries check."""
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra tag {algebra!r}")
    if len(diag_rings) != 3 or len(off_shapes) != 3:
        raise ValueError("need 3 diagonal scalars and 3 off-diagonal entries")
    g = diag_rings[0]
    if diag_rings.count(g) != 3:
        raise RingMismatch("mixed base rings on the diagonal")
    if off_shapes.count((LEVEL_OF_ALGEBRA[algebra], g)) != 3:
        raise RingMismatch("off-diagonal entry has wrong level or ring")
    return g


def _mat_mul(a, b):
    """3x3 matrix product with entries multiplied by the pair recursion
    ``cd_mul_doubling``, so the matrix route shares no code with the
    bilinear engine behind ``cd_mul`` and ``jordan_mul``."""
    zero = CDNumber.zero(a[0][0].level, a[0][0].gaussian)
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = zero
            for m in range(3):
                if not (a[i][m].is_zero() or b[m][j].is_zero()):
                    acc = acc + cd_mul_doubling(a[i][m], b[m][j])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def jordan_mul_matrices(x: JordanElement, y: JordanElement) -> JordanElement:
    """x o y = (xy + yx)/2 computed on the underlying hermitian matrices."""
    x._check(y)
    a, b = x.to_matrix(), y.to_matrix()
    ab, ba = _mat_mul(a, b), _mat_mul(b, a)
    half = Scalar(Fraction(1, 2), 0, x.gaussian)
    m = tuple(
        tuple((ab[i][j] + ba[i][j]).scale(half) for j in range(3)) for i in range(3)
    )
    return JordanElement.from_matrix(x.algebra, m)


@lru_cache(maxsize=None)
def _mult_table(algebra: str):
    """Sparse structure constants of the Jordan product in the coordinate basis.

    Generated straight from the Cayley-Dickson unit table: each basis element
    is a hermitian 3x3 matrix of integer coefficient dicts {unit: coeff},
    and e_i o e_j = (e_i e_j + e_j e_i) / 2 is read back into coordinates.
    It never calls ``jordan_mul_matrices``, which therefore stays an
    independent check of the product that this table drives.
    """
    level = LEVEL_OF_ALGEBRA[algebra]
    # matrix position (r, c), r < c, and unit of each off-diagonal coordinate
    offs = [(pos, u) for pos in ((1, 2), (0, 2), (0, 1)) for u in range(1 << level)]
    mats = [{(k, k): {0: 1}} for k in range(3)]
    for (r, c), u in offs:
        mats.append({(r, c): {u: 1}, (c, r): {u: 1 if u == 0 else -1}})

    def matmul(x, y):
        out = {}
        for (r, m), p in x.items():
            for (m2, c), q in y.items():
                if m != m2:
                    continue
                cell = out.setdefault((r, c), {})
                for u, a in p.items():
                    for v, b in q.items():
                        k, sign = unit_product(level, u, v)
                        cell[k] = cell.get(k, 0) + sign * a * b
        return out

    dim = len(mats)
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            xy, yx = matmul(mats[i], mats[j]), matmul(mats[j], mats[i])
            twice = lambda pos, u: xy.get(pos, {}).get(u, 0) + yx.get(pos, {}).get(u, 0)
            coords = [twice((k, k), 0) for k in range(3)]
            coords += [twice(pos, u) for pos, u in offs]
            table[i][j] = table[j][i] = tuple(
                (k, Fraction(c, 2)) for k, c in enumerate(coords) if c
            )
    return tuple(tuple(r) for r in table)


@lru_cache(maxsize=None)
def structure_tensor(algebra: str) -> Bilinear:
    """The Jordan structure constants compiled for the bilinear engine."""
    return Bilinear(_mult_table(algebra))


def _product(table: Bilinear, x: JordanElement, y: JordanElement) -> JordanElement:
    x._check(y)
    if x == y:  # each unordered pair of coordinates once
        return x._like(table.square(x.v, x.gaussian), x.den * x.den * table.den)
    return x._like(table.product(x.v, y.v, x.gaussian), x.den * y.den * table.den)


def jordan_mul(x: JordanElement, y: JordanElement) -> JordanElement:
    """x o y = (xy + yx)/2, through the compiled structure constants."""
    return _product(structure_tensor(x.algebra), x, y)


@lru_cache(maxsize=None)
def cross_tensor(algebra: str) -> Bilinear:
    """The cross product x × y (module docstring) for the bilinear engine, built
    on first use from the integer rows of ``structure_tensor`` over twice
    their denominator.  T(e_i, e_j) = delta_ij w_i with w_i = 1 on the
    diagonal and 2 off it."""
    jt = structure_tensor(algebra)
    n, den = jt.dim, jt.den

    def cell(i, j):
        c = Counter({k: 2 * v for k, v in jt.rows[i][j]})
        c[j] -= den * (i < 3)  # -(t_i e_j + t_j e_i) / 2
        c[i] -= den * (j < 3)
        s = den * ((i < 3 and j < 3) - (i == j) * (1 if i < 3 else 2))
        for k in range(3):  # (t_i t_j - T_ij) / 2 on the identity
            c[k] += s
        return tuple((k, v) for k, v in c.items() if v)

    return Bilinear([[cell(i, j) for j in range(n)] for i in range(n)], 2 * den)


def _pairing(xv, yv, gaussian):
    """(re, im) of T(x, y) = sum w_k x_k y_k for integer coordinate vectors
    (2n long over Q(i)); w_k is 1 on the diagonal and 2 off it."""
    t = lambda u, v: sum(map(operator.mul, u, v)) + sum(map(operator.mul, u[3:], v[3:]))
    if not gaussian:
        return t(xv, yv), 0
    n = len(xv) // 2
    xr, xi, yr, yi = xv[:n], xv[n:], yv[:n], yv[n:]
    return t(xr, yr) - t(xi, yi), t(xr, yi) + t(xi, yr)


def _sharp_ints(x: JordanElement):
    """(sv, ds): sharp(x) = sv / ds, in integers."""
    table = cross_tensor(x.tag)
    return table.square(x.v, x.gaussian), x.den * x.den * table.den


def cross(x: JordanElement, y: JordanElement) -> JordanElement:
    """The cross product x × y; x × x = sharp(x) and 2 x × h is its linearization."""
    return _product(cross_tensor(x.algebra), x, y)


def trace(x: JordanElement) -> Scalar:
    v, n = x.v, len(x.v) // 2
    im = Fraction(v[n] + v[n + 1] + v[n + 2], x.den) if x.gaussian else 0
    return Scalar(Fraction(v[0] + v[1] + v[2], x.den), im, x.gaussian)


def trace_form(x: JordanElement, y: JordanElement) -> Scalar:
    """tr(x o y); symmetric, bilinear, positive definite over the rational base."""
    x._check(y)
    re, im = _pairing(x.v, y.v, x.gaussian)
    return Scalar(Fraction(re, x.den * y.den), Fraction(im, x.den * y.den), x.gaussian)


def sigma2(x: JordanElement) -> Scalar:
    """tr(sharp(x)), the middle coefficient of the generic cubic."""
    return trace(sharp(x))


def _det(x: JordanElement, t, ds) -> Scalar:
    """det(x) = T(x, sharp(x)) / 3 from t = (re, im) of T(x, sv), sharp(x) = sv / ds."""
    d = 3 * x.den * ds
    return Scalar(Fraction(t[0], d), Fraction(t[1], d), x.gaussian)


def det(x: JordanElement) -> Scalar:
    """det(x) = T(x, sharp(x)) / 3, one integer dot product after the square."""
    sv, ds = _sharp_ints(x)
    return _det(x, _pairing(x.v, sv, x.gaussian), ds)


def sigma(x: JordanElement) -> Sigma:
    """Coefficients (tr, sigma2, det) of the generic characteristic cubic."""
    _, d, s = rank_det_sharp(x)
    return Sigma(trace(x), trace(s), d)


def sharp(x: JordanElement) -> JordanElement:
    """Adjugate x × x = x o x - tr(x) x + sigma2(x) I; x o sharp(x) = det(x) I."""
    return cross(x, x)


def _stratum(xv, sv, gaussian):
    """(rank, (re, im) of T(x, sv)) for the integer x and a positive multiple
    sv of sharp(x): the rank is 0, 1, 2 or 3 as x, sharp(x) or T(x, sharp(x))
    is the first to be nonzero.  x = 0 gives sv = 0, and sv = 0 gives T = 0
    without a dot product."""
    if not any(sv):
        return (1 if any(xv) else 0), (0, 0)
    t = _pairing(xv, sv, gaussian)
    return (2 if t == (0, 0) else 3), t


def jordan_rank(x: JordanElement) -> int:
    """0-3 by zero tests on the integer x, x × x and T(x, x × x); nothing is boxed."""
    return _stratum(x.v, _sharp_ints(x)[0], x.gaussian)[0]


def rank_det_sharp(x: JordanElement):
    """(jordan_rank(x), det(x), sharp(x)) from one square x × x."""
    sv, ds = _sharp_ints(x)
    rank, t = _stratum(x.v, sv, x.gaussian)
    return rank, _det(x, t, ds), x._like(sv, ds)


def _quadratic_rep(a: JordanElement, x: JordanElement, sharp_ints) -> JordanElement:
    """U_a(x) = T(a, x) a - 2 (a# × x) in integers, given a# = sv / ds."""
    a._check(x)
    sv, ds = sharp_ints
    table = cross_tensor(a.tag)
    den = ds * x.den * table.den  # that of a# × x; T(a, x) a is over a.den^2 x.den
    f = den // (a.den * a.den * x.den)
    re, im = _pairing(a.v, x.v, a.gaussian)
    tv = scaled(a.v, f * re, f * im)
    cv = table.product(x.v, sv, a.gaussian)  # x × a#: x is the sparse one in every sampler
    return a._like([t - 2 * c for t, c in zip(tv, cv)], den)


def quadratic_rep(a: JordanElement, x: JordanElement) -> JordanElement:
    """U_a(x) = T(a, x) a - 2 (a# × x); rank preserving for det(a) != 0."""
    return _quadratic_rep(a, x, _sharp_ints(a))


def invertible_quadratic_rep(a: JordanElement, x: JordanElement):
    """U_a(x) when det(a) != 0, else None; a# is formed once for both."""
    sharp_ints = _sharp_ints(a)
    if _pairing(a.v, sharp_ints[0], a.gaussian) == (0, 0):
        return None
    return _quadratic_rep(a, x, sharp_ints)


# -- matrix models -------------------------------------------------------------

_HALF = Scalar(Fraction(1, 2), 0, True)
_IHALF = Scalar(0, Fraction(-1, 2), True)  # 1/(2i)
_I = Scalar.i()


def to_symmetric_matrix(x: JordanElement):
    """Algebra R: the element as a plain symmetric 3x3 scalar matrix."""
    if x.algebra != "R":
        raise ValueError("symmetric model needs algebra R")
    (a, b, c), (p, q, r) = x.diag, (o.real() for o in x.off)
    return ((a, r, q), (r, b, p), (q, p, c))


def from_symmetric_matrix(m) -> JordanElement:
    """Inverse of to_symmetric_matrix, over the ring of the entries."""
    if any(m[i][j] != m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))):
        raise ValueError("matrix is not symmetric")
    off = (m[1][2], m[0][2], m[0][1])
    return JordanElement("R", (m[0][0], m[1][1], m[2][2]), (CDNumber(0, (s,)) for s in off))


def _cd1_to_scalar(q: CDNumber) -> Scalar:
    a, b = q.coeffs
    return Scalar(a.re - b.im, a.im + b.re, gaussian=True)


def to_general_matrix(x: JordanElement):
    """Algebra C: first component of the (M, M^T) splitting; a 3x3 Q(i) matrix.

    On the complexified algebra this is a linear bijection onto all of M3 and
    a Jordan-algebra isomorphism onto symmetrized matrix multiplication.
    """
    if x.algebra != "C":
        raise ValueError("general-matrix model needs algebra C")
    m = x.to_matrix()
    return tuple(tuple(_cd1_to_scalar(m[i][j]) for j in range(3)) for i in range(3))


def from_general_matrix(m) -> JordanElement:
    """Inverse of to_general_matrix; accepts any 3x3 Q(i) matrix."""
    rows = tuple(
        tuple(
            CDNumber(1, ((m[i][j] + m[j][i]) * _HALF, (m[i][j] - m[j][i]) * _IHALF))
            for j in range(3)
        )
        for i in range(3)
    )
    return JordanElement.from_matrix("C", rows)


def _skew_block(q: CDNumber):
    """The block psi(q) J2 of the skew model (module docstring), as rows."""
    c0, c1, c2, c3 = (c.to_gaussian() for c in q.coeffs)
    ic1, ic3 = _I * c1, _I * c3
    return (-(c2 + ic3), c0 + ic1), (ic1 - c0, ic3 - c2)


def to_skew_matrix(x: JordanElement):
    """Algebra H: psi(X) J6, a skew-symmetric 6x6 matrix over Q(i), written
    block by block; block (j, i) is minus the transpose of block (i, j)."""
    if x.algebra != "H":
        raise ValueError("skew model needs algebra H")
    zero = Scalar.zero(True)
    a = [[zero] * 6 for _ in range(6)]
    for k, d in enumerate(x.diag):
        d = d.to_gaussian()
        a[2 * k][2 * k + 1], a[2 * k + 1][2 * k] = d, -d
    for (i, j), q in zip(((1, 2), (0, 2), (0, 1)), x.off):
        for r, row in enumerate(_skew_block(q)):
            for c, e in enumerate(row):
                a[2 * i + r][2 * j + c], a[2 * j + c][2 * i + r] = e, -e
    return tuple(map(tuple, a))


def from_skew_matrix(a) -> JordanElement:
    """Inverse of to_skew_matrix on skew-symmetric input: block [[p, b], [c, d]]
    is the quaternion (b - c)/2 + (b + c)/(2i) e1 - (p + d)/2 e2 + (d - p)/(2i) e3."""
    if any(a[i][j] != -a[j][i] for i in range(6) for j in range(i, 6)):
        raise ValueError("matrix is not skew-symmetric")

    def quaternion(i, j):
        (p, b), (c, d) = a[2 * i][2 * j : 2 * j + 2], a[2 * i + 1][2 * j : 2 * j + 2]
        return CDNumber(2, ((b - c) * _HALF, (b + c) * _IHALF, -(p + d) * _HALF, (d - p) * _IHALF))

    diag = tuple(a[2 * k][2 * k + 1] for k in range(3))
    return JordanElement("H", diag, (quaternion(1, 2), quaternion(0, 2), quaternion(0, 1)))


def pfaffian(a) -> Scalar:
    """Pfaffian of an even skew-symmetric Scalar matrix, by row expansion."""
    n = len(a)
    if n % 2:
        raise ValueError("odd-dimensional skew matrix has no pfaffian")
    for i in range(n):
        for j in range(n):
            if a[i][j] != -a[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    return _pf(a)


def _pf(a) -> Scalar:
    n = len(a)
    if n == 0:
        return Scalar.one(True)
    gaussian = a[0][0].gaussian
    if n == 2:
        return a[0][1]
    acc = Scalar.zero(gaussian)
    for j in range(1, n):
        if a[0][j].is_zero():
            continue
        keep = [r for r in range(1, n) if r != j]
        minor = tuple(tuple(a[r][c] for c in keep) for r in keep)
        term = a[0][j] * _pf(minor)
        acc = acc + term if j % 2 == 1 else acc - term
    return acc


def matrix_model_rank(x: JordanElement) -> int:
    """Ordinary matrix rank in the classical model (halved for algebra H)."""
    if x.algebra == "R":
        return linalg.rank(to_symmetric_matrix(x))
    if x.algebra == "C":
        return linalg.rank(to_general_matrix(x))
    if x.algebra == "H":
        r = linalg.rank(to_skew_matrix(x))
        if r % 2:
            raise ArithmeticError("skew model rank must be even")
        return r // 2
    raise ValueError("no classical matrix model for the octonionic algebra")
