"""Lie-Poisson structure on the case algebras and the Poisson-rank detector.

Polynomials live on a case algebra through its standard basis; the bracket is

    {f, g}(x) = form(x, [grad f(x), grad g(x)])

with gradients taken for the invariant form, so linear functions bracket to
the linear function of the Lie bracket of their dual vectors, and the
quadratic form(x, x) is a Casimir.

The rank of the Poisson bivector at a point,

    rank  Lambda_ij(x) = form(x, [b_i, b_j]),

is the dimension of the adjoint orbit through x; it is computed exactly and
detects the stratum of a reduced point.  The same bivector rank is available
directly in the 6x6 matrix realizations of the three classical cases (any
nondegenerate invariant pairing gives the same rank), which is what the
reduction pipeline feeds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import cdmatrix as cdm
from . import linalg
from .cayley_dickson import CDNumber
from .jordan import JordanElement
from .reduction import CASE_LEVEL
from .tkk import ALGEBRA_TO_CASE, TKKAlgebra, TKKElement, tkk_algebra


class PolyFn:
    """Sparse polynomial on a case algebra in basis coordinates.

    Terms map a sorted tuple of (variable, exponent) pairs to a rational
    coefficient; the empty tuple is the constant term.
    """

    __slots__ = ("case", "dim", "terms")

    def __init__(self, case, dim, terms=None):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "dim", dim)
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            k = tuple(sorted(key))
            acc = clean.get(k, Fraction(0)) + c
            if acc:
                clean[k] = acc
            else:
                clean.pop(k, None)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFn is immutable")

    @staticmethod
    def constant(case, dim, c):
        return PolyFn(case, dim, {(): Fraction(c)})

    @staticmethod
    def coordinate(case, dim, i):
        return PolyFn(case, dim, {((i, 1),): Fraction(1)})

    @staticmethod
    def linear(case, dim, coeffs):
        return PolyFn(
            case, dim, {((i, 1),): Fraction(c) for i, c in enumerate(coeffs) if c}
        )

    def _check(self, other):
        if self.case != other.case or self.dim != other.dim:
            raise ValueError("polynomials live on different algebras")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return PolyFn(self.case, self.dim, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return PolyFn(self.case, self.dim, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = {}
                for var, e in k1 + k2:
                    merged[var] = merged.get(var, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return PolyFn(self.case, self.dim, out)

    def partial(self, i):
        out = {}
        for key, c in self.terms.items():
            for idx, (var, e) in enumerate(key):
                if var != i:
                    continue
                rest = list(key[:idx] + key[idx + 1 :])
                if e > 1:
                    rest.append((var, e - 1))
                k = tuple(sorted(rest))
                out[k] = out.get(k, Fraction(0)) + c * e
        return PolyFn(self.case, self.dim, out)

    def evaluate(self, coords):
        acc = Fraction(0)
        for key, c in self.terms.items():
            term = c
            for var, e in key:
                term *= coords[var] ** e
            acc += term
        return acc

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyFn):
            return NotImplemented
        return self.case == other.case and self.terms == other.terms

    def __repr__(self):
        return f"PolyFn({self.case}, {len(self.terms)} terms)"


class CasePoisson:
    """Cached bracket data for one case algebra."""

    def __init__(self, case):
        self.case = case
        self.alg: TKKAlgebra = tkk_algebra(case)
        self.dim = self.alg.dim
        self.gram = self.alg.gram_matrix()
        self.gram_inv = linalg._inverse_columns(self.gram)
        self._bivector_polys = None

    def bivector_polys(self):
        """Linear polynomials Lambda_ij(x) = form(x, [b_i, b_j]), i < j.

        form(x, [b_i, b_j]) = sum_k c_ij^k (G x)_k, read off the structure
        constants c and the sparse Gram G of the algebra.
        """
        if self._bivector_polys is not None:
            return self._bivector_polys
        lie, gram = self.alg.lie, self.alg.gram_rows
        den = lie.den * self.alg.gram_den
        out = {}
        for i, row in enumerate(lie.rows):
            for j in range(i + 1, self.dim):
                coeffs = {}
                for k, c in row[j]:
                    for m, g in gram[k]:
                        coeffs[m] = coeffs.get(m, 0) + c * g
                poly = PolyFn(
                    self.case, self.dim, {((m, 1),): Fraction(v, den) for m, v in coeffs.items()}
                )
                if not poly.is_zero():
                    out[(i, j)] = poly
        self._bivector_polys = out
        return out

    def gradient(self, f: PolyFn):
        """Invariant-form gradient: coordinates are G^-1 (partials)."""
        partials = [f.partial(i) for i in range(self.dim)]
        out = []
        for i in range(self.dim):
            acc = {}
            for j in range(self.dim):
                gij = self.gram_inv[i][j]
                if not gij:
                    continue
                for key, c in partials[j].terms.items():
                    acc[key] = acc.get(key, Fraction(0)) + gij * c
            out.append(PolyFn(self.case, self.dim, acc))
        return out

    def bracket(self, f: PolyFn, g: PolyFn) -> PolyFn:
        """{f, g}(x) = form(x, [grad f(x), grad g(x)])."""
        gf, gg = self.gradient(f), self.gradient(g)
        lam = self.bivector_polys()
        acc = {}
        for (i, j), lam_ij in lam.items():
            term = gf[i] * gg[j] - gf[j] * gg[i]
            if term.is_zero():
                continue
            for key, c in (term * lam_ij).terms.items():
                acc[key] = acc.get(key, Fraction(0)) + c
        return PolyFn(self.case, self.dim, acc)

    def casimir(self) -> PolyFn:
        terms = {}
        for i in range(self.dim):
            for j in range(self.dim):
                gij = self.gram[i][j]
                if gij:
                    key = ((i, 2),) if i == j else ((i, 1), (j, 1))
                    terms[key] = terms.get(key, Fraction(0)) + gij
        return PolyFn(self.case, self.dim, terms)

    def linear_fn(self, u: TKKElement) -> PolyFn:
        """f_u(x) = form(u, x)."""
        return PolyFn.linear(self.case, self.dim, self.alg.form_against_basis(u))


@lru_cache(maxsize=None)
def case_poisson(case) -> CasePoisson:
    return CasePoisson(case)


def poisson_rank_at(x: TKKElement) -> int:
    """Rank of the Poisson bivector at x: the adjoint-orbit dimension.

    Lambda_ij(x) = sum_k c_ij^k (G x)_k, one contraction of the structure
    constants with the integer vector G x.
    """
    alg = tkk_algebra(x.case)
    gx = alg._gram_times(x)[0]
    rows = [[sum(c * gx[k] for k, c in cell) for cell in row] for row in alg.lie.rows]
    return linalg.frac_rank(rows)


def embed_reduced_point(xc: JordanElement) -> TKKElement:
    """Embed a complexified Jordan element into p inside its case algebra."""
    alg = tkk_algebra(ALGEBRA_TO_CASE[xc.algebra])
    return alg.complexified_to_p(xc)


# -- matrix-realization bivector rank for the classical cases --------------------


def matrix_g_basis(case):
    """Basis of u(V, B) in the graded block form [[A, x], [y, -conj(A)^T]]."""
    level = CASE_LEVEL[case]
    width = 1 << level
    out = []
    zero6 = [[CDNumber.zero(level) for _ in range(6)] for _ in range(6)]
    # A-part: arbitrary 3x3 over K
    for r in range(3):
        for c in range(3):
            for k in range(width):
                m = [row[:] for row in zero6]
                u = CDNumber.unit(level, k)
                m[r][c] = u
                m[3 + c][3 + r] = -u.conjugate()
                out.append(cdm.from_rows(m))
    # x-part and y-part: hermitian 3x3 over K
    for block in (0, 1):
        rows_off = (0, 3) if block == 0 else (3, 0)
        for i in range(3):
            m = [row[:] for row in zero6]
            m[rows_off[0] + i][rows_off[1] + i] = CDNumber.one(level)
            out.append(cdm.from_rows(m))
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(width):
                    m = [row[:] for row in zero6]
                    u = CDNumber.unit(level, k)
                    m[rows_off[0] + i][rows_off[1] + j] = u
                    m[rows_off[0] + j][rows_off[1] + i] = u.conjugate()
                    out.append(cdm.from_rows(m))
    return out


@lru_cache(maxsize=None)
def _sparse_g_basis(case):
    """Basis entries as (row, col, unit index, sign); every entry of every
    basis matrix is a signed Cayley-Dickson unit."""
    basis = matrix_g_basis(case)
    sparse = []
    for e in basis:
        entries = []
        for r, row in enumerate(e):
            for c, v in enumerate(row):
                if v.is_zero():
                    continue
                k = next(i for i, x in enumerate(v.coeffs) if not x.is_zero())
                sgn = 1 if v.coeffs[k].re > 0 else -1
                entries.append((r, c, k, sgn))
        sparse.append(tuple(entries))
    return tuple(sparse)


def poisson_rank_at_matrix(case, m) -> int:
    """Bivector rank at a matrix-model element of the case algebra.

    Rank is independent of the choice of nondegenerate invariant pairing, so
    the half-trace pairing of the matrix realization is used here.  Because
    basis entries are signed units, the whole bivector assembles by integer
    coefficient permutations after one common rescaling of the element.
    """
    from math import gcd

    from .cayley_dickson import unit_product

    sparse = _sparse_g_basis(case)
    level = CASE_LEVEL[case]
    width = 1 << level
    n = len(m)
    den = 1
    for row in m:
        for q in row:
            for c in q.coeffs:
                if c.im:
                    raise ValueError("matrix-model elements live on the rational base")
                den = den * c.re.denominator // gcd(den, c.re.denominator)
    m_int = [
        [[int(c.re * den) for c in q.coeffs] for q in row] for row in m
    ]
    dim = len(sparse)
    left = {}  # (k): permutation data for e_k * q
    right = {}
    for k in range(width):
        left[k] = [unit_product(level, k, j) for j in range(width)]
        right[k] = [unit_product(level, j, k) for j in range(width)]
    rows = []
    for e_sp in sparse:
        comm = [[[0] * width for _ in range(n)] for _ in range(n)]
        for r, c, k, sgn in e_sp:
            lk, rk = left[k], right[k]
            for j in range(n):
                q = m_int[c][j]
                out = comm[r][j]
                for src in range(width):
                    v = q[src]
                    if v:
                        t, s = lk[src]
                        out[t] += v if s * sgn > 0 else -v
            for i in range(n):
                q = m_int[i][r]
                out = comm[i][c]
                for src in range(width):
                    v = q[src]
                    if v:
                        t, s = rk[src]
                        out[t] -= v if s * sgn > 0 else -v
        row = []
        for b_sp in sparse:
            acc = 0
            for r, c, k, sgn in b_sp:
                # Re(x e_k) = x_0 when k = 0, else -x_k
                x = comm[c][r]
                term = x[0] if k == 0 else -x[k]
                acc += term if sgn > 0 else -term
            row.append(-acc)
        rows.append(row)
    return linalg.frac_rank(rows)


def matrix_p_element(case, xc: JordanElement):
    """The matrix-model p-element [[w, x_p], [x_p, -w]] of w + i x_p."""
    re_part, im_part = xc.split_real_imag()
    w = re_part.to_matrix()
    xp = im_part.to_matrix()
    rows = []
    for i in range(3):
        rows.append(tuple(w[i]) + tuple(xp[i]))
    for i in range(3):
        rows.append(tuple(xp[i]) + tuple(-q for q in w[i]))
    return cdm.from_rows(rows)
