"""Lie-Poisson structure on the case algebras and the Poisson-rank detector.

Polynomials live on a case algebra through the coordinates x_a of its
standard basis.  The bracket is one contraction against the coordinate
brackets P_ab = {x_a, x_b}, computed once per algebra:

    {f, g} = sum_{a<b} (d_a f d_b g - d_b f d_a g) P_ab.

With G the Gram of the invariant form, x_a = form(u_a, .) for u_a = G^-1 e_a
(G^-1 read as integer rows over one denominator off the integer echelon of
``linalg``), and invariance gives P_ab(x) = form([x, u_a], u_b) = ([x, u_a])_b,
that is

    P_ab(x) = sum_{j,m} (G^-1)_aj c_mj^b x_m

with c the Lie structure constants.  Linear functions bracket to the linear
function of the Lie bracket of their dual vectors, and the quadratic
form(x, x) is a Casimir.

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
from math import gcd, lcm

from . import cdmatrix as cdm
from . import linalg
from .cayley_dickson import CDNumber, unit_product
from .jordan import JordanElement
from .reduction import CASE_LEVEL
from .tkk import ALGEBRA_TO_CASE, TKKAlgebra, TKKElement, tkk_algebra


class PolyFn:
    """Sparse polynomial on a case algebra in basis coordinates.

    Terms map a monomial to a nonzero rational coefficient.  A monomial is the
    sorted tuple of its variable indices, so x_0^2 x_3 is (0, 0, 3) and the
    empty tuple is the constant term.
    """

    __slots__ = ("case", "dim", "terms")

    def __init__(self, case, dim, terms=None):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {k: c for k, c in (terms or {}).items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("PolyFn is immutable")

    @staticmethod
    def coordinate(case, dim, i):
        return PolyFn(case, dim, {(i,): Fraction(1)})

    @staticmethod
    def linear(case, dim, coeffs):
        return PolyFn(case, dim, {(i,): Fraction(c) for i, c in enumerate(coeffs)})

    def _check(self, other):
        if self.case != other.case or self.dim != other.dim:
            raise ValueError("polynomials live on different algebras")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return PolyFn(self.case, self.dim, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return PolyFn(self.case, self.dim, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        return PolyFn(self.case, self.dim, _mul_into({}, self.terms, other.terms))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyFn):
            return NotImplemented
        return self.case == other.case and self.terms == other.terms

    def __repr__(self):
        return f"PolyFn({self.case}, {len(self.terms)} terms)"


def _mul_into(acc, p, q):
    """acc += p q for polynomials given as {monomial: coefficient} dicts."""
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = tuple(sorted(k1 + k2))
            acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def _scaled_partials(f: PolyFn):
    """(den, d) with den the least common denominator of f's coefficients and
    d[a] the partial of den * f in x_a, as {monomial: nonzero int}."""
    den = lcm(*[c.denominator for c in f.terms.values()])
    out = {}
    for key, c in f.terms.items():
        n = c.numerator * (den // c.denominator)
        # removing one x_a from distinct monomials leaves distinct monomials
        for a in set(key):
            j = key.index(a)
            out.setdefault(a, {})[key[:j] + key[j + 1 :]] = n * key.count(a)
    return den, out


class CasePoisson:
    """Cached bracket data for one case algebra."""

    def __init__(self, case):
        self.case = case
        self.alg: TKKAlgebra = tkk_algebra(case)
        self.dim = self.alg.dim
        self._bivector_polys = None

    def bivector_polys(self):
        """The coordinate brackets P_ab(x) = {x_a, x_b} for a < b, as (den,
        table): ``table[(a, b)]`` lists the (m, p) with P_ab = sum (p / den) x_m
        and p a nonzero integer, den and the p in lowest terms.

        P_ab(x) = sum_{j,m} (G^-1)_aj c_mj^b x_m, one pass over the structure
        constants c of ``alg.lie`` and the few nonzeros of G^-1.
        """
        if self._bivector_polys is not None:
            return self._bivector_polys
        alg, n = self.alg, self.dim
        gram = [[d.get(j, 0) for j in range(n)] for d in map(dict, alg.gram_rows)]
        # G = gram / gram_den and G^-1 = inv / inv_den, symmetric, which h takes to
        # lowest terms; row j lists the (a, (G^-1)_aj)
        inv, inv_den = linalg._inverse_columns(gram, 1, [alg.gram_den] * n)
        h = gcd(inv_den, *[x for row in inv for x in row])
        ginv = [[(a, v // h) for a, v in enumerate(row) if v] for row in inv]
        acc = {}
        for m, row in enumerate(alg.lie.rows):
            for j, cell in enumerate(row):
                for b, c in cell:
                    for a, g in ginv[j]:
                        if a < b:
                            form = acc.setdefault((a, b), {})
                            form[m] = form.get(m, 0) + g * c
        # one division by their common factor puts den and the p in lowest terms
        den = alg.lie.den * inv_den // h
        cf = gcd(den, *[p for f in acc.values() for p in f.values()])
        table = {ab: tuple((m, p // cf) for m, p in sorted(f.items()) if p) for ab, f in acc.items()}
        self._bivector_polys = (den // cf, {k: t for k, t in table.items() if t})
        return self._bivector_polys

    def bracket(self, f: PolyFn, g: PolyFn) -> PolyFn:
        """{f, g} = sum_{a<b} (d_a f d_b g - d_b f d_a g) P_ab, contracted in
        integers as sum_a d_a f h_a with h_a = sum_b P_ab d_b g (P_ba = -P_ab),
        then divided once by the product of the three denominators."""
        pden, table = self.bivector_polys()
        fden, df = _scaled_partials(f)
        gden, dg = _scaled_partials(g)
        h = {}
        for (a, b), form in table.items():
            for r, s, sign in ((a, b, 1), (b, a, -1)):
                if r in df and s in dg:
                    _mul_into(h.setdefault(r, {}), {(m,): sign * p for m, p in form}, dg[s])
        acc = {}
        for a, ha in h.items():
            _mul_into(acc, df[a], ha)
        den = pden * fden * gden
        return PolyFn(self.case, self.dim, {k: Fraction(v, den) for k, v in acc.items()})

    def casimir(self) -> PolyFn:
        """form(x, x) = sum_ij G_ij x_i x_j."""
        alg, terms = self.alg, {}
        for i, row in enumerate(alg.gram_rows):
            for j, v in row:
                key = (i, j) if i <= j else (j, i)
                terms[key] = terms.get(key, 0) + Fraction(v, alg.gram_den)
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
                k = next(i for i, x in enumerate(v.v) if x)
                sgn = 1 if v.v[k] > 0 else -1
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
    if any(q.gaussian for row in m for q in row):
        raise ValueError("matrix-model elements live on the rational base")
    sparse = _sparse_g_basis(case)
    level = CASE_LEVEL[case]
    width = 1 << level
    n = len(m)
    den = lcm(*(q.den for row in m for q in row))
    m_int = [[[x * (den // q.den) for x in q.v] for q in row] for row in m]
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
    return linalg.skew_rank(rows)


def matrix_p_element(xc: JordanElement):
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
