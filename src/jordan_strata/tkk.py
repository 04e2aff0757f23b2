"""Hermitian Lie algebras built from the rank-3 Jordan algebras.

Each of the four algebras is realized as g = J + str(J) + J on the real
(rational-base) Jordan algebra J, where str(J) is the exact operator span of
the multiplications L_x and their commutators.  The graded bracket is

    [T, u+]   = (T u)+
    [T, v-]   = -(T^ v)-          (^ = adjoint for the trace form)
    [u+, v-]  = 2 (L_{u o v} + [L_u, L_v])
    [T, S]    = T S - S T

and plus/plus, minus/minus brackets vanish.  The factor 2 in the mixed
bracket makes the distinguished central element

    z = (-1/2) 1+  +  (1/2) 1-

of k act on p with square -1 in exact rational arithmetic; with the unscaled
box operator that normalization would need sqrt(2).  The identification of p
with the complexified Jordan algebra sends (x, L_w, x) to w/2 + i x, and
ad(z) then corresponds to multiplication by i.

The invariant symmetric form is

    B((x,T,y), (x',T',y')) = <x,y'> + <y,x'> + tau(T,T')

with <,> the Jordan trace form and tau the pairing on str(J) determined by
tau(u box v, T) = <T u, v> / 2; it is ad-invariant, negative definite on k
and positive definite on p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .jordan import JordanElement, structure_tensor, trace_form
from .scalars import Scalar

CASES = ("sp3", "u33", "so12", "e7")
CASE_TO_ALGEBRA = {"sp3": "R", "u33": "C", "so12": "H", "e7": "O"}
ALGEBRA_TO_CASE = {v: k for k, v in CASE_TO_ALGEBRA.items()}


def jcoords(elt: JordanElement):
    """Rational coordinate vector of a real-form element."""
    if elt.gaussian:
        raise ValueError("operator layer works on the rational base")
    return tuple(c.re for c in elt.coords())


def from_jcoords(algebra: str, coords) -> JordanElement:
    return JordanElement.from_coords(algebra, [Scalar(c) for c in coords])


class JordanSpace:
    """Coordinate model of one real Jordan algebra: basis, the compiled
    product (``jordan.structure_tensor``), trace-form Gram and the matrices
    of left multiplications read off the product's structure constants."""

    def __init__(self, algebra: str):
        self.algebra = algebra
        self.basis = JordanElement.space_basis(algebra)
        self.dim = len(self.basis)
        self.product = structure_tensor(algebra)
        self.gram = tuple(
            tuple(trace_form(bi, bj).re for bj in self.basis) for bi in self.basis
        )
        self.unit = jcoords(JordanElement.identity(algebra))
        # L_{e_i} has entry (k, j) = c / den for each (k, c) in rows[i][j]
        den = self.product.den
        self._lmats = []
        self._lmats_sparse = []
        for row in self.product.rows:
            entries = sorted(
                (k, j, Fraction(c, den)) for j, cell in enumerate(row) for k, c in cell
            )
            mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
            for k, j, v in entries:
                mat[k][j] = v
            self._lmats.append(tuple(tuple(r) for r in mat))
            self._lmats_sparse.append(tuple(entries))

    def mul_coords(self, u, v):
        return self.product.mul_fractions(u, v)

    def lmat(self, w):
        """Matrix of L_w, accumulated sparsely from the basis multiplications."""
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, wi in enumerate(w):
            if not wi:
                continue
            for r, c, v in self._lmats_sparse[i]:
                rows[r][c] += wi * v
        return tuple(tuple(r) for r in rows)

    def adjoint(self, t):
        """Trace-form adjoint G^-1 T^t G (G is diagonal for this basis)."""
        g = [self.gram[i][i] for i in range(self.dim)]
        return tuple(
            tuple(t[j][i] * g[j] / g[i] for j in range(self.dim))
            for i in range(self.dim)
        )

    def pair(self, u, v):
        """Trace form on coordinate vectors."""
        acc = Fraction(0)
        for i in range(self.dim):
            gi = self.gram[i][i]
            if u[i] and v[i]:
                acc += u[i] * v[i] * gi
        return acc

    def box(self, u, v):
        """u box v = L_{u o v} + [L_u, L_v] as an operator matrix."""
        luv = self.lmat(self.mul_coords(u, v))
        lu, lv = self.lmat(u), self.lmat(v)
        return linalg.frac_add(luv, linalg.frac_commutator(lu, lv))


@lru_cache(maxsize=None)
def jordan_space(algebra: str) -> JordanSpace:
    return JordanSpace(algebra)


class StrBasisOp:
    """A selected structure-algebra basis operator with its provenance, which
    the invariant form's pairing recipe consumes."""

    __slots__ = ("matrix", "kind", "data")

    def __init__(self, matrix, kind, data):
        self.matrix = matrix
        self.kind = kind  # "L" (data = basis index) or "D" (data = index pair)
        self.data = data


class TKKElement:
    __slots__ = ("case", "plus", "mid", "minus")

    def __init__(self, case, plus: JordanElement, mid, minus: JordanElement):
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}")
        algebra = CASE_TO_ALGEBRA[case]
        if plus.algebra != algebra or minus.algebra != algebra:
            raise ValueError("component algebra does not match the case")
        if plus.gaussian or minus.gaussian:
            raise ValueError("TKK components live on the rational base")
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "mid", linalg.frac_mat(mid))
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):
        raise AttributeError("TKKElement is immutable")

    def __add__(self, other):
        if other.case != self.case:
            raise ValueError("case mismatch")
        return TKKElement(
            self.case,
            self.plus + other.plus,
            linalg.frac_add(self.mid, other.mid),
            self.minus + other.minus,
        )

    def __sub__(self, other):
        if other.case != self.case:
            raise ValueError("case mismatch")
        return TKKElement(
            self.case,
            self.plus - other.plus,
            linalg.frac_sub(self.mid, other.mid),
            self.minus - other.minus,
        )

    def __neg__(self):
        return TKKElement(self.case, -self.plus, linalg.frac_scale(self.mid, -1), -self.minus)

    def scale(self, c) -> "TKKElement":
        c = Fraction(c)
        return TKKElement(
            self.case,
            self.plus.scale(Scalar(c)),
            linalg.frac_scale(self.mid, c),
            self.minus.scale(Scalar(c)),
        )

    def is_zero(self) -> bool:
        return (
            self.plus.is_zero()
            and self.minus.is_zero()
            and all(not x for row in self.mid for x in row)
        )

    def __eq__(self, other):
        if not isinstance(other, TKKElement):
            return NotImplemented
        return (
            self.case == other.case
            and self.plus == other.plus
            and self.minus == other.minus
            and self.mid == other.mid
        )

    def __repr__(self):
        return f"TKKElement({self.case}, plus={self.plus!r}, minus={self.minus!r})"

    def to_json(self):
        return {
            "case": self.case,
            "plus": self.plus.to_json(),
            "mid": [[Scalar(x).to_json() for x in row] for row in self.mid],
            "minus": self.minus.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "TKKElement":
        mid = [[Scalar.from_json(x).re for x in row] for row in obj["mid"]]
        return TKKElement(
            obj["case"],
            JordanElement.from_json(obj["plus"]),
            mid,
            JordanElement.from_json(obj["minus"]),
        )


class TKKAlgebra:
    """One of the four case algebras, with exact bracket and invariant form."""

    def __init__(self, case: str):
        self.case = case
        self.algebra = CASE_TO_ALGEBRA[case]
        self.space = jordan_space(self.algebra)
        self._str_cols = None
        self._build_str_basis()
        self._gram = None

    # -- structure algebra ------------------------------------------------------

    def _build_str_basis(self):
        sp = self.space
        n = sp.dim
        ech = linalg._Echelon()
        ops = []

        def flat(m):
            return tuple(x for row in m for x in row)

        for i in range(n):
            m = sp._lmats[i]
            if ech.insert(flat(m)):
                ops.append(StrBasisOp(m, "L", i))
        for i in range(n):
            li = sp._lmats[i]
            for j in range(i + 1, n):
                m = linalg.frac_commutator(li, sp._lmats[j])
                if all(not x for row in m for x in row):
                    continue
                if ech.insert(flat(m)):
                    ops.append(StrBasisOp(m, "D", (i, j)))
        self.str_basis = ops
        self.str_dim = len(ops)
        self.dim = 2 * sp.dim + self.str_dim
        self._str_echelon = ech

    def str_coords(self, t):
        """Coordinates of an operator matrix in the selected str basis.

        The basis B is independent, so its echelon has one pivot column per
        operator and B restricted to the pivot columns P is invertible: a
        member t of the span has coordinates t[P] B[:, P]^-1.
        """
        ech = self._str_echelon
        if self._str_cols is None:
            n = self.space.dim
            b_p = [[op.matrix[p // n][p % n] for p in ech.pivots] for op in self.str_basis]
            # each column of B[:, P]^-1 as an integer row and its denominator
            self._str_cols = [linalg._int_row(col) for col in zip(*linalg._inverse_columns(b_p))]
        ti, den = linalg._int_row([x for row in t for x in row])
        if any(ech.reduce(ti)):
            raise ValueError("operator does not lie in the structure algebra")
        tp = [ti[p] for p in ech.pivots]
        return tuple(
            Fraction(sum(x * y for x, y in zip(tp, col)), den * cden)
            for col, cden in self._str_cols
        )

    # -- elements ---------------------------------------------------------------

    def zero(self) -> TKKElement:
        z = JordanElement.zero(self.algebra)
        n = self.space.dim
        return TKKElement(self.case, z, [[0] * n for _ in range(n)], z)

    def element(self, plus=None, mid=None, minus=None) -> TKKElement:
        z = JordanElement.zero(self.algebra)
        n = self.space.dim
        if mid is None:
            mid = [[0] * n for _ in range(n)]
        return TKKElement(self.case, plus or z, mid, minus or z)

    def grading_element(self) -> TKKElement:
        return self.element(mid=linalg.frac_mat([[1 if i == j else 0 for j in range(self.space.dim)] for i in range(self.space.dim)]))

    def basis(self):
        """plus basis, then str basis, then minus basis."""
        out = []
        for b in self.space.basis:
            out.append(self.element(plus=b))
        for op in self.str_basis:
            out.append(self.element(mid=op.matrix))
        for b in self.space.basis:
            out.append(self.element(minus=b))
        return out

    # -- bracket ------------------------------------------------------------------

    def left_mul(self, x: JordanElement):
        return self.space.lmat(jcoords(x))

    def box(self, x: JordanElement, y: JordanElement):
        return self.space.box(jcoords(x), jcoords(y))

    def bracket(self, a: TKKElement, b: TKKElement) -> TKKElement:
        if a.case != self.case or b.case != self.case:
            raise ValueError("case mismatch")
        sp = self.space
        xa, ya = jcoords(a.plus), jcoords(a.minus)
        xb, yb = jcoords(b.plus), jcoords(b.minus)
        ta, tb = a.mid, b.mid

        plus = tuple(
            p - q for p, q in zip(linalg.frac_vec(ta, xb), linalg.frac_vec(tb, xa))
        )
        minus = tuple(
            p - q
            for p, q in zip(
                linalg.frac_vec(sp.adjoint(tb), ya), linalg.frac_vec(sp.adjoint(ta), yb)
            )
        )
        mid = linalg.frac_commutator(ta, tb)
        if any(xa) and any(yb):
            mid = linalg.frac_add(mid, linalg.frac_scale(sp.box(xa, yb), 2))
        if any(xb) and any(ya):
            mid = linalg.frac_sub(mid, linalg.frac_scale(sp.box(xb, ya), 2))
        return TKKElement(
            self.case,
            from_jcoords(self.algebra, plus),
            mid,
            from_jcoords(self.algebra, minus),
        )

    # -- Cartan data ----------------------------------------------------------------

    def theta(self, a: TKKElement) -> TKKElement:
        return TKKElement(
            self.case,
            -a.minus,
            linalg.frac_scale(self.space.adjoint(a.mid), -1),
            -a.plus,
        )

    def k_basis(self):
        out = []
        for b in self.space.basis:
            out.append(TKKElement(self.case, b, self._zero_mid(), -b))
        for op in self.str_basis:
            if op.kind == "D":
                out.append(self.element(mid=op.matrix))
        return out

    def p_basis(self):
        out = []
        for b in self.space.basis:
            out.append(TKKElement(self.case, b, self._zero_mid(), b))
        for op in self.str_basis:
            if op.kind == "L":
                out.append(self.element(mid=op.matrix))
        return out

    def cartan_split(self):
        """(basis of k, basis of p) for the involution (x,T,y) -> (-y,-T^,-x)."""
        return self.k_basis(), self.p_basis()

    def _zero_mid(self):
        n = self.space.dim
        return [[0] * n for _ in range(n)]

    def h_element(self) -> TKKElement:
        """The central element of k acting on p as a complex structure.

        The center of k is one-dimensional, so up to sign this is the only
        candidate; the normalization 1/2 gives ad(z)^2 = -1 on p exactly, and
        the sign is the one matching the p -> complexified-J identification.
        """
        unit = JordanElement.identity(self.algebra)
        half = Scalar(Fraction(1, 2))
        return TKKElement(
            self.case,
            (-unit).scale(half),
            self._zero_mid(),
            unit.scale(half),
        )

    # -- p <-> complexified Jordan algebra --------------------------------------------

    def p_to_complexified(self, a: TKKElement) -> JordanElement:
        """(x, L_w, x) -> w/2 + i x; requires a p-type element."""
        if a.plus != a.minus:
            raise ValueError("element is not in p")
        w = linalg.frac_vec(a.mid, self.space.unit)
        if self.space.lmat(w) != a.mid:
            raise ValueError("mid part of a p-element must be a left multiplication")
        re_part = from_jcoords(self.algebra, [c / 2 for c in w])
        return JordanElement.combine_real_imag(re_part, a.plus)

    def complexified_to_p(self, xc: JordanElement) -> TKKElement:
        re_part, im_part = xc.split_real_imag()
        w = tuple(2 * c for c in jcoords(re_part))
        return TKKElement(self.case, im_part, self.space.lmat(w), im_part)

    # -- invariant form -------------------------------------------------------------

    def _tau_against_basis(self, t, op: StrBasisOp) -> Fraction:
        # The provenance data are basis indices and the trace-form Gram is
        # diagonal, so both recipes reduce to a handful of matrix entries:
        #   tau(T, L_{b_i})        = <T b_i, 1>/2
        #   tau(T, [L_{b_i},L_{b_j}]) = (<T b_i, b_j> - <T b_j, b_i>)/4
        g = self.space.gram
        if op.kind == "L":
            i = op.data
            return (t[0][i] + t[1][i] + t[2][i]) / 2
        i, j = op.data
        return (g[j][j] * t[j][i] - g[i][i] * t[i][j]) / 4

    def tau(self, t, s) -> Fraction:
        coords = self.str_coords(s)
        acc = Fraction(0)
        for c, op in zip(coords, self.str_basis):
            if c:
                acc += c * self._tau_against_basis(t, op)
        return acc

    def invariant_form(self, a: TKKElement, b: TKKElement) -> Fraction:
        if a.case != self.case or b.case != self.case:
            raise ValueError("case mismatch")
        sp = self.space
        acc = sp.pair(jcoords(a.plus), jcoords(b.minus))
        acc += sp.pair(jcoords(a.minus), jcoords(b.plus))
        acc += self.tau(a.mid, b.mid)
        return acc

    def gram_matrix(self):
        """Gram of the invariant form on the standard basis (cached).

        Only the plus/minus cross block and the mid/mid block are nonzero;
        mid pairings go through the provenance recipe, no solve needed.
        """
        if self._gram is not None:
            return self._gram
        sp = self.space
        nj, ns = sp.dim, self.str_dim
        dim = self.dim
        g = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(nj):
            for j in range(nj):
                val = sp.gram[i][j]
                g[i][nj + ns + j] = val
                g[nj + ns + i][j] = val
        for a in range(ns):
            for b in range(ns):
                g[nj + a][nj + b] = self._tau_against_basis(
                    self.str_basis[a].matrix, self.str_basis[b]
                )
        self._gram = tuple(tuple(r) for r in g)
        return self._gram

    def coords_in_basis(self, a: TKKElement):
        """Coordinates of an element in the plus/str/minus standard basis."""
        return (
            tuple(jcoords(a.plus))
            + tuple(self.str_coords(a.mid))
            + tuple(jcoords(a.minus))
        )

    def from_coords(self, coords) -> TKKElement:
        sp = self.space
        nj, ns = sp.dim, self.str_dim
        plus = from_jcoords(self.algebra, coords[:nj])
        minus = from_jcoords(self.algebra, coords[nj + ns :])
        mid = None
        for c, op in zip(coords[nj : nj + ns], self.str_basis):
            if c:
                term = linalg.frac_scale(op.matrix, c)
                mid = term if mid is None else linalg.frac_add(mid, term)
        if mid is None:
            mid = self._zero_mid()
        return TKKElement(self.case, plus, mid, minus)

    def form_against_basis(self, a: TKKElement):
        """Row of invariant-form pairings of ``a`` with the standard basis.

        Cheap path used by the Poisson-rank computation: basis mid elements
        carry provenance, so no structure-algebra solve is needed.
        """
        sp = self.space
        xa, ya = jcoords(a.plus), jcoords(a.minus)
        row = []
        for b in sp.basis:
            row.append(sp.pair(ya, jcoords(b)))
        for op in self.str_basis:
            row.append(self._tau_against_basis(a.mid, op))
        for b in sp.basis:
            row.append(sp.pair(xa, jcoords(b)))
        return tuple(row)


@lru_cache(maxsize=None)
def tkk_algebra(case: str) -> TKKAlgebra:
    return TKKAlgebra(case)
