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

An element is one integer vector over one denominator, the bilinear
engine's operand format (``scalars.IntVector``), laid out as plus | str |
minus: Jordan coordinates, coordinates in the selected basis B_k of str(J),
Jordan coordinates.  The first n = dim J
operators B_k are L_{e_0}..L_{e_{n-1}}, so L_w has coordinates w in this
"L block"; the rest (the "D block") are the independent commutators
[L_{e_i}, L_{e_j}] in order.  An operator known to lie in str(J) has
coordinates t[P] B[:, P]^-1, P the pivots of the basis echelon, with
B[:, P]^-1 the integer rows over one denominator of ``linalg``'s echelon.
The structure constants of [b_i, b_j] = sum_k c_ij^k b_k are built once, in
integers, from M[i][j], the coordinates of [L_{e_i}, L_{e_j}], and the
operator entries: each [L_x, L_y] is a derivation D, and [D, L_x] = L_{Dx}
(Jacobson, Structure and Representations of Jordan Algebras, 1968), so
[L_{e_a}, D] = -L_{D e_a} and, for D = [L_{e_c}, L_{e_d}], [D', D] =
sum_r D'_rc M[r][d] + D'_rd M[c][r].  ``bilinear.Bilinear`` holds the table,
and every bracket is one contraction of it on the stored integers,
normalized once.

The invariant symmetric form is

    B((x,T,y), (x',T',y')) = <x,y'> + <y,x'> + tau(T,T')

with <,> the Jordan trace form and tau the pairing on str(J) determined by
tau(u box v, T) = <T u, v> / 2; it is ad-invariant, negative definite on k
and positive definite on p.  Its sparse Gram is computed once, so the form is
a contraction too.  The Cartan involution (x, T, y) -> (-y, -T^, -x) keeps the
skew-adjoint D block and negates the self-adjoint L block.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import NamedTuple

from . import linalg
from .bilinear import Bilinear
from .jordan import JordanElement, structure_tensor, trace_form
from .scalars import IntVector, _int_row, json_rational, rational_to_json

CASE_TO_ALGEBRA = {"sp3": "R", "u33": "C", "so12": "H", "e7": "O"}
CASES = tuple(CASE_TO_ALGEBRA)
ALGEBRA_TO_CASE = {v: k for k, v in CASE_TO_ALGEBRA.items()}


# Operators on J are kept sparse: a tuple of rows, each a {column: entry} dict.


def _commutator(a, b):
    """AB - BA for two sparse operators."""
    out = []
    for ra, rb in zip(a, b):
        acc = {}
        for m, x in ra.items():
            for c, y in b[m].items():
                acc[c] = acc.get(c, 0) + x * y
        for m, x in rb.items():
            for c, y in a[m].items():
                acc[c] = acc.get(c, 0) - x * y
        out.append({c: v for c, v in acc.items() if v})
    return tuple(out)


class JordanSpace:
    """Coordinate model of one real Jordan algebra: basis, the compiled
    product (``jordan.structure_tensor``), the diagonal trace-form Gram and
    the left multiplications L_{e_i} read off the product's ``left`` as
    sparse integer operators (den * L_{e_i}, den the product's)."""

    def __init__(self, algebra: str):
        self.basis = JordanElement.space_basis(algebra)
        self.dim = len(self.basis)
        self.product = structure_tensor(algebra)
        # the standard basis is trace-form orthogonal, with norms 1 and 2
        self.gram = tuple(int(trace_form(b, b).re) for b in self.basis)
        units = ([int(k == i) for k in range(self.dim)] for i in range(self.dim))
        self.lops = [tuple({j: c for j, c in enumerate(row) if c} for row in self.product.left(e))
                     for e in units]


class StrBasisOp(NamedTuple):
    """A selected structure-algebra basis operator, rows / den with integer
    sparse rows, and its provenance, which the Lie table and the invariant
    form's pairing recipe consume."""

    rows: tuple
    den: int
    kind: str  # "L" (data = basis index) or "D" (data = index pair)
    data: object


class TKKElement(IntVector):
    """An element of a case algebra, stored as ``v / den``
    (``scalars.IntVector``, whose ``tag`` is the case; always over Q) in the
    standard basis, plus | str | minus; ``plus``, ``mid`` and ``minus`` are
    read back from it."""

    __slots__ = ()
    case = IntVector.tag  # the tag slot itself, read as fast as any slot

    def __new__(cls, case, plus: JordanElement, mid, minus: JordanElement):
        """``mid`` is an operator matrix in str(J), or None for zero."""
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}")
        algebra = CASE_TO_ALGEBRA[case]
        if plus.algebra != algebra or minus.algebra != algebra:
            raise ValueError("component algebra does not match the case")
        if plus.gaussian or minus.gaussian:
            raise ValueError("operator layer works on the rational base")
        alg = tkk_algebra(case)
        mv, md = alg._str_ints(mid) if mid is not None else ((0,) * alg.str_dim, 1)
        den = lcm(plus.den, md, minus.den)
        v = [c * (den // plus.den) for c in plus.v] + [c * (den // md) for c in mv]
        return cls._of(case, False, v + [c * (den // minus.den) for c in minus.v], den)

    def complexify(self):
        """Refused: the case algebras are real forms, so ``gaussian`` stays
        False; p meets the complexified Jordan algebra through
        ``TKKAlgebra.p_to_complexified``."""
        raise TypeError("a TKKElement has no complexification")

    @property
    def coords(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.v)

    def _jordan(self, lo, hi) -> JordanElement:
        return JordanElement._of(CASE_TO_ALGEBRA[self.case], False, self.v[lo:hi], self.den)

    @property
    def plus(self) -> JordanElement:
        return self._jordan(0, tkk_algebra(self.case).space.dim)

    @property
    def mid(self):
        """The operator matrix sum c_k B_k."""
        alg = tkk_algebra(self.case)
        n = alg.space.dim
        acc = [[Fraction(0)] * n for _ in range(n)]
        for c, op in zip(self.v[n:], alg.str_basis):
            if c:
                f = Fraction(c, self.den * op.den)
                for r, row in enumerate(op.rows):
                    for k, x in row.items():
                        acc[r][k] += f * x
        return tuple(tuple(r) for r in acc)

    @property
    def minus(self) -> JordanElement:
        return self._jordan(-tkk_algebra(self.case).space.dim, None)

    def __repr__(self):
        return f"TKKElement({self.case}, plus={self.plus!r}, minus={self.minus!r})"

    def to_json(self):
        return {
            "case": self.case,
            "plus": self.plus.to_json(),
            "mid": [[rational_to_json(x) for x in row] for row in self.mid],
            "minus": self.minus.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "TKKElement":
        mid = [[json_rational(x) for x in row] for row in obj["mid"]]
        return TKKElement(
            obj["case"],
            JordanElement.from_json(obj["plus"]),
            mid,
            JordanElement.from_json(obj["minus"]),
        )


class TKKAlgebra:
    """One of the four case algebras: the str(J) basis, the Lie structure
    constants compiled once (``lie``), and the sparse Gram matrix of the
    invariant form."""

    def __init__(self, case: str):
        self.case = case
        self.algebra = CASE_TO_ALGEBRA[case]
        self.space = JordanSpace(self.algebra)
        self._build_lie(self._build_str_basis())
        self._build_gram()

    # -- structure algebra ------------------------------------------------------

    def _build_str_basis(self):
        """Select the str basis B; return M, the str coordinates of every
        [L_{e_i}, L_{e_j}] as sparse integer rows over den^2 ``_inv_den``."""
        sp = self.space
        n, den = sp.dim, sp.product.den
        ech = linalg._Echelon()

        def flat(op):
            return [row.get(c, 0) for row in op for c in range(n)]

        # L is injective (L_x 1 = x), so every L_{e_i} enters the basis
        ops = []
        for i, op in enumerate(sp.lops):
            ech.insert(flat(op))
            ops.append(StrBasisOp(op, den, "L", i))
        comms = []
        for i in range(n):
            for j in range(i + 1, n):
                op = _commutator(sp.lops[i], sp.lops[j])
                comms.append((i, j, op))
                if any(op) and ech.insert(flat(op)):
                    ops.append(StrBasisOp(op, den * den, "D", (i, j)))
        self.str_basis = ops
        self.str_dim = s = len(ops)
        self.dim = 2 * n + s
        self._str_echelon = ech
        # B is independent, so B[:, P], row k b_p[k] / ops[k].den, is invertible;
        # keep its inverse as integer rows over one denominator
        self._pivots = [divmod(p, n) for p in ech.pivots]
        b_p = [[op.rows[r].get(c, 0) for r, c in self._pivots] for op in ops]
        self._inv_rows, self._inv_den = linalg._inverse_columns(b_p, 1, [op.den for op in ops])
        m = [[()] * n for _ in range(n)]
        for i, j, op in comms:
            acc = self._pivot_coords([op[r].get(c, 0) for r, c in self._pivots], 1)[0]
            m[i][j] = [(k, v) for k, v in enumerate(acc) if v]
            m[j][i] = [(k, -v) for k, v in m[i][j]]
        return m

    def _pivot_coords(self, tp, den):
        """(v, d) with v / d the str coordinates t[P] B[:, P]^-1 of the member
        T of str(J) whose pivot entries are tp / den; v is an integer list."""
        acc = [0] * self.str_dim
        for x, row in zip(tp, self._inv_rows):
            if x:
                for k, y in enumerate(row):
                    acc[k] += x * y
        return acc, den * self._inv_den

    def _str_ints(self, t):
        """(v, d) with v / d the coordinates of the n x n operator matrix t in
        the selected str basis; ValueError when t has another shape or does
        not lie in str(J)."""
        n = self.space.dim
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError(f"an operator on J is a {n}x{n} matrix")
        ti, den = _int_row([Fraction(x) for row in t for x in row])
        if any(self._str_echelon.reduce(ti)):
            raise ValueError("operator does not lie in the structure algebra")
        return self._pivot_coords([ti[r * n + c] for r, c in self._pivots], den)

    def _build_lie(self, m):
        """Compile the Lie structure constants from M (``_build_str_basis``)
        and the operator entries by the rules in the module docstring, as
        integer rows over one denominator in lowest terms."""
        sp, ops = self.space, self.str_basis
        n, s, p2, g = sp.dim, self.str_dim, sp.product.den ** 2, sp.gram
        gl, dm = lcm(*g), p2 * self._inv_den
        den, fm = dm * p2 * gl, p2 * gl  # M is over dm, D ops over p2, g ratios over gl
        cells = []  # (i, j, den [b_i, b_j]); [b_j, b_i] is its negative
        for a, op in enumerate(ops):
            rows, f = op.rows, den // op.den
            for j in range(n):
                # [B, e_j+] = (B e_j)+ and [B, e_j-] = -(B^ e_j)-, B^ = G^-1 B^t G
                cells.append((n + a, j, [(r, x[j] * f) for r, x in enumerate(rows) if j in x]))
                fj = -f // gl * g[j]
                cells.append((n + a, n + s + j,
                    [(n + s + i, v * fj * (gl // g[i])) for i, v in sorted(rows[j].items())]))
            for b in range(a + 1, s):
                if b < n:  # [L_a, L_b] = M[a][b]
                    cell = [(n + k, v * fm) for k, v in m[a][b]]
                elif a < n:  # [L_a, D] = -L_{D e_a}
                    fb = den // ops[b].den
                    cell = [(n + k, -x[a] * fb) for k, x in enumerate(ops[b].rows) if a in x]
                else:  # [D, [L_c, L_d]] = sum_r D_rc M[r][d] + D_rd M[c][r]
                    c, d = ops[b].data
                    acc = {}
                    for r, x in enumerate(rows):
                        for y, mv in ((x.get(c), m[r][d]), (x.get(d), m[c][r])):
                            for k, v in mv if y else ():
                                acc[k] = acc.get(k, 0) + y * v
                    cell = [(n + k, acc[k] * gl) for k in sorted(acc) if acc[k]]
                cells.append((n + a, n + b, cell))
        pf = den // sp.product.den
        for i in range(n):
            for j in range(n):
                # [e_i+, e_j-] = 2 (L_{e_i o e_j} + [L_{e_i}, L_{e_j}]); M has no
                # L block, as a derivation D kills 1 and L_x 1 = x
                vec = [(n + k, 2 * v * fm) for k, v in m[i][j]]
                vec += [(n + k, 2 * c * pf) for k, c in sp.product.rows[i][j]]
                cells.append((i, n + s + j, vec))
        h = gcd(den, *[c for _, _, cell in cells for _, c in cell])
        table = [[()] * self.dim for _ in range(self.dim)]
        for i, j, cell in cells:
            table[i][j] = tuple((k, c // h) for k, c in cell)
            table[j][i] = tuple((k, -c // h) for k, c in cell)
        self.lie = Bilinear(table, den // h)

    def _build_gram(self):
        """Sparse Gram of the invariant form on the standard basis, as
        integer rows over one denominator in lowest terms.

        Only the plus/minus cross block and the str/str block are nonzero.
        The str pairings follow the provenance recipe (the trace-form Gram is
        diagonal, so each is a handful of matrix entries):
            tau(T, L_{e_i})           = <T e_i, 1>/2
            tau(T, [L_{e_i},L_{e_j}]) = (<T e_i, e_j> - <T e_j, e_i>)/4
        """
        sp = self.space
        n, s, p2, g = sp.dim, self.str_dim, sp.product.den ** 2, sp.gram
        rows = [[] for _ in range(self.dim)]
        for i in range(n):
            rows[i].append((n + s + i, 4 * p2 * g[i]))
            rows[n + s + i].append((i, 4 * p2 * g[i]))
        for a, t in enumerate(self.str_basis):
            f = p2 // t.den
            for b, op in enumerate(self.str_basis):
                if op.kind == "L":  # 1 = e_0 + e_1 + e_2, each of norm 1
                    val = 2 * f * sum(t.rows[r].get(op.data, 0) for r in range(3))
                else:
                    i, j = op.data
                    val = f * (g[j] * t.rows[j].get(i, 0) - g[i] * t.rows[i].get(j, 0))
                if val:
                    rows[n + a].append((n + b, val))
        h = gcd(4 * p2, *[v for row in rows for _, v in row])
        self.gram_den = 4 * p2 // h
        self.gram_rows = tuple(tuple((j, v // h) for j, v in row) for row in rows)

    # -- elements ---------------------------------------------------------------

    def _vec(self, *entries) -> TKKElement:
        """The element with integer coordinates c at the (k, c) in entries."""
        v = [0] * self.dim
        for k, c in entries:
            v[k] = c
        return TKKElement._canonical(self.case, False, v, 1)

    def element(self, plus=None, mid=None, minus=None) -> TKKElement:
        z = JordanElement.zero(self.algebra)
        return TKKElement(self.case, plus or z, mid, minus or z)

    def lmul_element(self, w: JordanElement) -> TKKElement:
        """The element L_w of str(J): coordinates w in the L block."""
        if w.gaussian:
            raise ValueError("operator layer works on the rational base")
        n = self.space.dim
        v = [0] * n + list(w.v) + [0] * (self.dim - 2 * n)
        return TKKElement._canonical(self.case, False, v, w.den)

    def grading_element(self) -> TKKElement:
        return self.lmul_element(JordanElement.identity(self.algebra))

    def basis(self):
        """plus basis, then str basis, then minus basis."""
        return [self._vec((k, 1)) for k in range(self.dim)]

    # -- bracket ------------------------------------------------------------------

    def bracket(self, a: TKKElement, b: TKKElement) -> TKKElement:
        if a.case != self.case or b.case != self.case:
            raise ValueError("case mismatch")
        den = a.den * b.den * self.lie.den
        return TKKElement._of(self.case, False, self.lie.contract(a.v, b.v), den)

    # -- Cartan data ----------------------------------------------------------------

    def theta(self, a: TKKElement) -> TKKElement:
        n, s, v = self.space.dim, self.str_dim, a.v
        out = [-x for x in v[n + s :] + v[n : 2 * n]] + list(v[2 * n : n + s])
        return TKKElement._canonical(self.case, False, out + [-x for x in v[:n]], a.den)

    def k_basis(self):
        n, s = self.space.dim, self.str_dim
        out = [self._vec((i, 1), (n + s + i, -1)) for i in range(n)]
        return out + [self._vec((n + k, 1)) for k in range(n, s)]

    def p_basis(self):
        n, s = self.space.dim, self.str_dim
        out = [self._vec((i, 1), (n + s + i, 1)) for i in range(n)]
        return out + [self._vec((n + k, 1)) for k in range(n)]

    def h_element(self) -> TKKElement:
        """The central element of k acting on p as a complex structure.

        The center of k is one-dimensional, so up to sign this is the only
        candidate; the normalization 1/2 gives ad(z)^2 = -1 on p exactly, and
        the sign is the one matching the p -> complexified-J identification.
        """
        unit = JordanElement.identity(self.algebra).v
        v = [-c for c in unit] + [0] * self.str_dim + list(unit)
        return TKKElement._of(self.case, False, v, 2)

    # -- p <-> complexified Jordan algebra --------------------------------------------

    def p_to_complexified(self, a: TKKElement) -> JordanElement:
        """(x, L_w, x) -> w/2 + i x; requires a p-type element."""
        n, s, v = self.space.dim, self.str_dim, a.v
        if v[:n] != v[n + s :]:
            raise ValueError("element is not in p")
        if any(v[2 * n : n + s]):
            raise ValueError("mid part of a p-element must be a left multiplication")
        return JordanElement._of(
            self.algebra, True, v[n : 2 * n] + tuple(2 * c for c in v[:n]), 2 * a.den
        )

    def complexified_to_p(self, xc: JordanElement) -> TKKElement:
        """w + i x -> (x, L_{2w}, x), the inverse of ``p_to_complexified``."""
        if xc.algebra != self.algebra or not xc.gaussian:
            raise ValueError("need a complexified element of the case's Jordan algebra")
        n = self.space.dim
        w, x = xc.v[:n], list(xc.v[n:])
        v = x + [2 * c for c in w] + [0] * (self.str_dim - n) + x
        return TKKElement._of(self.case, False, v, xc.den)

    # -- invariant form -------------------------------------------------------------

    def _gram_times(self, a: TKKElement):
        """(v, den) with G a = v / den and v an integer vector."""
        acc = [0] * self.dim
        for x, row in zip(a.v, self.gram_rows):
            if x:
                for j, g in row:
                    acc[j] += x * g
        return acc, a.den * self.gram_den

    def invariant_form(self, a: TKKElement, b: TKKElement) -> Fraction:
        if a.case != self.case or b.case != self.case:
            raise ValueError("case mismatch")
        ga, den = self._gram_times(a)
        return Fraction(sum(x * y for x, y in zip(ga, b.v)), den * b.den)

    def form_against_basis(self, a: TKKElement):
        """Row of invariant-form pairings of ``a`` with the standard basis: G a."""
        ga, den = self._gram_times(a)
        return tuple(Fraction(v, den) for v in ga)

    @cached_property
    def form_definite(self) -> bool:
        """Whether the form is negative definite on k and positive definite
        on p: Sylvester's criterion on the Bareiss leading minors, computed on
        first use."""

        def minors(basis):
            # K[a][b] = (G v_a).v_b is the Gram up to a positive diagonal congruence
            cols = [[(j, x) for j, x in enumerate(b.v) if x] for b in basis]
            gram = [
                [sum(ga[j] * x for j, x in sb) for sb in cols]
                for ga, _ in map(self._gram_times, basis)
            ]
            return linalg.leading_minors(gram)

        negative_k = all((-1) ** i * d > 0 for i, d in enumerate(minors(self.k_basis()), 1))
        return negative_k and all(d > 0 for d in minors(self.p_basis()))

    def gram_matrix(self):
        """Gram of the invariant form on the standard basis, as a dense matrix."""
        g = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, row in enumerate(self.gram_rows):
            for j, v in row:
                g[i][j] = Fraction(v, self.gram_den)
        return tuple(tuple(r) for r in g)

    def from_coords(self, coords) -> TKKElement:
        """The element with the rational coordinates ``coords``, dim of them."""
        if len(coords) != self.dim:
            raise ValueError(f"case {self.case} needs {self.dim} coordinates")
        v, den = _int_row([Fraction(c) for c in coords])
        return TKKElement._canonical(self.case, False, v, den)


@lru_cache(maxsize=None)
def tkk_algebra(case: str) -> TKKAlgebra:
    return TKKAlgebra(case)
