"""Exact elimination over Q and Q(i): ranks, solutions, inverses and kernels.

Matrices are tuples of row-tuples and everything is exact.  The row
reductions of the routes -- rank, solve, inverse and kernel here, the
str(J) basis and inverse of ``tkk``, the Gram inverse of ``poisson`` and the
route bivector rank ``poisson_rank_at`` -- go through one fraction-free
echelon (``_Echelon``) that takes integer rows and gives integers back, an
inverse as integer rows over one denominator.  A Scalar matrix reaches it as
the integer block rows of ``cayley_dickson.block_row``, each row over its
own lcm (a row scaling leaves the RREF as it is).  Over Q(i) they are the
rows of the interleaved realification, the L of the level-0 table,

    rho: a + bi -> [[a, -b], [b, a]],

an injective ring map, so RREF(rho A) = rho(RREF A) and every result over
Q(i) is read off the even columns of a rational one.  ``inverse`` serves the
CDNumber matrices of ``cdmatrix`` too.  ``frac_rank`` and ``skew_rank`` are
the only entry points that clear rational rows, with ``scalars._int_row``.
The two skew rank oracles, ``poisson_rank_at_matrix`` and the H model of
``jordan.matrix_model_rank``, rank through ``skew_rank``, a 2x2-pivot
elimination that shares no step with the echelon.  The cofactor
``determinant``, ``congruent_diagonal`` and the Bareiss ``leading_minors``
stay independent of both; the first two are the only functions here with
``Scalar`` arithmetic.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, lcm

from .cayley_dickson import block_row
from .scalars import Scalar, _int_row


def frac_rank(rows) -> int:
    """Rank of a rational (Fraction or int entry) matrix; each row is cleared
    of its denominators first, which leaves the rank as it is."""
    ech = _Echelon()
    for row in rows:
        ech.insert(_int_row(row)[0])
    return len(ech.pivots)


def skew_rank(rows) -> int:
    """Rank of a skew-symmetric rational (Fraction or int entry) matrix.

    Bunch's 2x2-pivot elimination (Math. Comp. 38, 1982), kept in integers:
    for a pivot a = A_pq != 0 the Schur complement S of the block on {p, q}
    is skew again, with a S_ij = a A_ij + A_qi A_pj - A_pi A_qj, and
    rank A = 2 + rank S.  Only the upper triangle is stored, u[i][j - i - 1]
    = A_ij for j > i, and each complement is divided by the gcd of its
    entries.  Raises ValueError unless the matrix is square and skew.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("not a square matrix")
    if any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("not a skew-symmetric matrix")
    flat = _int_row([x for i, row in enumerate(rows) for x in row[i + 1 :]])[0]
    u, k = [], 0
    for i in range(n):
        u.append(flat[k : k + n - 1 - i])
        k += n - 1 - i
    rank = 0
    while True:
        # rows before the first nonzero one are zero on both sides of the diagonal
        p = next((i for i, row in enumerate(u) if any(row)), None)
        if p is None:
            return rank
        rank += 2
        up = u[p]
        off = next(c for c, x in enumerate(up) if x)
        a, q = up[off], p + 1 + off
        uq = u[q]
        rest = [i for i in range(p + 1, len(u)) if i != q]
        ap = [up[i - p - 1] for i in rest]  # A_pi
        aq = [-u[i][q - i - 1] if i < q else uq[i - q - 1] for i in rest]  # A_qi
        s_rows = []
        for s, i in enumerate(rest):
            ui, api, aqi = u[i], ap[s], aq[s]
            s_rows.append([
                a * ui[j - i - 1] + aqi * apj - api * aqj
                for j, apj, aqj in zip(rest[s + 1 :], ap[s + 1 :], aq[s + 1 :])
            ])
        g = gcd(*[x for row in s_rows for x in row])
        u = [[x // g for x in row] for row in s_rows] if g > 1 else s_rows


# -- the elimination core --------------------------------------------------------


class _Echelon:
    """Reduced row echelon form over Q, kept in integers and built row by row.

    Rows are primitive integer vectors sorted by pivot (leading) column and
    fully reduced: a pivot column is zero in every other row, so row r divided
    by its pivot entry is row r of the unique RREF of the rows inserted so
    far.  As in Bareiss's fraction-free elimination (Math. Comp. 22, 1968) no
    fraction is formed; each combined row is divided by its content instead.
    """

    def __init__(self):
        self.pivots = []
        self.rows = []

    def reduce(self, row):
        """A multiple of the integer ``row`` minus a combination of the rows,
        zero in every pivot column; zero exactly when ``row`` is in the span."""
        for p, prow in zip(self.pivots, self.rows):
            if row[p]:
                row = _eliminate(row, prow, p)
        return row

    def insert(self, row) -> bool:
        """Add an integer row; False, and no change, when it is in the span."""
        row = self.reduce(row)
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is None:
            return False
        row = _primitive(row)
        for k, prow in enumerate(self.rows):
            if prow[piv]:
                self.rows[k] = _eliminate(prow, row, piv)
        k = bisect(self.pivots, piv)
        self.pivots.insert(k, piv)
        self.rows.insert(k, row)
        return True


def _eliminate(row, prow, p):
    """Primitive combination of ``row`` and ``prow`` that vanishes in column p."""
    f, q = row[p], prow[p]
    g = gcd(f, q)
    f, q = f // g, q // g
    return _primitive([q * x - f * y for x, y in zip(row, prow)])


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(a):
    """Pivot columns of RREF(a) over the Scalar field of its entries, and a
    reader ``entry(r, c, sign)`` of sign times its entries.  The echelon
    holds the block rows of a, each over its own lcm; over Q(i) the real
    pivots of rho(a) come in pairs (2c, 2c + 1) and row 2r holds row r of
    RREF(a) as (Re, -Im) pairs."""
    first = a[0][0]
    w = len(first.v)
    ech = _Echelon()
    for row in a:
        for r in block_row(row, first)[0]:
            ech.insert(r)

    def entry(r, c, sign=1):
        row = ech.rows[w * r]
        p = sign * row[ech.pivots[w * r]]
        v = row[w * c : w * c + w]
        if w == 2:
            v[1] = -v[1]
        return first._like(v, p) if p > 0 else first._like([-x for x in v], -p)

    return [p // w for p in ech.pivots[::w]], entry


def _inverse_columns(m, d=1, dens=None):
    """(rows, den), integer rows with rows / den columns 0, d, 2d, ... of the
    inverse of the square integer matrix with rows m[r] / dens[r] (all dens 1
    when not given).

    For m = phi(A), with phi a ring map sending each entry to a d x d block
    whose column 0 holds the entry's coordinates, these columns are the
    coordinates of A^-1.  Row r of (m / dens | I) is row r of (m | dens[r] I)
    over dens[r], so a denominator only rescales its own identity column.
    Echelon row r is row r of the inverse over its pivot, and den is the lcm
    of the pivots.  Raises ValueError when m is not square and
    ZeroDivisionError when it is singular.
    """
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("not a square matrix")
    ech = _Echelon()
    for r, row in enumerate(m):
        e = dens[r] if dens else 1
        ech.insert(list(row) + [e if r == c else 0 for c in range(0, size, d)])
    if ech.pivots[size - 1 : size] != [size - 1]:
        raise ZeroDivisionError("singular matrix")
    den = lcm(*[row[r] for r, row in enumerate(ech.rows)])
    return [[x * (den // row[r]) for x in row[size:]] for r, row in enumerate(ech.rows)], den


# -- elimination over the Scalar fields --------------------------------------------


def rank(a) -> int:
    """Rank over the entry field (works for Q and Q(i) entries alike)."""
    if not a or not a[0]:
        return 0
    return len(_rref(a)[0])


def solve(a, b):
    """One solution x of a x = b over the entry field, or None.

    ``b`` is a vector; ``a`` may be rectangular.  Free unknowns are zero.
    """
    if not a:
        return None
    n = len(a[0])
    pivots, entry = _rref([tuple(row) + (bv,) for row, bv in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [Scalar.zero(a[0][0].gaussian)] * n
    for r, c in enumerate(pivots):
        x[c] = entry(r, n)
    return tuple(x)


def inverse(a):
    """The inverse of a square Scalar matrix; ``cdmatrix.inverse`` is the
    same implementation (``_inverse``) under its own name."""
    return _inverse(a)


def _inverse(a):
    """Inverse of a square matrix of Scalars, or of CDNumbers at an
    associative division level (0..2 over Q, 0 over Q(i)).

    The block matrix (L(a_ij)) inverts to (L((a^-1)_ij)), and column 0 of
    L(x) holds the coordinates of x.  Raises ValueError when ``a`` is not
    square and ZeroDivisionError when it is singular.
    """
    first = a[0][0]
    w = len(first.v)
    if first.gaussian and w > 2:
        raise ValueError("inverse over a non-division ring is not supported")
    blocks = [block_row(row, first) for row in a]
    cols, den = _inverse_columns(
        [r for block, _ in blocks for r in block], w, [d for _, d in blocks for _ in range(w)]
    )
    # column j of rows i .. i + w - 1 holds the coordinates of entry (i / w, j)
    return tuple(
        tuple(first._like(col, den) for col in zip(*cols[i : i + w]))
        for i in range(0, len(cols), w)
    )


def kernel_basis(a):
    """Basis of the right kernel of ``a`` over the entry field: one vector per
    free column of RREF(a), with a one there."""
    if not a:
        return []
    ncols = len(a[0])
    gaussian = a[0][0].gaussian
    pivots, entry = _rref(a)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Scalar.zero(gaussian)] * ncols
        v[fc] = Scalar.one(gaussian)
        for r, c in enumerate(pivots):
            v[c] = entry(r, fc, -1)
        out.append(tuple(v))
    return out


def determinant(a):
    """Cofactor-expansion determinant over a commutative Scalar ring.

    Deliberately naive: this is the independent oracle the Jordan-algebra
    determinant is checked against, so it must not share code with it.
    """
    n = len(a)
    if n == 1:
        return a[0][0]
    gaussian = a[0][0].gaussian
    acc = Scalar.zero(gaussian)
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = tuple(tuple(row[:j] + row[j + 1 :]) for row in a[1:])
        term = a[0][j] * determinant(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def leading_minors(a):
    """Leading principal minors d_1, d_2, ... of a square integer matrix by
    Bareiss's fraction-free elimination (Math. Comp. 22, 1968): pivot k is
    d_(k+1) and every division is exact.  Stops at the first zero minor,
    which already fails any test of definiteness."""
    m = [list(r) for r in a]
    out, prev = [], 1
    for k, pk in enumerate(m):
        p = pk[k]
        out.append(p)
        if not p:
            break
        for ri in m[k + 1 :]:
            f = ri[k]
            for j in range(k + 1, len(m)):
                ri[j] = (p * ri[j] - f * pk[j]) // prev
        prev = p
    return out


def congruent_diagonal(a):
    """Diagonal D of a = L D L^T over the entry field, for symmetric ``a``.

    Symmetric pivoting only (char 0, so an off-diagonal pivot can always be
    moved to the diagonal by a row+col addition).
    """
    n = len(a)
    m = [list(r) for r in a]

    def row_col_add(i, j, f):
        # row_i += f * row_j, col_i += f * col_j
        for c in range(n):
            m[i][c] = m[i][c] + f * m[j][c]
        for r in range(n):
            m[r][i] = m[r][i] + f * m[r][j]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]

    one = Scalar.one(a[0][0].gaussian)
    for k in range(n):
        if m[k][k].is_zero():
            pivot = None
            for r in range(k + 1, n):
                if not m[r][r].is_zero():
                    pivot = r
                    break
            if pivot is not None:
                swap(k, pivot)
            else:
                found = None
                for r in range(k, n):
                    for c in range(r + 1, n):
                        if not m[r][c].is_zero():
                            found = (r, c)
                            break
                    if found:
                        break
                if found is None:
                    break
                r, c = found
                row_col_add(r, c, one)
                swap(k, r)
        if m[k][k].is_zero():
            continue
        inv = m[k][k].inverse()
        for r in range(k + 1, n):
            if not m[r][k].is_zero():
                row_col_add(r, k, -(m[r][k] * inv))
    return tuple(m[k][k] for k in range(n))
