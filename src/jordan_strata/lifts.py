"""Exact lifts through the momentum-map reduction: given a complexified
Jordan element Z of rank <= s, produce a zero-level W-map whose reduced point
is exactly Z.

Everything happens inside the factorization 2i Z = C conj(C)^T (conj = the
Cayley-Dickson conjugation), with the zero level appearing as a reality /
Gram-balance condition on C.  Over Q(i) such factorizations carry genuine
square-class obstructions, so exact lifts only exist on part of the rank
locus: the lift raises LiftError off it, and `liftable_sample`
generates test points inside it, of a rank that holds by construction.

Two rules build C.  A rank-one block kappa b conj(b)^T is read off its pivot
column: for the first p with m_pp != 0, kappa = m_pp and b = column p over
m_pp, so b_p = 1 (the real case stores the same piece as (1 / m_pp, column
p)).  A rank-two block is split by the spectral projector: tr E and tr E^2
give the two nonzero eigenvalues l1, l2 of E, and for l1 != l2 the piece
m1 = (E - l2) m / (l1 - l2) has rank one, with m2 = m - m1.  Coverage per
case:

  real          rank 1 fully; rank 2 by the projector with E = m conj(m)
                (distinct rational l1, l2, both nonzero) or by a small
                pivot search (l1 = l2); any s >= rank;
  complex       every reduced point of the rational zero level, rank <= 2
                (the Gram-balance equation solves in closed form there);
  quaternionic  rank 1 when the pivot column is rational and kappa is
                (1 + i c)^2 nu (c rational, nu > 0) or a negative rational;
                rank 2 by the projector with E = m.

The real and complex cases work on Scalar matrices over Q(i), the
quaternionic case on CDNumber matrices; all multiply through
``cdmatrix.mul``, the vector products too, and invert through
``linalg.inverse``, on the stored integers.

A lift has one post-condition: `hilbert_lift` reduces the map it built with
`zero_level_point` and raises LiftError with reason "missed-zero-level" (off
the zero level) or "round-trip-failed" (a different point) unless it gets Z
back; no intermediate result is re-checked.  Every other reason code names
where a construction gives up: a cut square-sum search, a rank above the
coverage, an irrational or repeated splitting, a square class or norm
obstruction, an isotropic quaternionic diagonal or an irrational ray.
"""

from __future__ import annotations

from fractions import Fraction

from . import cdmatrix as cdm
from . import linalg
from .cayley_dickson import CDNumber, cd_mul
from .jordan import (
    JordanElement,
    from_symmetric_matrix,
    jordan_rank,
    to_general_matrix,
    to_symmetric_matrix,
)
from .reduction import (
    CASE_ALGEBRA,
    CASE_LEVEL,
    LiftError,
    WMap,
    reduced_point,
    zero_level_point,
    zero_level_sample,
)
from .scalars import Scalar, SearchExhausted, _rational_sqrt, four_squares, two_squares
from .strata import draws, rand_cd, rand_scalar

ALGEBRA_CASE = {v: k for k, v in CASE_ALGEBRA.items()}

# Square-class witnesses for sums of rational squares, by column budget.
_WITNESSES = (
    (Fraction(1),),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(3)),
    (Fraction(2), Fraction(3)),
    (Fraction(1), Fraction(4)),
    (Fraction(3), Fraction(4)),
    (Fraction(2), Fraction(5)),
)


def hilbert_lift(z: JordanElement, s: int) -> WMap:
    """A zero-level alpha with reduced_point(alpha) = z, using s columns."""
    if not z.gaussian:
        raise ValueError("lift targets live on the complexified algebra")
    rank = jordan_rank(z)
    if rank > s:
        raise ValueError("rank exceeds the number of available columns")
    case = ALGEBRA_CASE[z.algebra]
    if rank == 0:
        return WMap.zero(case, s)
    try:
        if case == "real":
            alpha = _lift_real(z, s, rank)
        elif case == "complex":
            alpha = _lift_complex(z, s, rank)
        else:
            alpha = _lift_quaternionic(z, s, rank)
    except SearchExhausted as exc:
        raise LiftError(f"square-sum search cut: {exc}", "search-cut") from exc
    back = zero_level_point(alpha)
    if back is None:
        raise LiftError("constructed map missed the zero level", "missed-zero-level")
    if back != z:
        raise LiftError("round trip failed on the constructed map", "round-trip-failed")
    return alpha


# -- shared helpers -----------------------------------------------------------------


def _columns_for_class(m: Scalar, budget: int):
    """Column scales (x * t for t in witness) with sum of squares = m."""
    for witness in _WITNESSES:
        if len(witness) > budget:
            continue
        t_sum = sum(t * t for t in witness)
        q = m * Scalar(t_sum, 0, True).inverse()
        x = q.sqrt()
        if x is None or x.is_zero():
            continue
        return tuple(x * Scalar(t, 0, True) for t in witness)
    return None


def _col(v):
    """The column matrix of a vector."""
    return tuple((x,) for x in v)


def _herm_dot(u, v):
    """conj(u)^T v, for vectors of Gaussian scalars or of quaternions."""
    return cdm.mul(cdm.conj_transpose(_col(u)), _col(v))[0][0]


def _pivot(m):
    """The first p with m_pp != 0, or None."""
    return next((p for p in range(len(m)) if not m[p][p].is_zero()), None)


def _split_invariants(tr, tr2):
    """(l1, l2), the nonzero eigenvalues of a rank-two E from tr E and tr E^2:
    the roots of t^2 - tr t + (tr^2 - tr2) / 2, or None when irrational."""
    root = (tr2 + tr2 - tr * tr).sqrt()
    if root is None:
        return None
    half = Scalar(Fraction(1, 2), 0, True)
    return (tr + root) * half, (tr - root) * half


def _wmap(case, xi_cols, up_cols, s):
    """The W-map [Xi; Upsilon] with these columns, padded with zeros to s."""
    pad = [(CDNumber.zero(CASE_LEVEL[case]),) * 3] * (s - len(xi_cols))
    rows = [tuple(col[i] for col in cols + pad) for cols in (xi_cols, up_cols) for i in range(3)]
    return WMap(case, rows)


# -- real case --------------------------------------------------------------------


def _sym_dot(u, m, v):
    """u^T m v (no conjugation)."""
    return cdm.mul(cdm.mul((tuple(u),), m), _col(v))[0][0]


def _real_rank1(m):
    """(coeff, v) with m = coeff v v^T, read off the pivot column of m."""
    p = _pivot(m)
    return m[p][p].inverse(), tuple(row[p] for row in m)


def _real_components(m, rank):
    """Split symmetric m of rank <= 2 as [(coeff, vector)] with the vectors
    orthogonal for the hermitian form.  Raises LiftError when no exact
    splitting is found."""
    if rank == 1:
        return [_real_rank1(m)]
    if rank != 2:
        raise LiftError("splitting supports rank one and two only", "real-split-rank")
    e = cdm.mul(m, cdm.conj_transpose(m))  # m conj(m), m symmetric
    lams = _split_invariants(*(
        sum((a[i][i] for i in range(3)), Scalar.zero(True)) for a in (e, cdm.mul(e, e))
    ))
    if lams is None:
        raise LiftError("splitting invariants are not rational", "real-split-irrational")
    lam1, lam2 = lams
    if lam1 != lam2:
        em = cdm.mul(e, m)
        m1 = cdm.scale(cdm.sub(em, cdm.scale(m, lam2)), (lam1 - lam2).inverse())
        return [_real_rank1(m1), _real_rank1(cdm.sub(m, m1))]
    out = []
    for v in _repeated_eigen_split(m):
        vc = tuple(x.conjugate() for x in v)
        n = _herm_dot(v, v)
        out.append((_sym_dot(vc, m, vc) * (n * n).inverse(), v))
    return out


def _sym_rank1(coeff, v):
    """coeff v v^T."""
    return cdm.scale(cdm.mul(_col(v), (tuple(v),)), coeff)


def _repeated_eigen_split(m):
    """Fallback for a repeated splitting invariant: search small pivots."""
    cols = [c for c in zip(*m) if any(not x.is_zero() for x in c)]
    u1 = cols[0]
    u2 = next(c for c in cols[1:] if linalg.rank((u1, c)) == 2)
    cands = [Scalar(t, 0, True) for t in (0, 1, -1, 2, -2)] + [
        Scalar(0, 1, True),
        Scalar(0, -1, True),
    ]
    for tau in cands:
        v1 = tuple(a + tau * b for a, b in zip(u1, u2))
        proj = _herm_dot(v1, u2) * _herm_dot(v1, v1).inverse()
        v2 = tuple(b - proj * a for a, b in zip(v1, u2))
        # m = c1 v1 v1^T + c2 v2 v2^T needs conj(v1)^T m conj(v2) = 0
        w1, w2 = (tuple(x.conjugate() for x in v) for v in (v1, v2))
        if _sym_dot(w1, m, w2).is_zero():
            return [v1, v2]
    raise LiftError(
        "no rational splitting found for repeated invariants", "real-repeated-no-split"
    )


def _lift_real(z: JordanElement, s: int, rank: int) -> WMap:
    m = cdm.scale(to_symmetric_matrix(z), Scalar(0, 2, True))  # 2i Z
    comps = _real_components(m, rank)
    for order in (comps, list(reversed(comps))):
        budgets = _budget_split(s, len(order))
        columns = []
        for (coeff, v), budget in zip(order, budgets):
            scales = _columns_for_class(coeff, budget)
            if scales is None:
                break
            columns.extend(tuple(x * vi for vi in v) for x in scales)
        else:
            # alpha = [Re C; Im C]
            xi = [tuple(CDNumber._of(0, False, x.v[:1], x.den) for x in col) for col in columns]
            up = [tuple(CDNumber._of(0, False, x.v[1:], x.den) for x in col) for col in columns]
            return _wmap("real", xi, up, s)
    raise LiftError("square-class obstruction in a component", "real-square-class")


def _budget_split(s, ncomps):
    if ncomps == 1:
        return [s]
    return [s - (ncomps - 1)] + [1] * (ncomps - 1)


# -- complex case ------------------------------------------------------------------


def _lift_complex(z: JordanElement, s: int, rank: int) -> WMap:
    m = cdm.scale(to_general_matrix(z), Scalar(0, 2, True))  # 2i Z
    if rank > 2:
        raise LiftError("complex lifts are implemented through rank two", "complex-rank-three")
    # the first independent columns; there are `rank`, the matrix rank on C_C
    pivots = linalg._rref(m)[0]
    u0 = tuple(tuple(row[c] for c in pivots) for row in m)  # 3 x rank
    u0s = cdm.conj_transpose(u0)
    gram = cdm.mul(u0s, u0)
    w0 = cdm.mul(linalg.inverse(gram), cdm.mul(u0s, m))  # rank x 3
    v0 = cdm.conj_transpose(w0)  # 3 x rank
    n_u = gram
    n_v = cdm.mul(cdm.conj_transpose(v0), v0)
    g = _gram_balance_gauge(n_u, n_v)
    u = cdm.mul(u0, g)
    v = cdm.mul(v0, linalg.inverse(cdm.conj_transpose(g)))
    f = cdm.scale(cdm.add(u, v), Scalar(Fraction(1, 2), 0, True))
    g_mat = cdm.scale(cdm.sub(u, v), Scalar(0, Fraction(-1, 2), True))  # 1/(2i)
    # a + bi in C_C is (a, b) in C: the same integers, over Q
    xi, up = (
        [tuple(CDNumber._of(1, False, x.v, x.den) for x in col) for col in zip(*block)]
        for block in (f, g_mat)
    )
    return _wmap("complex", xi, up, s)


def _gram_balance_gauge(n_u, n_v):
    """g with (g g*) n_u (g g*) = n_v, so that U0 g and V0 (g*)^-1 balance.

    Rank two: g g* = h = X n_u^-1 with X = (K + sI) / t, K = n_v n_u,
    s^2 = det K, t^2 = tr K + 2s; X^2 = K by Cayley-Hamilton, so h n_u h = n_v.
    The + roots always serve: K is similar to n_u^1/2 n_v n_u^1/2, with
    eigenvalues l1, l2 > 0, so s = sqrt(l1 l2) and t = sqrt(l1) + sqrt(l2)
    give X the eigenvalues sqrt(l1), sqrt(l2), and h is the geometric mean of
    n_u^-1 and n_v (Bhatia, Positive Definite Matrices, ch. 4), hermitian
    positive definite.  (-s gives X eigenvalues of both signs: h indefinite.)
    """
    r = len(n_u)
    if r == 1:
        h = n_v[0][0] * n_u[0][0].inverse()
        hr = h.sqrt()
        if hr is None or hr.im or hr.re <= 0:
            raise LiftError(
                "rank-one balance is not a rational square", "complex-balance-not-square"
            )
        pair = two_squares(hr.re)
        if pair is None:
            raise LiftError("rank-one balance is not a Gaussian norm", "complex-balance-not-norm")
        return ((Scalar(pair[0], pair[1], True),),)
    k = cdm.mul(n_v, n_u)
    det_k = k[0][0] * k[1][1] - k[0][1] * k[1][0]
    sd = det_k.sqrt()
    if sd is None:
        raise LiftError("balance discriminant is not a square", "complex-balance-discriminant")
    t = (k[0][0] + k[1][1] + sd + sd).sqrt()
    if t is not None:
        zero = Scalar.zero(True)
        x = cdm.scale(cdm.add(k, ((sd, zero), (zero, sd))), t.inverse())
        g = _posdef_factor(cdm.mul(x, linalg.inverse(n_u)))
        if g is not None:
            return g
    raise LiftError("no exact balance gauge found", "complex-balance-no-gauge")


def _posdef_factor(h):
    """g with g g* = h for hermitian 2x2 h over Q(i), or None when h is not
    positive definite (the precondition of ``four_squares`` on h11) or det h
    is not a sum of two rational squares."""
    h11, det_h = h[0][0], h[0][0] * h[1][1] - h[0][1] * h[1][0]
    if h11.im or h11.re <= 0 or det_h.im or det_h.re <= 0:
        return None
    q = four_squares(h11.re)
    row1 = (Scalar(q[0], q[1], True), Scalar(q[2], q[3], True))
    pair = two_squares(det_h.re)
    if pair is None:
        return None
    nu = Scalar(pair[0], pair[1], True) * h11.inverse()
    mu = h[1][0] * h11.inverse()
    perp = (-row1[1].conjugate(), row1[0].conjugate())
    row2 = tuple(mu * a + nu * b for a, b in zip(row1, perp))
    return row1, row2


# -- quaternionic case ----------------------------------------------------------------


def _lift_quaternionic(z: JordanElement, s: int, rank: int) -> WMap:
    if rank > 2:
        raise LiftError("quaternionic lifts are implemented through rank two", "quat-rank-three")
    m = cdm.scale(z.to_matrix(), Scalar(0, 2, True))
    comps = [_quat_rank1_data(m)] if rank == 1 else _quat_split(m)
    xi_cols, up_cols = [], []
    for b_vec, kappa in comps:
        cols = _quat_component_columns(b_vec, kappa)
        if cols is None:
            raise LiftError("quaternionic component class is not representable", "quat-class")
        xi_cols.append(cols[0])
        up_cols.append(cols[1])
    return _wmap("quaternionic", xi_cols, up_cols, s)


def _quat_rank1_data(m):
    """(b, kappa) with m = kappa * b conj(b)^T, b a rational quaternion
    vector with b_p = 1 and kappa = m_pp, read off the pivot column p."""
    p = _pivot(m)
    if p is None:
        raise LiftError("isotropic diagonal in the quaternionic block", "quat-isotropic-diagonal")
    kappa = m[p][p].real()
    inv = kappa.inverse()
    b = []
    for row in m:
        q = row[p].scale(inv)
        if any(q.v[4:]):
            raise LiftError("pivot column of the block is not rational", "quat-ray-irrational")
        b.append(CDNumber._of(2, False, q.v[:4], q.den))
    return b, kappa


def _quat_rank1(kappa, b):
    return cdm.from_rows(
        [cd_mul(b[i].complexify(), b[j].conjugate().complexify()).scale(kappa) for j in range(3)]
        for i in range(3)
    )


def _quat_split(m):
    """Split rank-two m into two commuting rank-one blocks by the spectral
    projector of E = m."""
    m2 = cdm.mul(m, m)
    lams = _split_invariants(cdm.trace_real(m), cdm.trace_real(m2))
    if lams is None or lams[0] == lams[1]:
        raise LiftError(
            "quaternionic splitting invariants are not separable", "quat-split-inseparable"
        )
    lam1, lam2 = lams
    m1 = cdm.scale(cdm.sub(m2, cdm.scale(m, lam2)), (lam1 - lam2).inverse())
    return [_quat_rank1_data(m1), _quat_rank1_data(cdm.sub(m, m1))]


def _quat_component_columns(b, kappa):
    """Columns (xi, upsilon) = (a w, c w) with w = b g1, N(g1) = nu and
    kappa = (a + i c)^2 nu, so that C = xi + i upsilon has C C* = kappa b b*
    and xi, upsilon balance: (a, c) = (1, c) for kappa = (1 + i c)^2 nu with
    c rational and nu > 0, and (0, 1) for kappa = -nu < 0.  None otherwise."""
    x, y = kappa.re, kappa.im
    params = None
    if y == 0:
        params = (1, 0, x) if x > 0 else (0, 1, -x)
    else:
        root = _rational_sqrt(x * x + y * y)
        if root is not None:
            for r in (root, -root):
                c = (-x + r) / y
                if c:
                    nu = y / (2 * c)
                    if nu > 0 and (1 - c * c) * nu == x:
                        params = (1, c, nu)
                        break
    if params is None:
        return None
    a, c, nu = params
    g1 = CDNumber(2, [Scalar(t) for t in four_squares(nu)])
    w = tuple(cd_mul(bi, g1) for bi in b)
    return tuple(e.scale(Scalar(a)) for e in w), tuple(e.scale(Scalar(c)) for e in w)


# -- samplers for round-trip tests ---------------------------------------------------


def liftable_sample(case, rank, s, rng) -> JordanElement:
    """A rank-`rank` complexified element inside the exactly liftable locus;
    the rank holds by construction (see the case samplers) and is not re-tested."""
    if rank == 0:
        return JordanElement.zero(CASE_ALGEBRA[case], gaussian=True)
    if case == "complex":
        # every reduced point of the plain rational zero level lifts back
        return reduced_point(zero_level_sample(case, s, rank, rng, enrich=False))
    if case == "real":
        return _real_liftable(rank, s, rng)
    return _quat_liftable(rank, rng)


def _real_liftable(rank, s, rng):
    """Z = m / (2i), m = V diag(c) V^T: v1, v2 are nonzero (conj(v)^T v > 0 for
    v != 0) and orthogonal, and each c = x^2 sum t^2 != 0, so m has the rank
    of V, which on R_C is the Jordan rank."""
    for _ in draws("lifts._real_liftable"):
        v1 = tuple(rand_scalar(rng, True) for _ in range(3))
        if _herm_dot(v1, v1).is_zero():
            continue
        vecs = [v1]
        if rank == 2:
            w = tuple(rand_scalar(rng, True) for _ in range(3))
            proj = _herm_dot(v1, w) * _herm_dot(v1, v1).inverse()
            v2 = tuple(b - proj * a for a, b in zip(v1, w))
            if all(x.is_zero() for x in v2):
                continue
            vecs.append(v2)
        budgets = _budget_split(s, rank)
        coeffs = []
        for budget in budgets:
            witness = rng.choice([w for w in _WITNESSES if len(w) <= budget])
            x = rand_scalar(rng, True)
            if x.is_zero():
                x = Scalar(1, 1, True)
            coeffs.append(x * x * Scalar(sum(t * t for t in witness), 0, True))
        m = _sym_rank1(coeffs[0], vecs[0])
        if rank == 2:
            m = cdm.add(m, _sym_rank1(coeffs[1], vecs[1]))
            lam = [
                (c * c.conjugate()) * _herm_dot(v, v) * _herm_dot(v, v)
                for c, v in zip(coeffs, vecs)
            ]
            if lam[0] == lam[1]:
                continue
        return from_symmetric_matrix(cdm.scale(m, Scalar(0, Fraction(-1, 2), True)))  # M/(2i)


def _quat_liftable(rank, rng):
    """Z = m / (2i), m = sum kappa b conj(b)^T: b1, b2 are nonzero and orthogonal,
    and kappa = (1 + ic)^2 nu != 0 (nu > 0), so the pieces are nonzero multiples
    of orthogonal rank-one idempotents."""
    for _ in draws("lifts._quat_liftable"):
        b1 = tuple(rand_cd(2, rng) for _ in range(3))
        n1 = sum((q.norm().re for q in b1), Fraction(0))
        if not n1:
            continue
        comps = [b1]
        if rank == 2:
            w = tuple(rand_cd(2, rng) for _ in range(3))
            coeff = _herm_dot(b1, w).scale(Scalar(Fraction(1) / n1))
            b2 = tuple(q - cd_mul(p, coeff) for p, q in zip(b1, w))
            if all(q.is_zero() for q in b2):
                continue
            comps.append(b2)
        kappas = []
        for _ in comps:
            c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
            nu = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            kappas.append(Scalar((1 - c * c) * nu, 2 * c * nu, gaussian=True))
        m = _quat_rank1(kappas[0], comps[0])
        if rank == 2:
            m = cdm.add(m, _quat_rank1(kappas[1], comps[1]))
            norms = [sum((q.norm().re for q in b), Fraction(0)) for b in comps]
            if kappas[0] * Scalar(norms[0], 0, True) == kappas[1] * Scalar(norms[1], 0, True):
                continue
        return JordanElement.from_matrix("H", cdm.scale(m, Scalar(0, Fraction(-1, 2), True)))
