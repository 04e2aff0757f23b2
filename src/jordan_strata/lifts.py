"""Exact lifts through the momentum-map reduction: given a complexified
Jordan element Z of rank <= s, produce a zero-level W-map whose reduced point
is exactly Z.

Everything happens inside the factorization 2i Z = C conj(C)^T (conj = the
Cayley-Dickson conjugation), with the zero level appearing as a reality /
Gram-balance condition on C.  Over Q(i) such factorizations carry genuine
square-class obstructions, so exact lifts only exist on part of the rank
locus: the lift raises LiftError off it, and `liftable_sample`
generates test points inside it.  Coverage implemented per case:

  real          rank 1 fully (pivot classes), rank 2 via an exact
                conjugate-orthogonal splitting (distinct split invariants),
                any s >= rank;
  complex       every reduced point of the rational zero level, rank <= 2
                (the Gram-balance equation solves in closed form there);
  quaternionic  rank 1 general up to norm-square classes, rank 2 via the
                exact spectral splitting of the hermitian pair.
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
    LiftError,
    WMap,
    reduced_point,
    zero_level_point,
    zero_level_sample,
)
from .scalars import Scalar, SearchExhausted, four_squares, two_squares
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


# -- shared scalar helpers -------------------------------------------------------


def _gaussian(fr_re, fr_im=0):
    return Scalar(Fraction(fr_re), Fraction(fr_im), gaussian=True)


def _columns_for_class(m: Scalar, budget: int):
    """Column scales (x * t for t in witness) with sum of squares = m."""
    for witness in _WITNESSES:
        if len(witness) > budget:
            continue
        t_sum = sum(t * t for t in witness)
        q = m * _gaussian(t_sum).inverse()
        x = q.sqrt()
        if x is None or x.is_zero():
            continue
        return tuple(x * _gaussian(t) for t in witness)
    return None


# -- real case --------------------------------------------------------------------


def _herm_dot(u, v):
    """conj(u)^T v for Scalar vectors."""
    acc = Scalar.zero(True)
    for a, b in zip(u, v):
        acc = acc + a.conjugate() * b
    return acc


def _sym_dot(u, m, v):
    """u^T m v (no conjugation)."""
    acc = Scalar.zero(True)
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        for j, b in enumerate(v):
            if not (m[i][j].is_zero() or b.is_zero()):
                acc = acc + a * m[i][j] * b
    return acc


def _real_components(m):
    """Split symmetric m of rank <= 2 as [(coeff, vector)] with the vectors
    orthogonal for the hermitian form.  Raises LiftError when no exact
    splitting exists."""
    r = linalg.rank(m)
    cols = linalg.transpose(m)
    if r == 1:
        piv = next(
            (i for i in range(3) if not m[i][i].is_zero()),
            None,
        )
        if piv is None:
            raise LiftError("rank-one block with isotropic diagonal", "real-isotropic-diagonal")
        v = cols[piv]
        coeff = m[piv][piv].inverse()
        return [(coeff, v)]
    if r != 2:
        raise LiftError("splitting supports rank one and two only", "real-split-rank")
    # E = m conj(m): its nonzero eigenvectors give the splitting directions.
    mbar = tuple(tuple(x.conjugate() for x in row) for row in m)
    e = linalg.mul(m, mbar)
    tr = e[0][0] + e[1][1] + e[2][2]
    e2 = linalg.mul(e, e)
    tr2 = e2[0][0] + e2[1][1] + e2[2][2]
    prod = (tr * tr - tr2) * _gaussian(Fraction(1, 2))
    disc = tr * tr - _gaussian(4) * prod
    root = disc.sqrt()
    if root is None:
        raise LiftError("splitting invariants are not rational", "real-split-irrational")
    lams = ((tr + root) * _gaussian(Fraction(1, 2)), (tr - root) * _gaussian(Fraction(1, 2)))
    vecs = []
    if lams[0] != lams[1]:
        for lam in lams:
            if lam.is_zero():
                raise LiftError("degenerate splitting eigenvalue", "real-split-zero-eigenvalue")
            shifted = tuple(
                tuple(e[i][j] - (lam if i == j else Scalar.zero(True)) for j in range(3))
                for i in range(3)
            )
            ker = linalg.kernel_basis(shifted)
            cand = next((k for k in ker if not _sym_dot(k, m, k).is_zero()), None)
            if cand is None:
                raise LiftError(
                    "no usable eigenvector for the splitting", "real-split-no-eigenvector"
                )
            vecs.append(cand)
    else:
        vecs = _repeated_eigen_split(m)
    out = []
    for v in vecs:
        vc = tuple(x.conjugate() for x in v)
        sq = _sym_dot(vc, m, vc)
        n = _herm_dot(v, v)
        coeff = sq * (n * n).inverse()
        out.append((coeff, v))
    # verify the decomposition and the orthogonality exactly
    v1, v2 = out[0][1], out[1][1]
    if not _herm_dot(v1, v2).is_zero():
        raise LiftError(
            "splitting directions are not conjugate-orthogonal", "real-split-not-orthogonal"
        )
    recon = _sym_rank1(out[0][0], v1)
    recon = linalg.add(recon, _sym_rank1(out[1][0], v2))
    if recon != linalg.mat(m):
        raise LiftError("rank-two splitting did not reconstruct the matrix", "real-split-mismatch")
    return out


def _sym_rank1(coeff, v):
    return tuple(tuple(coeff * v[i] * v[j] for j in range(3)) for i in range(3))


def _repeated_eigen_split(m):
    """Fallback for a repeated splitting invariant: search small pivots."""
    cols = [c for c in linalg.transpose(m) if any(not x.is_zero() for x in c)]
    u1, u2 = cols[0], None
    for c in cols[1:]:
        if linalg.rank((u1, c)) == 2:
            u2 = c
            break
    if u2 is None:
        raise LiftError("could not span the rank-two column space", "real-repeated-no-span")
    cands = [_gaussian(t) for t in (0, 1, -1, 2, -2)] + [
        Scalar(0, 1, True),
        Scalar(0, -1, True),
    ]
    for tau in cands:
        v1 = tuple(a + tau * b for a, b in zip(u1, u2))
        n1 = _herm_dot(v1, v1)
        if n1.is_zero():
            continue
        proj = _herm_dot(v1, u2) * n1.inverse()
        v2 = tuple(b - proj * a for a, b in zip(v1, u2))
        if all(x.is_zero() for x in v2):
            continue
        if _sym_dot(v1, m, v2).is_zero():
            return [v1, v2]
    raise LiftError(
        "no rational splitting found for repeated invariants", "real-repeated-no-split"
    )


def _lift_real(z: JordanElement, s: int, rank: int) -> WMap:
    m = linalg.scale(to_symmetric_matrix(z), Scalar(0, 2, True))  # 2i Z
    comps = _real_components(m)
    for order in (comps, list(reversed(comps))):
        budgets = _budget_split(s, len(order))
        columns = []
        ok = True
        for (coeff, v), budget in zip(order, budgets):
            scales = _columns_for_class(coeff, budget)
            if scales is None:
                ok = False
                break
            for x in scales:
                columns.append(tuple(x * vi for vi in v))
        if ok:
            return _alpha_from_c_columns("real", columns, s)
    raise LiftError("square-class obstruction in a component", "real-square-class")


def _budget_split(s, ncomps):
    if ncomps == 1:
        return [s]
    return [s - (ncomps - 1)] + [1] * (ncomps - 1)


def _alpha_from_c_columns(case, columns, s):
    """Assemble alpha = [Re C; Im C] from Gaussian column vectors (K = R)."""
    if len(columns) > s:
        raise LiftError("construction needs more columns than available", "real-columns-short")
    while len(columns) < s:
        columns.append((Scalar.zero(True),) * 3)
    rows = []
    for i in range(3):
        rows.append(tuple(CDNumber(0, (Scalar(c[i].re),)) for c in columns))
    for i in range(3):
        rows.append(tuple(CDNumber(0, (Scalar(c[i].im),)) for c in columns))
    return WMap(case, rows)


# -- complex case ------------------------------------------------------------------


def _lift_complex(z: JordanElement, s: int, rank: int) -> WMap:
    m = linalg.scale(to_general_matrix(z), Scalar(0, 2, True))  # 2i Z
    r = linalg.rank(m)
    if r != rank:
        raise LiftError(
            "matrix model rank disagrees with the Jordan rank", "complex-rank-mismatch"
        )
    if r > 2:
        raise LiftError("complex lifts are implemented through rank two", "complex-rank-three")
    cols = linalg.transpose(m)
    chosen = []
    for c in cols:
        trial = chosen + [c]
        if linalg.rank(tuple(trial)) == len(trial):
            chosen.append(c)
        if len(chosen) == r:
            break
    u0 = linalg.transpose(tuple(chosen))  # 3 x r
    u0s = cdm.conj_transpose(u0)
    gram = linalg.mul(u0s, u0)
    w0 = linalg.mul(linalg.inverse(gram), linalg.mul(u0s, m))  # r x 3
    if linalg.mul(u0, w0) != linalg.mat(m):
        raise LiftError("pivot columns failed to factor the matrix", "complex-pivot-factor")
    v0 = cdm.conj_transpose(w0)  # 3 x r
    n_u = gram
    n_v = linalg.mul(cdm.conj_transpose(v0), v0)
    g = _gram_balance_gauge(n_u, n_v)
    u = linalg.mul(u0, g)
    v = linalg.mul(v0, linalg.inverse(cdm.conj_transpose(g)))
    if linalg.mul(cdm.conj_transpose(u), u) != linalg.mul(cdm.conj_transpose(v), v):
        raise LiftError("gauge did not balance the Gram matrices", "complex-gauge-unbalanced")
    if linalg.mul(u, cdm.conj_transpose(v)) != linalg.mat(m):
        raise LiftError("gauge broke the factorization", "complex-gauge-mismatch")
    half = _gaussian(Fraction(1, 2))
    m_half_i = Scalar(0, Fraction(-1, 2), True)  # 1/(2i)
    f = linalg.scale(linalg.add(u, v), half)
    g_mat = linalg.scale(linalg.sub(u, v), m_half_i)
    rows = []
    for block in (f, g_mat):
        for i in range(3):
            row = []
            for j in range(len(block[0])):
                zc = block[i][j]
                row.append(CDNumber(1, (Scalar(zc.re), Scalar(zc.im))))
            row.extend(CDNumber.zero(1) for _ in range(s - len(block[0])))
            rows.append(tuple(row))
    return WMap("complex", rows)


def _gram_balance_gauge(n_u, n_v):
    """g with (g g*) n_u (g g*) = n_v, so that U0 g and V0 (g*)^-1 balance."""
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
    k = linalg.mul(n_v, n_u)
    det_k = k[0][0] * k[1][1] - k[0][1] * k[1][0]
    sd = det_k.sqrt()
    if sd is None:
        raise LiftError("balance discriminant is not a square", "complex-balance-discriminant")
    tr_k = k[0][0] + k[1][1]
    for sign in (1, -1):
        sds = sd if sign > 0 else -sd
        t2 = tr_k + sds + sds
        t = t2.sqrt()
        if t is None or t.is_zero():
            continue
        x = linalg.scale(
            linalg.add(k, ((sds, Scalar.zero(True)), (Scalar.zero(True), sds))),
            t.inverse(),
        )
        h = linalg.mul(x, linalg.inverse(n_u))
        if h != cdm.conj_transpose(h):
            continue
        h11 = h[0][0]
        det_h = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        if h11.im or h11.re <= 0 or det_h.im or det_h.re <= 0:
            continue
        if linalg.mul(h, linalg.mul(n_u, h)) != linalg.mat(n_v):
            continue
        g = _posdef_factor(h)
        if g is not None:
            return g
    raise LiftError("no exact balance gauge found", "complex-balance-no-gauge")


def _posdef_factor(h):
    """g with g g* = h for hermitian positive definite 2x2 h over Q(i)."""
    h11 = h[0][0].re
    q = four_squares(h11)
    row1 = (Scalar(q[0], q[1], True), Scalar(q[2], q[3], True))
    det_h = (h[0][0] * h[1][1] - h[0][1] * h[1][0]).re
    pair = two_squares(det_h)
    if pair is None:
        return None
    nu = Scalar(pair[0], pair[1], True) * Scalar(h11, 0, True).inverse()
    mu = h[1][0] * h[0][0].inverse()
    perp = (-row1[1].conjugate(), row1[0].conjugate())
    row2 = tuple(mu * a + nu * b for a, b in zip(row1, perp))
    g = (row1, row2)
    if linalg.mul(g, cdm.conj_transpose(g)) != linalg.mat(h):
        return None
    return g


# -- quaternionic case ----------------------------------------------------------------


def _lift_quaternionic(z: JordanElement, s: int, rank: int) -> WMap:
    if rank > 2:
        raise LiftError("quaternionic lifts are implemented through rank two", "quat-rank-three")
    m = cdm.scale(z.to_matrix(), Scalar(0, 2, True))
    if rank == 1:
        comps = [_quat_rank1_data(m)]
    else:
        comps = _quat_split(m)
    budgets = _budget_split(s, len(comps))
    xi_cols, up_cols = [], []
    for (b_vec, kappa), budget in zip(comps, budgets):
        cols = _quat_component_columns(b_vec, kappa, budget)
        if cols is None:
            raise LiftError("quaternionic component class is not representable", "quat-class")
        for xi_c, up_c in cols:
            xi_cols.append(xi_c)
            up_cols.append(up_c)
    if len(xi_cols) > s:
        raise LiftError("construction needs more columns than available", "quat-columns-short")
    zero_col = tuple(CDNumber.zero(2) for _ in range(3))
    while len(xi_cols) < s:
        xi_cols.append(zero_col)
        up_cols.append(zero_col)
    rows = [tuple(col[i] for col in cols) for cols in (xi_cols, up_cols) for i in range(3)]
    return WMap("quaternionic", rows)


def _quat_rank1_data(m):
    """Recover (b, kappa) with m = kappa * b conj(b)^T, b a rational
    quaternion vector and kappa a Gaussian scalar."""
    piv = next((i for i in range(3) if not m[i][i].is_zero()), None)
    if piv is None:
        raise LiftError("isotropic diagonal in the quaternionic block", "quat-isotropic-diagonal")
    row = m[piv]
    # find mu in H (x) Q(i) making mu * row entrywise a rational quaternion
    basis_mu = []
    for k in range(4):
        for im in (False, True):
            c = [Scalar.zero(True)] * 4
            c[k] = Scalar(0, 1, True) if im else Scalar(1, 0, True)
            basis_mu.append(CDNumber(2, c))
    conditions = []  # rows of a rational system: imaginary parts must vanish
    for entry in row:
        for mu in basis_mu:
            prod = cd_mul(mu, entry)
            conditions.append([c.im for c in prod.coeffs])
    # system matrix: 8 unknown mu-coordinates -> stack per-entry conditions
    rows_m = tuple(
        tuple(Scalar(conditions[e * 8 + k][coord]) for k in range(8))
        for e in range(len(row))
        for coord in range(4)
    )
    cands = (
        CDNumber(2, [Scalar(kv[2 * k].re, kv[2 * k + 1].re, gaussian=True) for k in range(4)])
        for kv in linalg.kernel_basis(rows_m)
    )
    mu = next((cand for cand in cands if not cand.is_zero()), None)
    if mu is None:
        raise LiftError("no rationalizing factor for the quaternionic ray", "quat-no-rationalizer")
    b_bar = [cd_mul(mu, entry) for entry in row]
    b = [q.conjugate() for q in b_bar]
    if all(q.is_zero() for q in b):
        raise LiftError("degenerate quaternionic ray", "quat-zero-ray")
    b_rat = []
    for q in b:
        if any(c.im for c in q.coeffs):
            raise LiftError("ray did not rationalize", "quat-ray-irrational")
        b_rat.append(CDNumber(2, [Scalar(c.re) for c in q.coeffs]))
    nb = b_rat[piv].norm()
    if nb.is_zero():
        raise LiftError("pivot of the quaternionic ray is isotropic", "quat-isotropic-pivot")
    kappa = m[piv][piv].real() * nb.to_gaussian().inverse()
    recon = _quat_rank1(kappa, b_rat)
    if recon != cdm.from_rows(m):
        raise LiftError("quaternionic ray did not reconstruct the block", "quat-ray-mismatch")
    return b_rat, kappa


def _quat_rank1(kappa, b):
    return cdm.from_rows(
        [cd_mul(b[i].complexify(), b[j].conjugate().complexify()).scale(kappa) for j in range(3)]
        for i in range(3)
    )


def _quat_split(m):
    """Split rank-two m into two commuting rank-one blocks via the exact
    spectral invariants of the hermitian pair."""
    tr = cdm.trace_real(m)
    m2 = cdm.mul(m, m)
    tr2 = cdm.trace_real(m2)
    half = Scalar(Fraction(1, 2), 0, True)
    prod = (tr * tr - tr2) * half
    disc = tr * tr - Scalar(4, 0, True) * prod
    root = disc.sqrt()
    if root is None or root.is_zero():
        raise LiftError(
            "quaternionic splitting invariants are not separable", "quat-split-inseparable"
        )
    lam1 = (tr + root) * half
    lam2 = (tr - root) * half
    denom = (lam1 - lam2).inverse()
    m1 = cdm.scale(cdm.sub(m2, cdm.scale(m, lam2)), denom)
    m2b = cdm.sub(m, m1)
    out = [_quat_rank1_data(m1), _quat_rank1_data(m2b)]
    b1, b2 = out[0][0], out[1][0]
    cross = CDNumber.zero(2)
    for p, q in zip(b1, b2):
        cross = cross + cd_mul(p.conjugate(), q)
    if not cross.is_zero():
        raise LiftError("split rays are not conjugate-orthogonal", "quat-split-not-orthogonal")
    return out


def _quat_component_columns(b, kappa, budget):
    """Columns (xi, upsilon) realizing kappa * b conj(b)^T with the balance
    condition; kappa must factor as (1 + i c)^2 * nu with c rational and
    nu > 0 rational."""
    x, y = kappa.re, kappa.im
    params = None
    if y == 0:
        if x > 0:
            params = (Fraction(0), x)
        elif x < 0:
            params = (Fraction(2), -x / 3)
    else:
        disc = x * x + y * y
        from .scalars import _rational_sqrt

        root = _rational_sqrt(disc)
        if root is not None:
            for r in (root, -root):
                c = (-x + r) / y
                if c:
                    nu = y / (2 * c)
                    if nu > 0 and (1 - c * c) * nu == x:
                        params = (c, nu)
                        break
    if params is None:
        return None
    c, nu = params
    if budget < 1:
        return None
    q = four_squares(nu)
    g1 = CDNumber(2, [Scalar(t) for t in q])
    xi_col = tuple(cd_mul(bi, g1) for bi in b)
    cs = Scalar(c)
    up_col = tuple(e.scale(cs) for e in xi_col)
    return [(xi_col, up_col)]


# -- samplers for round-trip tests ---------------------------------------------------


def liftable_sample(case, rank, s, rng) -> JordanElement:
    """A rank-`rank` complexified element inside the exactly liftable locus."""
    if rank == 0:
        return JordanElement.zero(CASE_ALGEBRA[case], gaussian=True)
    if case == "complex":
        # every reduced point of the plain rational zero level lifts back
        return reduced_point(zero_level_sample(case, s, rank, rng, enrich=False))
    if case == "real":
        return _real_liftable(rank, s, rng)
    return _quat_liftable(rank, s, rng)


def _real_liftable(rank, s, rng):
    for _ in draws("lifts._real_liftable"):
        v1 = tuple(rand_scalar(rng, True) for _ in range(3))
        if _herm_dot(v1, v1).is_zero():
            continue
        vecs = [v1]
        if rank == 2:
            w = tuple(rand_scalar(rng, True) for _ in range(3))
            proj = _herm_dot(v1, w) * _herm_dot(v1, v1).inverse()
            v2 = tuple(b - proj * a for a, b in zip(v1, w))
            if all(x.is_zero() for x in v2) or _herm_dot(v2, v2).is_zero():
                continue
            vecs.append(v2)
        budgets = _budget_split(s, rank)
        coeffs = []
        for budget in budgets:
            witness = rng.choice([w for w in _WITNESSES if len(w) <= budget])
            x = rand_scalar(rng, True)
            if x.is_zero():
                x = Scalar(1, 1, True)
            coeffs.append(x * x * _gaussian(sum(t * t for t in witness)))
        m = _sym_rank1(coeffs[0], vecs[0])
        if rank == 2:
            m = linalg.add(m, _sym_rank1(coeffs[1], vecs[1]))
        if rank == 2:
            lam = [
                (c * c.conjugate()) * _herm_dot(v, v) * _herm_dot(v, v)
                for c, v in zip(coeffs, vecs)
            ]
            if lam[0] == lam[1]:
                continue
        z_mat = linalg.scale(m, Scalar(0, Fraction(-1, 2), True))  # Z = M/(2i)
        elt = from_symmetric_matrix(z_mat)
        if jordan_rank(elt) == rank:
            return elt


def _quat_liftable(rank, s, rng):
    for _ in draws("lifts._quat_liftable"):
        b1 = tuple(rand_cd(2, rng) for _ in range(3))
        n1 = sum((q.norm().re for q in b1), Fraction(0))
        if not n1:
            continue
        comps = [b1]
        if rank == 2:
            w = tuple(rand_cd(2, rng) for _ in range(3))
            dot = CDNumber.zero(2)
            for p, q in zip(b1, w):
                dot = dot + cd_mul(p.conjugate(), q)
            coeff = dot.scale(Scalar(Fraction(1) / n1))
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
        z_mat = cdm.scale(m, Scalar(0, Fraction(-1, 2), True))
        elt = JordanElement.from_matrix("H", z_mat)
        if jordan_rank(elt) == rank:
            return elt
