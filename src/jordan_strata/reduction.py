"""Dual-pair momentum maps on W = Hom(K^s, K^6) for K = R, C, H.

The three cases live on V = K^6 with the skew(-hermitian) form given by the
block matrix B = [[0, I3], [-I3, 0]]; the compact side H acts on K^s through
its standard positive hermitian form, the noncompact side G = U(V, B) is
Sp(3,R), U(3,3) or O*(12).  Writing a map as stacked 3 x s blocks
alpha = [xi; upsilon],

    dagger(alpha)   = [ conj(upsilon)^T  |  -conj(xi)^T ]
    mu_H(alpha)     = -dagger(alpha) alpha
    mu_G(alpha)     =  alpha dagger(alpha)

and both momentum maps satisfy the hamiltonian identity exactly for the
half-trace pairing <A, B> = Re tr(AB) / 2, which is how the normalization of
the symplectic form omega_W(a, b) = sum_t Re B(a e_t, b e_t) is pinned.

The zero level mu_H = 0 reduces onto the rank <= s part of the complexified
Jordan algebra: with C = xi + i upsilon (Gaussian base),

    2i Z = C conj(C)^T,     Z = reduced_point(alpha),

where conj is the Cayley-Dickson conjugation only (the complexification unit
i is untouched), and mu_H = 0 becomes the Gram balance/reality conditions of
the factorization.  hilbert_lift inverts this factorization over Q(i); exact
rational lifts only exist on square-class-compatible loci, so the lift
reports failure outside them and the samplers below generate inside them,
by construction: ``zero_level_sample`` re-tests neither zero level nor rank.

Both maps are sums over the columns u_t = alpha e_t of K^6, which is how
``zero_level_point`` computes them.  With
B(u, v) = sum_{r<3} conj(u_r) v_{r+3} - conj(u_{r+3}) v_r,

    mu_H(alpha)[t][t'] = B(u_t, u_t'),     Z = w + i x_p = sum_t q(u_t),

where 2 w_ij(u) = u_i conj(u_{j+3}) + u_{i+3} conj(u_j) and
2 x_ij(u) = u_{i+3} conj(u_{j+3}) - u_i conj(u_j).  B is skew-hermitian, so
the zero test reads t <= t' only.  b and q are compiled once per case from
the unit table (``column_tables``) and contracted on each column's integers;
``mu_h`` and the p-blocks of ``mu_g`` are the matrix route, which the tests
keep as the oracle.

Group moves are applied by their factors.  An element of G = U(V, B) is drawn
as y = [[I, X], [0, I]] diag(g, (g*)^-1) [[I, 0], [Y, I]] with X, Y hermitian;
``g_group_element`` forms y blockwise and the sampler moves alpha by the
factors without forming y.  Words in H are built by column operations on the
identity and are unitary, so ``act_h`` multiplies by x* for x^-1.  The
oscillator's angular momentum J = mu_H is one integer pass over the upper
triangle, over a common denominator.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import cdmatrix as cdm
from . import linalg
from .bilinear import Bilinear, over_lcm
from .cayley_dickson import LEVEL_OF_ALGEBRA, CDNumber, cd_mul, unit_product
from .jordan import JordanElement, jordan_rank
from .scalars import Scalar, json_int, json_rational, rational_to_json
from .strata import draws, rand_cd, rand_cd_matrix

CASE_ALGEBRA = {"real": "R", "complex": "C", "quaternionic": "H"}
CASE_LEVEL = {case: LEVEL_OF_ALGEBRA[algebra] for case, algebra in CASE_ALGEBRA.items()}
CASE_RANK = 3
N_V = 6


class LiftError(ValueError):
    """No exact rational lift was found (square-class obstruction or input
    outside the documented constructive families).

    ``reason`` is one of ``REASONS``, a fixed code for each place in ``lifts``
    that gives up, so callers can tally obstructions without parsing the
    message.  "missed-zero-level" and "round-trip-failed" come from the one
    post-condition of a lift, the final ``zero_level_point`` round trip; the
    rest name the construction step that found no exact lift.
    """

    REASONS = (
        "search-cut",
        "missed-zero-level",
        "round-trip-failed",
        "real-split-rank",
        "real-split-irrational",
        "real-repeated-no-split",
        "real-square-class",
        "complex-rank-three",
        "complex-balance-not-square",
        "complex-balance-not-norm",
        "complex-balance-discriminant",
        "complex-balance-no-gauge",
        "quat-rank-three",
        "quat-class",
        "quat-isotropic-diagonal",
        "quat-ray-irrational",
        "quat-split-inseparable",
    )

    def __init__(self, message, reason):
        if reason not in self.REASONS:
            raise ValueError(f"unknown lift failure reason {reason!r}")
        super().__init__(message)
        self.reason = reason


class WMap:
    """A K-linear map K^s -> K^6, stored as a 6 x s matrix over K."""

    __slots__ = ("case", "s", "matrix")

    def __init__(self, case, matrix):
        if case not in CASE_LEVEL:
            raise ValueError(f"unknown case {case!r}")
        matrix = cdm.from_rows(matrix)
        level = CASE_LEVEL[case]
        if len(matrix) != N_V:
            raise ValueError("matrix must have 6 rows")
        for row in matrix:
            for q in row:
                if q.level != level or q.gaussian:
                    raise ValueError("entry level/ring does not match the case")
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "s", len(matrix[0]))
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("WMap is immutable")

    @staticmethod
    def zero(case, s):
        return WMap(case, cdm.zero(N_V, s, CASE_LEVEL[case]))

    def __eq__(self, other):
        if not isinstance(other, WMap):
            return NotImplemented
        return self.case == other.case and self.matrix == other.matrix

    def __repr__(self):
        return f"WMap({self.case}, s={self.s})"

    def blocks(self):
        return self.matrix[:3], self.matrix[3:]

    def to_json(self):
        return {
            "case": self.case,
            "s": self.s,
            "matrix": [[q.to_json() for q in row] for row in self.matrix],
        }

    @staticmethod
    def from_json(obj):
        matrix = [[CDNumber.from_json(q) for q in row] for row in obj["matrix"]]
        w = WMap(obj["case"], matrix)
        if w.s != json_int(obj["s"]):
            raise ValueError("column count disagrees with the encoding")
        return w


def dagger(alpha: WMap):
    """The B-adjoint: the unique beta with (beta u, v) = B(u, alpha v)."""
    xi, up = alpha.blocks()
    left = cdm.conj_transpose(up)
    right = cdm.neg(cdm.conj_transpose(xi))
    return tuple(lr + rr for lr, rr in zip(left, right))


def mu_h(alpha: WMap):
    return cdm.neg(cdm.mul(dagger(alpha), alpha.matrix))


def mu_g(alpha: WMap):
    return cdm.mul(alpha.matrix, dagger(alpha))


def b_form(case, u, v):
    """B(u, v) for 6-vectors over K; K-valued."""
    level = CASE_LEVEL[case]
    g = u[0].gaussian
    acc = CDNumber.zero(level, g)
    for r in range(3):
        acc = acc + cd_mul(u[r].conjugate(), v[r + 3])
        acc = acc - cd_mul(u[r + 3].conjugate(), v[r])
    return acc


def symplectic_gram(maps, others=None):
    """The matrix of omega_W(alpha, beta) = sum_t Re B(alpha e_t, beta e_t)
    for alpha in ``maps`` and beta in ``others`` (default: ``maps``).

    Since Re(conj(x) y) = sum_k x_k y_k, each entry is the coordinate pairing
    sum_t sum_{r<3} <alpha_{r,t}, beta_{r+3,t}> - <alpha_{r+3,t}, beta_{r,t}>,
    one integer dot product; each map's integer coordinates are read once.
    """
    others = maps if others is None else others
    if len({(w.case, w.s) for w in (*maps, *others)}) > 1:
        raise ValueError("case or size mismatch")

    def coords(w):  # rows 0-2 first, so the halves are the xi and upsilon blocks
        vs, den = over_lcm([x for row in w.matrix for x in row])
        v = [c for u in vs for c in u]
        return v[: len(v) // 2], v[len(v) // 2 :], den

    def omega(a, b, zero=Scalar.zero()):
        (u1, u2, du), (v1, v2, dv) = a, b
        x = sum(map(operator.mul, u1, v2)) - sum(map(operator.mul, u2, v1))
        return Scalar(Fraction(x, du * dv)) if x else zero

    right = [coords(w) for w in others]
    return tuple(tuple(omega(a, b) for b in right) for a in map(coords, maps))


def symplectic_form(alpha: WMap, beta: WMap) -> Scalar:
    """omega_W(alpha, beta), the one-pair case of ``symplectic_gram``."""
    return symplectic_gram((alpha,), (beta,))[0][0]


def half_trace_pairing(a, b) -> Scalar:
    """<A, B> = Re tr(A B) / 2, the pairing identifying h and g with duals."""
    return cdm.trace_real(cdm.mul(a, b)).__mul__(Scalar(Fraction(1, 2)))


def h_infinitesimal(alpha: WMap, xi) -> WMap:
    """Vector field of the H-action alpha -> alpha x^-1, at xi in Lie(H)."""
    return WMap(alpha.case, cdm.neg(cdm.mul(alpha.matrix, xi)))


def g_infinitesimal(alpha: WMap, eta) -> WMap:
    """Vector field of the G-action alpha -> y alpha, at eta in Lie(G)."""
    return WMap(alpha.case, cdm.mul(eta, alpha.matrix))


def moment_identity_residual_h(alpha: WMap, xi, delta: WMap) -> Scalar:
    """d<mu_H, xi> at alpha in direction delta, minus omega(xi . alpha, delta)."""
    d_mu = cdm.neg(
        cdm.add(
            cdm.mul(dagger(alpha), delta.matrix), cdm.mul(dagger(delta), alpha.matrix)
        )
    )
    lhs = half_trace_pairing(d_mu, xi)
    rhs = symplectic_form(h_infinitesimal(alpha, xi), delta)
    return lhs - rhs


def moment_identity_residual_g(alpha: WMap, eta, delta: WMap) -> Scalar:
    d_mu = cdm.add(
        cdm.mul(alpha.matrix, dagger(delta)), cdm.mul(delta.matrix, dagger(alpha))
    )
    lhs = half_trace_pairing(d_mu, eta)
    rhs = symplectic_form(g_infinitesimal(alpha, eta), delta)
    return lhs - rhs


def in_lie_h(xi) -> bool:
    """Anti-hermitian for the standard positive form on K^s."""
    return cdm.is_zero(cdm.add(xi, cdm.conj_transpose(xi)))


def in_lie_g(m) -> bool:
    """conj(M)^T B + B M = 0 for B = [[0, I3], [-I3, 0]], read off the 3x3
    blocks M = [[A, X], [Y, D]]: the left side is

        [[Y - conj(Y)^T, D + conj(A)^T], [-A - conj(D)^T, conj(X)^T - X]],

    so it vanishes exactly when X and Y are hermitian and D = -conj(A)^T."""
    star = cdm.conj_transpose
    a, x = [r[:3] for r in m[:3]], [r[3:] for r in m[:3]]
    y, d = [r[:3] for r in m[3:]], [r[3:] for r in m[3:]]
    return (
        cdm.is_zero(cdm.sub(x, star(x)))
        and cdm.is_zero(cdm.sub(y, star(y)))
        and cdm.is_zero(cdm.add(d, star(a)))
    )


# -- group elements (exact rational points, used for equivariance tests) --------


def h_group_element(case, s, rng):
    """A random unitary word of three exact generators of H = O(s) / U(s) / Sp(s):
    a column swap, a column times a signed unit, a 3-4-5 rotation of two."""
    level = CASE_LEVEL[case]
    cols = [list(c) for c in cdm.identity(s, level)]
    for _ in range(3):
        kind = rng.choice(["perm", "unit", "rot"] if s > 1 else ["unit"])
        if kind == "unit":
            i, k = rng.randrange(s), rng.randrange(1 << level)
            u = CDNumber.unit(level, k).scale(rng.choice([1, -1]))
            cols[i] = [x * u for x in cols[i]]
            continue
        i, j = rng.sample(range(s), 2)
        if kind == "perm":
            cols[i], cols[j] = cols[j], cols[i]
        else:  # columns (i, j) -> (3 c_i + 4 c_j, 3 c_j - 4 c_i) / 5
            cols[i], cols[j] = (
                [_turn(a, b, 4) for a, b in zip(cols[i], cols[j])],
                [_turn(b, a, -4) for a, b in zip(cols[i], cols[j])],
            )
    return tuple(zip(*cols))


def _turn(a, b, d):
    """(3 a + d b) / 5 for entries a and b of one ring, in integers."""
    return a._like([3 * x * b.den + d * y * a.den for x, y in zip(a.v, b.v)], 5 * a.den * b.den)


def _g_factors(case, rng):
    """(X, g, h, Y) with X, Y hermitian and h = (g*)^-1, drawn in this order:
    the factors of y = [[I, X], [0, I]] diag(g, h) [[I, 0], [Y, I]] in G."""
    level = CASE_LEVEL[case]
    x = _random_hermitian(level, 3, rng, span=1)
    g, h = _g_block_diag(case, rng)
    return x, g, h, _random_hermitian(level, 3, rng, span=1)


def g_group_element(case, rng):
    """A random element y = [[g + X h Y, X h], [h Y, h]] of G = U(V, B)."""
    x, g, h, y = _g_factors(case, rng)
    xh = cdm.mul(x, h)
    left = cdm.add(g, cdm.mul(xh, y)) + cdm.mul(h, y)
    return tuple(a + b for a, b in zip(left, xh + h))


def _g_block_diag(case, rng):
    """(g, h = (g*)^-1), the blocks of diag(g, h) in G."""
    level = CASE_LEVEL[case]
    for _ in draws("reduction._g_block_diag"):
        g = rand_cd_matrix(level, 3, 3, rng)
        try:
            return g, cdm.inverse(cdm.conj_transpose(g))
        except ZeroDivisionError:
            continue


def _g_move(alpha: WMap, factors) -> WMap:
    """y alpha for the word y of ``factors``, never formed: for alpha = [A; B],
    B' = h (Y A + B) and A' = g A + X B'."""
    x, g, h, y = factors
    top, bot = alpha.blocks()
    bot = cdm.mul(h, cdm.add(cdm.mul(y, top), bot))
    return WMap(alpha.case, cdm.add(cdm.mul(g, top), cdm.mul(x, bot)) + bot)


def act_h(alpha: WMap, x) -> WMap:
    """alpha -> alpha x^-1 = alpha x*, for x in H (unitary)."""
    return WMap(alpha.case, cdm.mul(alpha.matrix, cdm.conj_transpose(x)))


def act_g(alpha: WMap, y) -> WMap:
    """alpha -> y alpha."""
    return WMap(alpha.case, cdm.mul(y, alpha.matrix))


# -- reduction to the complexified Jordan algebra -------------------------------


@lru_cache(maxsize=None)
def column_tables(case):
    """(b, q): the two quadratic maps of ``zero_level_point`` compiled on the
    6d integer coordinates of one column u of a map (row by row, unit by unit).

    b(u, v) is B(u, v) on the d units of K.  q(u, u) is 2(3 + 3d) coordinates
    in ``JordanElement`` order, w(u) then x_p(u), with entries
    2 w_ij = u_i conj(u_{j+3}) + u_{i+3} conj(u_j) and
    2 x_ij = u_{i+3} conj(u_{j+3}) - u_i conj(u_j) (real parts on the
    diagonal).  Both are read off ``unit_product`` and the conjugation signs.
    """
    level = CASE_LEVEL[case]
    d, n = 1 << level, JordanElement.space_dim(CASE_ALGEBRA[case])
    # every (row, column) cell below is written once: the pair of rows of u
    # fixes the term, and the pair of units fixes k
    b_rows = [[()] * (6 * d) for _ in range(6 * d)]
    q_rows = [[()] * (6 * d) for _ in range(6 * d)]
    for a in range(d):
        for c in range(d):
            k, sign = unit_product(level, a, c)
            left = sign if a == 0 else -sign  # conj(e_a) e_c
            right = sign if c == 0 else -sign  # e_a conj(e_c)
            for r in range(3):
                b_rows[r * d + a][(r + 3) * d + c] = ((k, left),)
                b_rows[(r + 3) * d + a][r * d + c] = ((k, -left),)
            for i in range(3):
                for j in range(i, 3):
                    if i == j and k:
                        continue
                    at = i if i == j else 3 + (3 - i - j) * d + k  # off-diagonal (x, y, z)
                    # (p, t, sign, offset): u_p conj(u_t) enters w (offset 0) or x_p (offset n)
                    terms = ((i, j + 3, 1, 0), (i + 3, j, 1, 0), (i + 3, j + 3, 1, n), (i, j, -1, n))
                    for p, t, s, im in terms:
                        q_rows[p * d + a][t * d + c] = ((at + im, s * right),)
    return Bilinear(b_rows, 1), Bilinear(q_rows, 2)


def _zero_level_columns(alpha: WMap):
    """The nonzero columns u_t = alpha e_t as (integers, den), each over the
    lcm of its own entries' denominators, or None at the first t' <= t with
    mu_H(alpha)[t'][t] = B(u_t', u_t) != 0 (mu_H is skew-hermitian)."""
    b = column_tables(alpha.case)[0]
    d = 1 << CASE_LEVEL[alpha.case]
    cols = []
    for col in zip(*alpha.matrix):
        vs, den = over_lcm(col)
        u = [c for v in vs for c in v]
        if not any(u):
            continue
        cols.append((u, den))
        if any(any(b.contract(w, u, acc=[0] * d)) for w, _ in cols):
            return None
    return cols


def zero_level_point(alpha: WMap):
    """``reduced_point(alpha)``, or None when mu_H(alpha) != 0: Z is the sum of
    q(u_t) over the columns, taken over one common denominator."""
    cols = _zero_level_columns(alpha)
    if cols is None:
        return None
    q, algebra = column_tables(alpha.case)[1], CASE_ALGEBRA[alpha.case]
    den = lcm(*[dt * dt for _, dt in cols])
    acc = [0] * (2 * JordanElement.space_dim(algebra))
    for u, dt in cols:
        f = den // (dt * dt)
        q.contract([c * f for c in u] if f != 1 else u, u, acc=acc)
    return JordanElement._of(algebra, True, acc, den * q.den)


def reduced_point(alpha: WMap) -> JordanElement:
    """Project mu_G(alpha) to p and read it as a complexified Jordan element.

    The identification sends the p-part with blocks (w, x_p) to w + i x_p.
    Requires mu_H(alpha) = 0 exactly.
    """
    z = zero_level_point(alpha)
    if z is None:
        raise ValueError("alpha is not in the zero level of mu_H")
    return z


def stratum(alpha: WMap) -> int:
    return jordan_rank(reduced_point(alpha))


# -- zero-level samplers ----------------------------------------------------------


def zero_level_sample(case, s, target_rank, rng, enrich=True) -> WMap:
    """alpha with mu_H(alpha) = 0 and reduced stratum exactly target_rank.

    Both hold by construction and are not re-tested.  xi has k = target_rank
    columns, redrawn until N = xi* xi is invertible, i.e. xi has rank k;
    upsilon is 0 or xi N^-1 S with S hermitian, so xi* upsilon = S balances
    mu_H.  Then C = xi (I + iA) with A = N^-1 S, whose eigenvalues are real (A
    is similar to a hermitian matrix), so in the matrix models (C: e1 -> i;
    H: 2x2 complex blocks) 2i Z = xi (I + iA)(I + iA*) xi* has rank k.  The
    optional G and H moves keep the zero level and the stratum.
    """
    k = target_rank
    if not 0 <= k <= min(s, CASE_RANK):
        raise ValueError("target rank must be between 0 and min(s, 3)")
    level = CASE_LEVEL[case]
    if k == 0:
        return WMap.zero(case, s)
    for _ in draws("reduction.zero_level_sample"):
        xi1 = rand_cd_matrix(level, 3, k, rng)
        n = cdm.mul(cdm.conj_transpose(xi1), xi1)
        try:
            ninv = cdm.inverse(n)
        except ZeroDivisionError:
            continue
        if rng.random() < 0.3:
            up1 = cdm.zero(3, k, level)
        else:
            s_herm = _random_hermitian(level, k, rng)
            up1 = cdm.mul(xi1, cdm.mul(ninv, s_herm))
        alpha = WMap(case, [r + z for r, z in zip(xi1 + up1, cdm.zero(6, s - k, level))])
        if enrich:
            alpha = _g_move(alpha, _g_factors(case, rng))
            alpha = act_h(alpha, h_group_element(case, s, rng))
        return alpha


def _random_hermitian(level, k, rng, span=2):
    """A k x k hermitian matrix: integers on the diagonal, ``rand_cd`` above it."""
    rows = [[None] * k for _ in range(k)]
    pad = (0,) * ((1 << level) - 1)
    for i in range(k):
        rows[i][i] = CDNumber._of(level, False, (rng.randint(-span, span),) + pad, 1)
    for i in range(k):
        for j in range(i + 1, k):
            q = rand_cd(level, rng, span=span)
            rows[i][j] = q
            rows[j][i] = q.conjugate()
    return cdm.from_rows(rows)


def dims_projective_chain(case):
    """Complex dimensions of P[W(1)] in P[W(2)] in P[W(3)]."""
    real_dim_per_s = N_V << CASE_LEVEL[case]
    return tuple(real_dim_per_s * s // 2 - 1 for s in (1, 2, 3))


# -- oscillator picture of the real case ------------------------------------------


class OscillatorConfig:
    """Positions and momenta of 3 particles in R^s, exact rationals.

    Encodes a real-case WMap: position coordinates fill the top block, the
    momenta the bottom block, so the a-th column of the map collects the a-th
    coordinate of every particle.
    """

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        q = tuple(tuple(Fraction(x) for x in row) for row in q)
        p = tuple(tuple(Fraction(x) for x in row) for row in p)
        if len(q) != 3 or len(p) != 3:
            raise ValueError("expected 3 particles")
        widths = {len(r) for r in q} | {len(r) for r in p}
        if len(widths) != 1:
            raise ValueError("positions and momenta must share a dimension")
        if widths == {0}:
            raise ValueError("particles need at least one coordinate")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("OscillatorConfig is immutable")

    @property
    def s(self):
        return len(self.q[0])

    def to_json(self):
        return {k: [[rational_to_json(x) for x in row] for row in getattr(self, k)] for k in "qp"}

    @staticmethod
    def from_json(obj):
        """Entries are [n, d] pairs or bare integers."""
        q, p = ([[json_rational(x, entry=True) for x in row] for row in obj[k]] for k in "qp")
        return OscillatorConfig(q, p)


def encode_oscillator(c: OscillatorConfig) -> WMap:
    return WMap("real", [[CDNumber._of(0, False, (x.numerator,), x.denominator) for x in row]
                         for row in c.q + c.p])


def angular_momentum(c: OscillatorConfig):
    """J_ab = sum_i (q_i^a p_i^b - q_i^b p_i^a), a skew s x s matrix: one
    integer pass over the upper triangle, over den^2 for den the lcm of every
    denominator of q and p."""
    den = lcm(*[x.denominator for row in c.q + c.p for x in row])
    q, p = ([[x.numerator * (den // x.denominator) for x in row] for row in m] for m in (c.q, c.p))
    s, d2, zero = c.s, den * den, Fraction(0)
    out = [[zero] * s for _ in range(s)]
    for a in range(s):
        for b in range(a + 1, s):
            n = sum(qi[a] * pi[b] - qi[b] * pi[a] for qi, pi in zip(q, p))
            if n:
                out[a][b] = Fraction(n, d2)
                out[b][a] = -out[a][b]
    return tuple(map(tuple, out))


def classify_config(c: OscillatorConfig) -> int:
    """dim span{q_i, p_i} in R^s, clamped to the rank bound 3.

    For zero angular momentum this equals the Jordan-rank stratum of the
    reduced point of the encoded map.
    """
    return min(linalg.frac_rank(c.q + c.p), CASE_RANK)


def oscillator_sample(s, target_rank, rng) -> OscillatorConfig:
    """A zero-angular-momentum configuration with the given stratum."""
    alpha = zero_level_sample("real", s, target_rank, rng)
    q = tuple(tuple(Fraction(x.v[0], x.den) for x in row) for row in alpha.matrix[:3])
    p = tuple(tuple(Fraction(x.v[0], x.den) for x in row) for row in alpha.matrix[3:])
    return OscillatorConfig(q, p)
