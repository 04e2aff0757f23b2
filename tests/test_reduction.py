import ast
import inspect
import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from jordan_strata import cdmatrix as cdm
from jordan_strata import cli, lifts, scalars
from jordan_strata.cayley_dickson import CDNumber, cd_mul
from jordan_strata.jordan import (
    JordanElement,
    from_general_matrix,
    from_symmetric_matrix,
    jordan_rank,
)
from jordan_strata.lifts import LiftError, hilbert_lift, liftable_sample
from jordan_strata.reduction import (
    _g_factors,
    _g_move,
    CASE_ALGEBRA,
    CASE_LEVEL,
    OscillatorConfig,
    WMap,
    _random_hermitian,
    act_g,
    act_h,
    angular_momentum,
    b_form,
    classify_config,
    dagger,
    dims_projective_chain,
    encode_oscillator,
    g_group_element,
    g_infinitesimal,
    h_group_element,
    h_infinitesimal,
    in_lie_g,
    in_lie_h,
    moment_identity_residual_g,
    moment_identity_residual_h,
    mu_g,
    mu_h,
    oscillator_sample,
    reduced_point,
    stratum,
    symplectic_form,
    zero_level_point,
    zero_level_sample,
)
from jordan_strata import suites
from jordan_strata.cli import main
from jordan_strata.scalars import Scalar
from jordan_strata.poisson import matrix_g_basis
from jordan_strata.strata import rand_cd, rand_cd_matrix, rank_k_sample
from jordan_strata.suites import run_suite
from test_cdmatrix import reference_mul
from test_jordan import combine_real_imag
from test_linalg import school_mul

CASES = ("real", "complex", "quaternionic")


# -- the matrix route, the oracle for zero_level_point ---------------------------


def p_projection_blocks(alpha: WMap):
    """(w, x_p): hermitian 3x3 K-matrices of the p-part of mu_G(alpha).

    With dagger(alpha) = [L | R], mu_G = [[xi L, xi R], [upsilon L, upsilon R]]:
    w is the hermitian part of xi L and x_p half of xi R + upsilon L, taken
    as one product [xi | upsilon][R; L]; upsilon R is never formed."""
    xi, up = alpha.blocks()
    left, right = cdm.conj_transpose(up), cdm.neg(cdm.conj_transpose(xi))
    a = cdm.mul(xi, left)
    x_plus_y = cdm.mul(tuple(r + q for r, q in zip(xi, up)), right + left)
    half = Scalar(Fraction(1, 2))
    return cdm.scale(cdm.add(a, cdm.conj_transpose(a)), half), cdm.scale(x_plus_y, half)


def matrix_route_point(alpha: WMap):
    """The reduced point through mu_H, the p-blocks of mu_G and ``from_matrix``,
    or None off the zero level."""
    if not cdm.is_zero(mu_h(alpha)):
        return None
    w, xp = p_projection_blocks(alpha)
    algebra = CASE_ALGEBRA[alpha.case]
    return combine_real_imag(
        JordanElement.from_matrix(algebra, w), JordanElement.from_matrix(algebra, xp)
    )


def moment_identity_check(alpha: WMap, generator, delta: WMap, side="h") -> Scalar:
    """Residual of the hamiltonian identity for either momentum map.

    Exactly zero for every generator and direction: the maps are quadratic,
    so the derivative below is an exact bilinear expression.
    """
    if side == "h":
        return moment_identity_residual_h(alpha, generator, delta)
    if side == "g":
        return moment_identity_residual_g(alpha, generator, delta)
    raise ValueError("side must be 'h' or 'g'")


def rand_wmap(case, s, rng, span=2):
    level = CASE_LEVEL[case]
    rows = [
        [
            CDNumber(
                level,
                [Scalar(Fraction(rng.randint(-span, span), rng.choice([1, 2])))
                 for _ in range(1 << level)],
            )
            for _ in range(s)
        ]
        for _ in range(6)
    ]
    return WMap(case, rows)


def rand_lie_h(case, s, rng):
    level = CASE_LEVEL[case]
    rows = [[CDNumber.zero(level) for _ in range(s)] for _ in range(s)]
    for i in range(s):
        coeffs = [Scalar(0)] + [Scalar(Fraction(rng.randint(-2, 2)))
                                for _ in range((1 << level) - 1)]
        rows[i][i] = CDNumber(level, coeffs)
    for i in range(s):
        for j in range(i + 1, s):
            q = CDNumber(level, [Scalar(Fraction(rng.randint(-2, 2)))
                                 for _ in range(1 << level)])
            rows[i][j] = q
            rows[j][i] = -q.conjugate()
    return cdm.from_rows(rows)


def rand_lie_g(case, rng):
    level = CASE_LEVEL[case]
    a = cdm.from_rows(
        [
            [CDNumber(level, [Scalar(Fraction(rng.randint(-2, 2)))
                              for _ in range(1 << level)]) for _ in range(3)]
            for _ in range(3)
        ]
    )
    x = _random_hermitian(level, 3, rng)
    y = _random_hermitian(level, 3, rng)
    ma = cdm.neg(cdm.conj_transpose(a))
    return tuple(ra + rx for ra, rx in zip(a, x)) + tuple(
        ry + rm for ry, rm in zip(y, ma)
    )


@pytest.mark.parametrize("case", CASES)
def test_dagger_defining_identity_on_basis_pairs(case):
    rng = random.Random(0)
    s, level = 2, CASE_LEVEL[case]
    for _ in range(5):
        alpha = rand_wmap(case, s, rng)
        dag = dagger(alpha)
        for r in range(6):
            u = [CDNumber.zero(level) for _ in range(6)]
            u[r] = CDNumber.one(level)
            for t in range(s):
                v = [CDNumber.zero(level) for _ in range(s)]
                v[t] = CDNumber.one(level)
                du = [
                    sum((cd_mul(dag[i][k], u[k]) for k in range(6)),
                        CDNumber.zero(level))
                    for i in range(s)
                ]
                lhs = sum(
                    (cd_mul(du[i].conjugate(), v[i]) for i in range(s)),
                    CDNumber.zero(level),
                )
                av = [
                    sum((cd_mul(alpha.matrix[k][t2], v[t2]) for t2 in range(s)),
                        CDNumber.zero(level))
                    for k in range(6)
                ]
                assert lhs == b_form(case, u, av)


@pytest.mark.parametrize("case", CASES)
def test_zero_map_and_membership(case):
    rng = random.Random(1)
    zero = WMap.zero(case, 2)
    assert cdm.is_zero(mu_h(zero)) and cdm.is_zero(mu_g(zero))
    for _ in range(10):
        alpha = rand_wmap(case, 2, rng)
        assert in_lie_h(mu_h(alpha))
        assert in_lie_g(mu_g(alpha))


def lie_g_by_definition(case, m):
    """conj(M)^T B + B M = 0 with B = [[0, I3], [-I3, 0]] written out and
    multiplied by ``cdm.mul``: the oracle of ``in_lie_g``'s block test."""
    level = CASE_LEVEL[case]
    z, o = CDNumber.zero(level), CDNumber.one(level)
    b = [[o if j == i + 3 else -o if i == j + 3 else z for j in range(6)] for i in range(6)]
    return cdm.is_zero(cdm.add(cdm.mul(cdm.conj_transpose(m), b), cdm.mul(b, m)))


def with_entry_added(m, i, j, q):
    """m with q added to its entry (i, j)."""
    return tuple(tuple(x + q if (r, c) == (i, j) else x for c, x in enumerate(row))
                 for r, row in enumerate(m))


@pytest.mark.parametrize("case", CASES)
def test_lie_membership_refuses_each_broken_condition(case):
    # M = [[A, X], [Y, D]] lies in Lie(G) exactly when X and Y are hermitian
    # and D = -conj(A)^T; a unit added to one entry of a member breaks one of
    # the three, and a unit added to a member of Lie(H) breaks skew-hermitian
    rng = random.Random(11)
    level = CASE_LEVEL[case]
    one = CDNumber.one(level)
    members = [mu_g(rand_wmap(case, 2, rng)) for _ in range(3)] + matrix_g_basis(case)[:: 1 + level]
    for eta in members:
        assert in_lie_g(eta)
        u = CDNumber.unit(level, rng.randrange(1 << level))
        for i, j in ((0, 4), (4, 0), (3, 3)):  # X[0][1], Y[1][0], D[0][0]
            broken = with_entry_added(eta, i, j, one if (i, j) == (3, 3) else u)
            assert not in_lie_g(broken), (i, j)
            assert not lie_g_by_definition(case, broken), (i, j)
    for _ in range(3):
        xi = mu_h(rand_wmap(case, 2, rng))
        assert in_lie_h(xi)
        assert not in_lie_h(with_entry_added(xi, 0, 0, one))
        assert not in_lie_h(with_entry_added(xi, 0, 1, CDNumber.unit(level, rng.randrange(1 << level))))


@pytest.mark.parametrize("case", CASES)
def test_lie_g_block_test_agrees_with_the_definition(case):
    # every way of drawing the blocks: X and Y hermitian or not, D equal to
    # -conj(A)^T, to +conj(A)^T or drawn freely
    rng = random.Random(12)
    level = CASE_LEVEL[case]
    star = cdm.conj_transpose
    kinds = [(hx, hy, kd) for hx in (False, True) for hy in (False, True)
             for kd in ("minus", "plus", "free")]
    for hermitian_x, hermitian_y, kind_d in kinds * 2:
        a = rand_cd_matrix(level, 3, 3, rng)
        x, y = (_random_hermitian(level, 3, rng) if h else rand_cd_matrix(level, 3, 3, rng)
                for h in (hermitian_x, hermitian_y))
        if kind_d == "free":
            d = rand_cd_matrix(level, 3, 3, rng)
        else:
            d = star(a) if kind_d == "plus" else cdm.neg(star(a))
        m = tuple(ra + rb for ra, rb in zip(a, x)) + tuple(ra + rb for ra, rb in zip(y, d))
        verdict = in_lie_g(m)
        assert verdict == lie_g_by_definition(case, m)
        assert verdict == (hermitian_x and hermitian_y and kind_d == "minus")


@pytest.mark.parametrize("case", CASES)
def test_moment_identity_exact(case):
    rng = random.Random(2)
    for _ in range(8):
        alpha = rand_wmap(case, 2, rng)
        delta = rand_wmap(case, 2, rng)
        xi = rand_lie_h(case, 2, rng)
        eta = rand_lie_g(case, rng)
        assert in_lie_h(xi) and in_lie_g(eta)
        assert moment_identity_residual_h(alpha, xi, delta).is_zero()
        assert moment_identity_residual_g(alpha, eta, delta).is_zero()
        assert moment_identity_check(alpha, xi, delta, side="h").is_zero()
        assert moment_identity_check(alpha, eta, delta, side="g").is_zero()


@pytest.mark.parametrize("case", CASES)
def test_symplectic_form(case):
    rng = random.Random(3)
    for _ in range(10):
        a, b = rand_wmap(case, 2, rng), rand_wmap(case, 2, rng)
        assert symplectic_form(a, a).is_zero()
        assert symplectic_form(a, b) == -symplectic_form(b, a)


@pytest.mark.parametrize("case", CASES)
def test_equivariance(case):
    rng = random.Random(4)
    for _ in range(4):
        alpha = rand_wmap(case, 2, rng)
        for x in [h_group_element(case, 2, rng) for _ in range(2)]:
            assert mu_h(act_h(alpha, x)) == cdm.mul(cdm.mul(x, mu_h(alpha)), cdm.inverse(x))
            assert mu_g(act_h(alpha, x)) == mu_g(alpha)
        for y in [g_group_element(case, rng) for _ in range(2)]:
            assert mu_g(act_g(alpha, y)) == cdm.mul(cdm.mul(y, mu_g(alpha)), cdm.inverse(y))
            assert mu_h(act_g(alpha, y)) == mu_h(alpha)


# -- the dense group builders, the oracle for the words built by their factors ----


def dense_hermitian(level, k, rng, span=2):
    """``_random_hermitian`` with its diagonal built through Scalars."""
    rows = [[CDNumber.zero(level) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        rows[i][i] = CDNumber.from_scalar(level, Scalar(Fraction(rng.randint(-span, span))))
    for i in range(k):
        for j in range(i + 1, k):
            q = rand_cd(level, rng, span=span)
            rows[i][j] = q
            rows[j][i] = q.conjugate()
    return cdm.from_rows(rows)


def dense_g_word(case, rng):
    """S_u D S_l: two dense 6x6 products of the shear [[I, X], [0, I]], the
    block diagonal D = diag(g, (g*)^-1) and the shear [[I, 0], [Y, I]]."""
    level = CASE_LEVEL[case]
    ident, zero = cdm.identity(3, level), cdm.zero(3, 3, level)

    def blocks(a, b, c, d):
        return tuple(r + t for r, t in zip(a, b)) + tuple(r + t for r, t in zip(c, d))

    upper = blocks(ident, dense_hermitian(level, 3, rng, span=1), zero, ident)
    while True:
        g = cdm.from_rows([[rand_cd(level, rng) for _ in range(3)] for _ in range(3)])
        try:
            diag = blocks(g, zero, zero, cdm.inverse(cdm.conj_transpose(g)))
            break
        except ZeroDivisionError:
            continue
    lower = blocks(ident, zero, dense_hermitian(level, 3, rng, span=1), ident)
    return cdm.mul(cdm.mul(upper, diag), lower)


def dense_h_word(case, s, rng):
    """The product of three generator matrices, each a dense s x s product."""
    level = CASE_LEVEL[case]
    word = cdm.identity(s, level)
    for _ in range(3):
        kind = rng.choice(["perm", "unit", "rot"] if s > 1 else ["unit"])
        gen = [list(row) for row in cdm.identity(s, level)]
        if kind == "perm":
            i, j = rng.sample(range(s), 2)
            gen[i], gen[j] = gen[j], gen[i]
        elif kind == "unit":
            i = rng.randrange(s)
            k = rng.randrange(1 << level)
            sign = rng.choice([1, -1])
            u = CDNumber.unit(level, k)
            gen[i][i] = u if sign > 0 else -u
        else:
            i, j = rng.sample(range(s), 2)
            c, d = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
            gen[i][i] = gen[j][j] = CDNumber.from_scalar(level, c)
            gen[i][j] = CDNumber.from_scalar(level, -d)
            gen[j][i] = CDNumber.from_scalar(level, d)
        word = cdm.mul(word, cdm.from_rows(gen))
    return word


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", CASES)
def test_g_words_match_the_dense_products_draw_for_draw(case, seed):
    new, old = random.Random(seed), random.Random(seed)
    words = [g_group_element(case, new) for _ in range(3)]
    assert words == [dense_g_word(case, old) for _ in range(3)]
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", CASES)
def test_factor_action_matches_the_dense_word(case, seed):
    rng = random.Random(seed)
    for s in (1, 2, 3, 4):
        state = rng.getstate()
        y = dense_g_word(case, rng)
        after = rng.getstate()
        rng.setstate(state)
        factors = _g_factors(case, rng)
        assert rng.getstate() == after
        for alpha in (rand_wmap(case, s, rng), zero_level_sample(case, s, min(s, 3), rng, False)):
            assert _g_move(alpha, factors) == WMap(case, cdm.mul(y, alpha.matrix))
            assert _g_move(alpha, factors) == act_g(alpha, y)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", CASES)
def test_h_words_match_the_dense_products_draw_for_draw(case, seed):
    level, maps, rotated = CASE_LEVEL[case], random.Random(seed + 100), False
    for s in (1, 2, 3, 4):
        new, old = random.Random(seed), random.Random(seed)
        ident = cdm.identity(s, level)
        words = [h_group_element(case, s, new) for _ in range(4)]
        assert words == [dense_h_word(case, s, old) for _ in range(4)]
        assert new.getstate() == old.getstate()
        for x in words:
            # unitary under the doubling products, so alpha x^-1 is alpha x*
            xt = cdm.conj_transpose(x)
            assert reference_mul(x, xt) == ident == reference_mul(xt, x)
            alpha = rand_wmap(case, s, maps)
            assert act_h(alpha, x) == WMap(case, cdm.mul(alpha.matrix, cdm.inverse(x)))
            rotated = rotated or any(e.den % 5 == 0 for row in x for e in row)
    assert rotated


def fraction_route_j(c: OscillatorConfig):
    """J entry by entry in Fractions, diagonal and lower triangle included."""
    return tuple(
        tuple(
            sum((c.q[i][a] * c.p[i][b] - c.q[i][b] * c.p[i][a] for i in range(3)), Fraction(0))
            for b in range(c.s)
        )
        for a in range(c.s)
    )


def test_angular_momentum_matches_the_fraction_route(tmp_path, monkeypatch):
    rng = random.Random(17)

    def part(tall):
        if tall:
            return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))

    configs = []
    for s in range(1, 6):
        for tall in (False, True):
            q, p = ([[part(tall) for _ in range(s)] for _ in range(3)] for _ in range(2))
            lam = part(tall)
            configs += [OscillatorConfig(q, p), OscillatorConfig(q, [[lam * x for x in r] for r in q])]
        configs.append(OscillatorConfig([[0] * s] * 3, [[0] * s] * 3))
    configs += [oscillator_sample(s, k, rng) for s in (3, 4) for k in range(4)]
    zero_j = 0
    for c in configs:
        j = angular_momentum(c)
        assert j == fraction_route_j(c)
        assert all(type(x) is Fraction for row in j for x in row)
        zero_j += all(x == 0 for row in j for x in row)
    assert 10 < zero_j < len(configs) - 5

    def reports():
        out = []
        for n, c in enumerate(configs):
            path = tmp_path / f"cfg{n}.json"
            path.write_text(json.dumps(c.to_json()))
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["reduce", str(path)]) == 0
            out.append(buf.getvalue())
        return out

    new = reports()
    monkeypatch.setattr(cli, "angular_momentum", fraction_route_j)
    assert reports() == new


@pytest.mark.parametrize("case", CASES)
def test_dual_pair_actions_commute(case):
    rng = random.Random(5)
    for _ in range(8):
        alpha = rand_wmap(case, 2, rng)
        xi = rand_lie_h(case, 2, rng)
        eta = rand_lie_g(case, rng)
        lhs = h_infinitesimal(g_infinitesimal(alpha, eta), xi)
        rhs = g_infinitesimal(h_infinitesimal(alpha, xi), eta)
        assert lhs == rhs


@pytest.mark.parametrize("case", CASES)
def test_zero_level_sampler(case):
    rng = random.Random(6)
    for k in (0, 1, 2, 3):
        alpha = zero_level_sample(case, 3, k, rng)
        assert cdm.is_zero(mu_h(alpha))
        assert stratum(alpha) == k
    with pytest.raises(ValueError):
        zero_level_sample(case, 2, 3, rng)


@pytest.mark.parametrize("case", CASES)
def test_saturation_above_rank(case):
    rng = random.Random(7)
    for k in (1, 2, 3):
        alpha = zero_level_sample(case, 4, k, rng)
        assert stratum(alpha) == k <= 3


@pytest.mark.parametrize("case", CASES)
def test_reduced_point_h_invariance(case):
    rng = random.Random(8)
    for _ in range(5):
        alpha = zero_level_sample(case, 3, rng.choice([1, 2]), rng)
        z = reduced_point(alpha)
        x = h_group_element(case, 3, rng)
        assert reduced_point(act_h(alpha, x)) == z


@pytest.mark.parametrize("case", CASES)
def test_p_projection_blocks_match_full_mu_g(case):
    # the blocks are read off the full 6x6 mu_G here, as the parent reading did
    rng = random.Random(31)
    half = Scalar(Fraction(1, 2))
    for s, k in ((2, 1), (3, 2), (3, 3), (4, 2)):
        alpha = zero_level_sample(case, s, k, rng)
        m = mu_g(alpha)
        a = tuple(row[:3] for row in m[:3])
        x = tuple(row[3:] for row in m[:3])
        y = tuple(row[:3] for row in m[3:])
        w = cdm.scale(cdm.add(a, cdm.conj_transpose(a)), half)
        assert p_projection_blocks(alpha) == (w, cdm.scale(cdm.add(x, y), half))


def rand_tall_wmap(case, s, rng, sparse=False):
    """Entries of 40-digit height; with ``sparse``, most coordinates zero."""
    level = CASE_LEVEL[case]

    def part():
        if sparse and rng.random() < 0.7:
            return Fraction(0)
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))

    rows = [[CDNumber(level, [Scalar(part()) for _ in range(1 << level)]) for _ in range(s)]
            for _ in range(6)]
    return WMap(case, rows)


@pytest.mark.parametrize("case", CASES)
def test_zero_level_point_matches_the_matrix_route(case):
    rng = random.Random(41)
    tall = Scalar(Fraction(10**39 + 7, 3 * 10**40 + 1))
    maps = []
    for s in (1, 2, 3, 4, 8):
        for k in range(min(s, 3) + 1):
            alpha = zero_level_sample(case, s, k, rng)
            maps += [alpha, WMap(case, [[x.scale(tall) for x in row] for row in alpha.matrix]),
                     zero_level_sample(case, s, k, rng, enrich=False)]
        sparse = rand_wmap(case, s, rng)
        sparse = WMap(case, [[x if rng.random() < 0.3 else x.scale(Scalar(0)) for x in row]
                             for row in sparse.matrix])
        maps += [rand_wmap(case, s, rng), sparse, rand_tall_wmap(case, s, rng),
                 rand_tall_wmap(case, s, rng, sparse=True)]
    # one nonzero column; two columns with B(u, u) = 0 each but B(u_0, u_1) = 1
    one, zero = CDNumber.one(CASE_LEVEL[case]), CDNumber.zero(CASE_LEVEL[case])
    col = [[one], [zero], [zero], [zero], [zero], [zero]]
    maps += [WMap(case, col), WMap(case, [[one, zero], [zero] * 2, [zero] * 2,
                                          [zero, one], [zero] * 2, [zero] * 2])]
    on_level = 0
    for alpha in maps:
        z, oracle = zero_level_point(alpha), matrix_route_point(alpha)
        assert (z is None) == (not cdm.is_zero(mu_h(alpha))) == (oracle is None)
        if z is not None:
            on_level += 1
            assert (z.tag, z.gaussian, z.v, z.den) == (oracle.tag, True, oracle.v, oracle.den)
            assert z.to_json() == oracle.to_json()
    assert 0 < on_level < len(maps)


def test_reduced_point_requires_zero_level():
    rng = random.Random(9)
    alpha = rand_wmap("real", 2, rng)
    while cdm.is_zero(mu_h(alpha)):
        alpha = rand_wmap("real", 2, rng)
    with pytest.raises(ValueError):
        reduced_point(alpha)


def test_off_zero_level_alpha_fails_the_zero_level_checks(monkeypatch):
    # xi = e_1 in column 0 and upsilon = e_1 in column 1: mu_H has the
    # entries -1 and 1 at (0, 1) and (1, 0)
    one, zero = CDNumber.one(0), CDNumber.zero(0)
    rows = [[zero] * 3 for _ in range(6)]
    rows[0][0], rows[3][1] = one, one
    off = WMap("real", rows)
    assert not cdm.is_zero(mu_h(off))
    assert zero_level_point(off) is None
    with pytest.raises(ValueError, match="zero level"):
        reduced_point(off)
    calls = []

    def first_call_off(*args):
        calls.append(args)
        return off if len(calls) == 1 else zero_level_sample(*args)

    monkeypatch.setattr(suites, "zero_level_sample", first_call_off)
    monkeypatch.setattr(suites, "hilbert_lift", lambda z, s: off)
    checks = {c["name"]: c for c in run_suite("reduction", case="real", samples=4, seed=0)}
    assert calls[0][1:3] == (3, 0)  # the first draw of the zero-level-strata check
    strata, lift = checks["zero-level-strata"], checks["hilbert-lift-round-trip"]
    assert (strata["samples"], strata["failures"]) == (4, 1)
    assert strata["witness"] == repr(off.matrix)
    assert lift["samples"] == lift["failures"] == 4
    assert checks["reduced-point-h-invariant"]["failures"] == 0


def test_hilbert_lift_explicit_examples():
    e11 = JordanElement.diagonal("R", 1, 0, 0, gaussian=True)
    alpha = hilbert_lift(e11, 1)
    assert reduced_point(alpha) == e11
    zero = JordanElement.zero("R", gaussian=True)
    assert reduced_point(hilbert_lift(zero, 2)) == zero
    with pytest.raises(ValueError):
        hilbert_lift(JordanElement.identity("R", True), 2)  # rank 3 > s


@pytest.mark.parametrize("case", CASES)
def test_hilbert_lift_round_trip(case):
    rng = random.Random(10)
    for _ in range(12):
        rank = rng.choice([0, 1, 1, 2])
        z = liftable_sample(case, rank, 2, rng)
        assert jordan_rank(z) == rank
        alpha = hilbert_lift(z, 2)
        assert cdm.is_zero(mu_h(alpha))
        assert reduced_point(alpha) == z


def test_hilbert_lift_repeated_invariants():
    # diag(1,1,0) has a repeated splitting invariant; the fallback search
    # must still produce an exact two-column lift
    z = JordanElement.diagonal("R", 1, 1, 0, gaussian=True)
    alpha = hilbert_lift(z, 2)
    assert cdm.is_zero(mu_h(alpha))
    assert reduced_point(alpha) == z


@pytest.mark.parametrize("s", [1, 2])
def test_negative_real_kappa_lifts(s):
    # Z = (i/2) E11 has 2i Z = -E11, so kappa = -1 = i^2: over H the whole
    # factor C = i b g1 sits in the upsilon block; the same point lifts over R
    half_i = Scalar(0, Fraction(1, 2), True)
    for algebra in ("R", "H"):
        z = JordanElement.diagonal(algebra, half_i, 0, 0, gaussian=True)
        alpha = hilbert_lift(z, s)
        assert alpha.s == s
        assert cdm.is_zero(mu_h(alpha))
        assert reduced_point(alpha) == z


def test_rank_two_split_with_an_isotropic_eigenvector():
    # 2i Z = v1 v1^T + e3 e3^T with v1 = (1, i, 0): v1 is an eigenvector of
    # m conj(m) with v1^T v1 = 0, and the projector still splits m
    one, i, o = Scalar(1, 0, True), Scalar(0, 1, True), Scalar.zero(True)
    v1, e3 = (one, i, o), (o, o, one)
    m = tuple(tuple(v1[a] * v1[b] + e3[a] * e3[b] for b in range(3)) for a in range(3))
    z = from_symmetric_matrix(cdm.scale(m, Scalar(0, Fraction(-1, 2), True)))
    assert jordan_rank(z) == 2
    for s in (2, 3):
        alpha = hilbert_lift(z, s)
        assert cdm.is_zero(mu_h(alpha))
        assert reduced_point(alpha) == z


def test_quaternionic_rank_one_is_read_off_the_pivot_column():
    rng = random.Random(4)
    for _ in range(10):
        z = liftable_sample("quaternionic", 1, 2, rng)
        m = cdm.scale(z.to_matrix(), Scalar(0, 2, True))
        p = next(p for p in range(3) if not m[p][p].is_zero())
        b, kappa = lifts._quat_rank1_data(m)
        assert b[p] == CDNumber.one(2)
        assert kappa == m[p][p].real()
        assert lifts._quat_rank1(kappa, b) == m


def test_hilbert_lift_obstruction_reported():
    # i*E11 with a single column is square-class obstructed over Q(i)
    bad = combine_real_imag(
        JordanElement.zero("R"), JordanElement.diagonal("R", 3, 0, 0)
    )
    assert jordan_rank(bad) == 1
    with pytest.raises(LiftError) as info:
        hilbert_lift(bad, 1)
    assert info.value.reason == "real-square-class"


def test_large_height_lift_fails_fast():
    # a liftable rank-one point scaled by a 40-digit rational: the lift needs
    # a four-square decomposition of a 40-digit number, which the bounded
    # search gives up on
    z = liftable_sample("quaternionic", 1, 2, random.Random(1))
    z = z.scale(Scalar(Fraction(10**39 + 7), 0, True))
    t0 = time.perf_counter()
    with pytest.raises(LiftError, match="square-sum search cut"):
        hilbert_lift(z, 2)
    assert time.perf_counter() - t0 < 1


def test_cut_search_is_a_failed_round_trip_with_a_witness(monkeypatch):
    monkeypatch.setattr(scalars, "MAX_FOUR_SQUARE_CANDIDATES", 0)
    checks = run_suite("reduction", case="quaternionic", samples=3, seed=0)
    (lift,) = [c for c in checks if c["name"] == "hilbert-lift-round-trip"]
    assert lift["failures"] > 0
    assert lift["witness"].startswith("JordanElement(H")
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["verify", "--suite", "reduction", "--case", "quaternionic",
                   "--samples", "3", "--seed", "0"])
    assert rc == 1


def test_lift_error_reason_codes_are_one_per_raise_site():
    codes = []
    for node in ast.walk(ast.parse(inspect.getsource(lifts))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) == "LiftError":
                (_, reason) = node.exc.args
                codes.append(reason.value)
    assert sorted(codes) == sorted(LiftError.REASONS)
    assert len(set(LiftError.REASONS)) == len(LiftError.REASONS)
    with pytest.raises(ValueError, match="unknown lift failure reason"):
        LiftError("message", "no-such-reason")


def test_raised_lift_error_reasons_are_codes():
    rng = random.Random(21)
    seen = set()
    for algebra in ("R", "C", "H"):
        for k in (1, 2, 3):
            for _ in range(3):
                try:
                    hilbert_lift(rank_k_sample(algebra, k, rng), 3)
                except LiftError as exc:
                    assert exc.reason in LiftError.REASONS
                    seen.add(exc.reason)
    assert {"real-split-rank", "complex-rank-three", "quat-rank-three"} <= seen
    z = liftable_sample("quaternionic", 1, 2, random.Random(1))
    z = z.scale(Scalar(Fraction(10**39 + 7), 0, True))
    with pytest.raises(LiftError, match="^square-sum search cut: ") as info:
        hilbert_lift(z, 2)
    assert info.value.reason == "search-cut"


def lift_target(algebra, entries):
    """The complexified element Z with 2i Z = m, where ``entries`` maps (i, j)
    to the entry m_ij: a Gaussian scalar, given as an int or a (re, im) pair,
    over R and C, and a list of four such quaternion coefficients over H.
    Over R and H each entry also fills (j, i), transposed or conjugated."""

    def gauss(x):
        re, im = x if isinstance(x, tuple) else (x, 0)
        return Scalar(Fraction(re), Fraction(im), True)

    over_2i = Scalar(0, Fraction(-1, 2), True)
    if algebra == "H":
        m = [[CDNumber.zero(2, True)] * 3 for _ in range(3)]
        for (i, j), q in entries.items():
            m[i][j] = CDNumber(2, [gauss(c) for c in q])
            m[j][i] = m[i][j].conjugate()
        return JordanElement.from_matrix("H", cdm.scale(cdm.from_rows(m), over_2i))
    m = [[gauss(0)] * 3 for _ in range(3)]
    for (i, j), x in entries.items():
        m[i][j] = gauss(x)
        if algebra == "R":
            m[j][i] = m[i][j]
    build = from_symmetric_matrix if algebra == "R" else from_general_matrix
    return build(cdm.scale(cdm.from_rows(m), over_2i))


def identity_gauge(n_u, n_v):
    """A wrong balance gauge: the identity leaves unequal Gram matrices unbalanced."""
    r = range(len(n_u))
    return tuple(tuple(Scalar(int(i == j), 0, True) for j in r) for i in r)


def lift_of_four_z(case):
    """A wrong construction step: it lifts 4 Z, a zero-level map with the
    wrong reduced point."""
    step = getattr(lifts, f"_lift_{case}")
    return lambda z, s, rank: step(z.scale(Scalar(4, 0, True)), s, rank)


@pytest.mark.parametrize("case", CASES)
def test_round_trip_catches_a_wrong_construction_step(case, monkeypatch):
    rng = random.Random(22)
    targets = [liftable_sample(case, rank, 2, rng) for rank in (1, 1, 2, 2)]
    patches = [(f"_lift_{case}", lift_of_four_z(case), "round-trip-failed")]
    if case == "complex":
        patches.append(("_gram_balance_gauge", identity_gauge, "missed-zero-level"))
    for name, step, reason in patches:
        with monkeypatch.context() as patched:
            patched.setattr(lifts, name, step)
            for z in targets:
                with pytest.raises(LiftError) as info:
                    hilbert_lift(z, 2)
                assert info.value.reason == reason
    for z in targets:
        assert reduced_point(hilbert_lift(z, 2)) == z


def test_gram_balance_gauge_balances_the_lift_grams(monkeypatch):
    # (g g*) n_u (g g*) = n_v on the Gram pairs the complex lift hands the
    # gauge, rank one and two, so the contract does not rest on the round trip
    seen = []
    gauge = lifts._gram_balance_gauge

    def recorded(n_u, n_v):
        g = gauge(n_u, n_v)
        seen.append((n_u, n_v, g))
        return g

    monkeypatch.setattr(lifts, "_gram_balance_gauge", recorded)
    rng = random.Random(22)
    targets = [liftable_sample("complex", rank, 2, rng) for rank in (1, 1, 2, 2)]
    targets.append(lift_target("C", {(0, 0): 1, (0, 1): (1, -1), (0, 2): 1}))
    for z in targets:
        hilbert_lift(z, 2)
    assert sorted(len(n_u) for n_u, _, _ in seen) == [1, 1, 1, 2, 2]
    for n_u, n_v, g in seen:
        h = school_mul(g, cdm.conj_transpose(g))
        assert school_mul(h, school_mul(n_u, h)) == cdm.from_rows(n_v)


ONE = [1, 0, 0, 0]

# reason -> (algebra, entries of 2i Z, s, patched step or None); the
# search-cut target is built in the test
LIFT_ERROR_TARGETS = {
    # 2i Z = E11 + (1 - i) E12 + E13 has n_v / n_u = 4 = N(1 + i)
    "missed-zero-level": (
        "C", {(0, 0): 1, (0, 1): (1, -1), (0, 2): 1}, 1,
        ("_gram_balance_gauge", identity_gauge),
    ),
    "round-trip-failed": ("R", {(0, 0): (0, 2)}, 1, ("_lift_real", lift_of_four_z("real"))),
    "real-split-rank": ("R", {(0, 0): 1, (1, 1): 1, (2, 2): 1}, 3, None),
    # E = m^2 has the eigenvalues (7 +- 3 sqrt 5) / 2
    "real-split-irrational": ("R", {(0, 0): 1, (0, 1): 1, (1, 1): 2}, 2, None),
    # E = m^2 has the eigenvalue 2 twice; m has the eigenvalues +-sqrt 2
    "real-repeated-no-split": ("R", {(0, 1): 1, (0, 2): 1}, 2, None),
    # -6 is no square over Q(i)
    "real-square-class": ("R", {(0, 0): -6}, 1, None),
    "complex-rank-three": ("C", {(0, 0): 1, (1, 1): 1, (2, 2): 1}, 3, None),
    # n_v / n_u = 2 is no rational square
    "complex-balance-not-square": ("C", {(0, 0): 1, (0, 1): 1}, 1, None),
    # n_v / n_u = 9 = 3^2, and 3 is no sum of two rational squares
    "complex-balance-not-norm": ("C", {(0, 0): 1, (0, 1): 2, (0, 2): 2}, 1, None),
    "complex-balance-discriminant": ("C", {(0, 0): 1, (0, 2): 1, (1, 1): 1}, 2, None),
    # det(n_v n_u) is a square, but tr(n_v n_u) +- 2 sqrt(det) are not
    "complex-balance-no-gauge": ("C", {(0, 1): 1, (1, 1): 1, (1, 2): 1}, 2, None),
    "quat-rank-three": ("H", {(0, 0): ONE, (1, 1): ONE, (2, 2): ONE}, 3, None),
    # kappa = 1 + i, and 1^2 + 1^2 = 2 is no rational square
    "quat-class": ("H", {(0, 0): [(1, 1), 0, 0, 0]}, 1, None),
    # Z_12 = q with N(q) = 1 + i^2 = 0: rank one with a zero diagonal
    "quat-isotropic-diagonal": ("H", {(0, 1): [1, (0, 1), 0, 0]}, 2, None),
    "quat-ray-irrational": (
        "H", {(0, 0): ONE, (0, 1): [(0, 1), 0, 0, 0], (1, 1): [-1, 0, 0, 0]}, 1, None,
    ),
    "quat-split-inseparable": ("H", {(0, 0): ONE, (1, 1): ONE}, 2, None),
}


@pytest.mark.parametrize("reason", LiftError.REASONS)
def test_every_lift_error_reason_is_reached(reason, monkeypatch):
    if reason == "search-cut":
        # a liftable point times a 40-digit rational cuts the four-square search
        z = liftable_sample("quaternionic", 1, 2, random.Random(1))
        z, s, patch = z.scale(Scalar(Fraction(10**39 + 7), 0, True)), 2, None
    else:
        algebra, entries, s, patch = LIFT_ERROR_TARGETS[reason]
        z = lift_target(algebra, entries)
    if patch is not None:
        monkeypatch.setattr(lifts, *patch)
    with pytest.raises(LiftError) as info:
        hilbert_lift(z, s)
    assert info.value.reason == reason


def test_repeated_split_tests_the_hermitian_off_diagonal_entry():
    # E = m conj(m) has a repeated eigenvalue, and the candidate pair
    # v1 = (0, 0, 3i), v2 = (i, -1, 0) has v1^T m v2 = 0 but
    # conj(v1)^T m conj(v2) = -6i, so it does not split m
    z = lift_target("R", {(0, 0): 1, (0, 1): (0, 1), (0, 2): (0, 1), (1, 1): -1,
                          (1, 2): -1, (2, 2): 2})
    assert jordan_rank(z) == 2
    for s in (2, 3):
        with pytest.raises(LiftError) as info:
            hilbert_lift(z, s)
        assert info.value.reason == "real-repeated-no-split"


def test_dims_projective_chain():
    assert dims_projective_chain("real") == (2, 5, 8)
    assert dims_projective_chain("complex") == (5, 11, 17)
    assert dims_projective_chain("quaternionic") == (11, 23, 35)


def test_oscillator_angular_momentum_matches_mu_h():
    rng = random.Random(11)
    for _ in range(10):
        q = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        c = OscillatorConfig(q, p)
        j = angular_momentum(c)
        mh = mu_h(encode_oscillator(c))
        for a in range(3):
            for b in range(3):
                assert mh[a][b].coeffs[0].re == j[a][b]


def test_oscillator_classification():
    rng = random.Random(12)
    # momenta parallel to positions: zero angular momentum
    for _ in range(10):
        q = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        lam = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        c = OscillatorConfig(q, [[lam * x for x in row] for row in q])
        j = angular_momentum(c)
        assert all(x == 0 for row in j for x in row)
    # all momenta zero: stratum = rank of position span
    q = [[1, 0, 0], [2, 0, 0], [3, 0, 0]]
    c = OscillatorConfig(q, [[0] * 3] * 3)
    assert classify_config(c) == 1 == stratum(encode_oscillator(c))
    # zero-angular-momentum samples match the reduced stratum
    for k in (0, 1, 2, 3):
        c = oscillator_sample(3, k, rng)
        assert classify_config(c) == k == stratum(encode_oscillator(c))


def test_wmap_json_round_trip():
    rng = random.Random(13)
    for case in CASES:
        alpha = rand_wmap(case, 2, rng)
        assert WMap.from_json(alpha.to_json()) == alpha
    c = oscillator_sample(3, 2, rng)
    assert OscillatorConfig.from_json(c.to_json()).q == c.q


def test_wmap_json_column_count_is_an_integer():
    obj = WMap.zero("real", 1).to_json()
    assert WMap.from_json(obj).s == 1
    obj["s"] = True  # a JSON boolean, equal to 1 in Python
    with pytest.raises(ValueError):
        WMap.from_json(obj)
