import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from jordan_strata import linalg
from jordan_strata.jordan import jordan_rank, matrix_model_rank
from jordan_strata.poisson import (
    PolyFn,
    case_poisson,
    embed_reduced_point,
    matrix_g_basis,
    matrix_p_element,
    poisson_rank_at,
    poisson_rank_at_matrix,
)
from jordan_strata.reduction import CASE_ALGEBRA, in_lie_g, mu_g, zero_level_sample
from jordan_strata.scalars import Scalar
from jordan_strata.strata import rank_k_sample
from jordan_strata.tkk import tkk_algebra

TKK_OF = {"real": "sp3", "complex": "u33", "quaternionic": "so12"}


def evaluate(f: PolyFn, coords):
    """f at the rational point ``coords``, summed monomial by monomial."""
    acc = Fraction(0)
    for key, c in f.terms.items():
        for var in key:
            c *= coords[var]
        acc += c
    return acc


def partial(f: PolyFn, i):
    """The partial derivative of f in x_i, monomial by monomial."""
    terms = {}
    for key, c in f.terms.items():
        if i in key:
            # removing one x_i from distinct monomials leaves distinct monomials
            j = key.index(i)
            terms[key[:j] + key[j + 1 :]] = c * key.count(i)
    return PolyFn(f.case, f.dim, terms)


def test_polynomials():
    f = PolyFn.coordinate("sp3", 21, 0)
    g = PolyFn.coordinate("sp3", 21, 1)
    h = (f + g) * (f - g)
    assert h == f * f - g * g
    assert partial(h, 0) == f.scale(2)
    assert partial(h, 2).is_zero()
    coords = [Fraction(0)] * 21
    coords[0], coords[1] = Fraction(3), Fraction(2)
    assert evaluate(h, coords) == 5
    # a monomial is the sorted tuple of its variables: x_0^3 x_1 is (0, 0, 0, 1)
    m = f * f * f * g
    assert m.terms == {(0, 0, 0, 1): 1}
    assert partial(m, 0) == (f * f * g).scale(3)
    assert partial(m, 1) == f * f * f
    assert f * g == g * f
    assert (h + g * g - f * f).is_zero()
    x2 = PolyFn.coordinate("sp3", 21, 2)
    cubic = (
        (f * f * g).scale(Fraction(1, 2))
        - (x2 * x2 * x2).scale(Fraction(2, 3))
        + g.scale(Fraction(5, 7))
    )
    coords[2] = Fraction(-1, 2)
    assert evaluate(cubic, coords) == Fraction(883, 84)


def test_linear_functions_bracket_to_lie_bracket():
    rng = random.Random(0)
    cp = case_poisson("sp3")
    alg = cp.alg
    for _ in range(6):
        u = alg.from_coords([Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
        v = alg.from_coords([Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
        assert cp.bracket(cp.linear_fn(u), cp.linear_fn(v)) == cp.linear_fn(
            alg.bracket(u, v)
        )


def test_bracket_is_a_biderivation_at_points():
    rng = random.Random(1)
    cp = case_poisson("sp3")
    dim = cp.dim
    for _ in range(4):
        f = PolyFn.linear("sp3", dim, [Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        g = PolyFn.linear("sp3", dim, [Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        h = f * g
        lhs = cp.bracket(h, g)
        rhs = f * cp.bracket(g, g) + g * cp.bracket(f, g)
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
        assert evaluate(lhs, coords) == evaluate(rhs, coords)


def test_casimir_commutes():
    # the coordinate-bracket table every bracket reads is in lowest terms
    for case in ("sp3", "u33", "so12", "e7"):
        den, table = case_poisson(case).bivector_polys()
        assert gcd(den, *[p for form in table.values() for _, p in form]) == 1, case
    rng = random.Random(2)
    cp = case_poisson("sp3")
    cas = cp.casimir()
    for _ in range(8):
        g = PolyFn.linear(
            "sp3", cp.dim, [Fraction(rng.randint(-2, 2)) for _ in range(cp.dim)]
        )
        if rng.random() < 0.5:
            g = g * g
        assert cp.bracket(cas, g).is_zero()


# -- the gradient route: the oracle of the coordinate-bracket table ----------------


@lru_cache(maxsize=None)
def gradient_route_data(case):
    """G^-1 and Lambda_ij(x) = form(x, [b_i, b_j]) for i < j, built from
    ``alg.bracket`` and ``alg.invariant_form`` alone."""
    alg = tkk_algebra(case)
    basis, dim = alg.basis(), alg.dim
    gram = [[alg.invariant_form(a, b) for b in basis] for a in basis]
    ginv = [[x.re for x in row] for row in linalg.inverse([[Scalar(x) for x in r] for r in gram])]
    lam = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            c = alg.bracket(basis[i], basis[j]).coords
            nz = [k for k in range(dim) if c[k]]
            lam[(i, j)] = PolyFn.linear(case, dim, [sum(gm[k] * c[k] for k in nz) for gm in gram])
    return ginv, lam


def gradient_route_bracket(case, f, g):
    """{f, g}(x) = form(x, [G^-1 grad f, G^-1 grad g]), pair by pair."""
    ginv, lam = gradient_route_data(case)
    dim = len(ginv)

    def gradient(p):
        partials = [partial(p, j) for j in range(dim)]
        out = []
        for row in ginv:
            acc = PolyFn(case, dim)
            for gij, d in zip(row, partials):
                if gij:
                    acc = acc + d.scale(gij)
            out.append(acc)
        return out

    gf, gg = gradient(f), gradient(g)
    terms = {}
    for (i, j), lam_ij in lam.items():
        for k, c in ((gf[i] * gg[j] - gf[j] * gg[i]) * lam_ij).terms.items():
            terms[k] = terms.get(k, 0) + c
    return PolyFn(case, dim, terms)


@pytest.mark.parametrize(
    "case,kinds",
    [
        (case, kinds)
        for case in ("sp3", "u33")
        for kinds in ("linear-linear", "casimir-quadratic", "quadratic-quadratic")
    ]
    + [("so12", "quadratic-linear")],
)
def test_bracket_matches_gradient_route(case, kinds):
    rng = random.Random(8)
    cp = case_poisson(case)

    def linear():
        # about half the coefficients nonzero keeps the oracle's pair products small
        coeffs = [
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.5 else 0
            for _ in range(cp.dim)
        ]
        return PolyFn.linear(case, cp.dim, coeffs)

    make = {"linear": linear, "quadratic": lambda: linear() * linear(), "casimir": cp.casimir}
    f, g = (make[kind]() for kind in kinds.split("-"))
    assert not f.is_zero() and not g.is_zero()
    expected = gradient_route_bracket(case, f, g)
    assert cp.bracket(f, g).terms == expected.terms
    assert expected.is_zero() == (kinds.split("-")[0] == "casimir")


@pytest.mark.parametrize("case", ("real", "complex", "quaternionic"))
def test_bivector_rank_detects_strata(case):
    rng = random.Random(3)
    per = {}
    for k in (1, 2, 3):
        vals = {
            poisson_rank_at_matrix(case, mu_g(zero_level_sample(case, 3, k, rng)))
            for _ in range(4)
        }
        assert len(vals) == 1, (case, k, vals)
        per[k] = vals.pop()
    assert per[1] < per[2] < per[3]


def test_bivector_rank_zero_at_origin():
    from jordan_strata import cdmatrix as cdm

    assert poisson_rank_at_matrix("real", cdm.zero(6, 6, 0)) == 0


@pytest.mark.parametrize("case", ("real", "complex", "quaternionic"))
def test_matrix_basis_lies_in_g(case):
    for e in matrix_g_basis(case):
        assert in_lie_g(e)


@pytest.mark.parametrize("case", ("real", "complex", "quaternionic"))
def test_tkk_and_matrix_ranks_agree_on_p(case):
    rng = random.Random(4)
    for k in (1, 2):
        xc = rank_k_sample(CASE_ALGEBRA[case], k, rng)
        r_tkk = poisson_rank_at(embed_reduced_point(xc))
        r_mat = poisson_rank_at_matrix(case, matrix_p_element(xc))
        assert r_tkk == r_mat


def test_the_rank_oracles_share_no_kernel_with_their_routes(monkeypatch):
    # the routes rank through the echelon (poisson_rank_at) or the cross
    # product (jordan_rank); the oracles poisson_rank_at_matrix and the skew
    # model of matrix_model_rank rank through linalg.skew_rank
    rng = random.Random(8)
    xc = rank_k_sample("H", 2, rng)
    p, m = embed_reduced_point(xc), matrix_p_element(xc)
    rank = poisson_rank_at(p)

    def broken(*args):
        raise RuntimeError("kernel shared with the route")

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_Echelon", broken)
        assert poisson_rank_at_matrix("quaternionic", m) == rank
        assert matrix_model_rank(xc) == 2
        with pytest.raises(RuntimeError):
            poisson_rank_at(p)
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "skew_rank", broken)
        assert poisson_rank_at(p) == rank
        assert jordan_rank(xc) == 2
        with pytest.raises(RuntimeError):
            poisson_rank_at_matrix("quaternionic", m)
        with pytest.raises(RuntimeError):
            matrix_model_rank(xc)


def test_ad_invariance_of_rank():
    # bivector rank is constant along the adjoint action
    import jordan_strata.cdmatrix as cdm
    from jordan_strata.reduction import g_group_element

    rng = random.Random(5)
    alpha = zero_level_sample("real", 3, 2, rng)
    m = mu_g(alpha)
    base = poisson_rank_at_matrix("real", m)
    for y in [g_group_element("real", rng) for _ in range(3)]:
        conj = cdm.mul(cdm.mul(y, m), cdm.inverse(y))
        assert poisson_rank_at_matrix("real", conj) == base


def test_e7_embedded_ranks_monotone():
    rng = random.Random(6)
    r1 = poisson_rank_at(embed_reduced_point(rank_k_sample("O", 1, rng)))
    r2 = poisson_rank_at(embed_reduced_point(rank_k_sample("O", 2, rng)))
    assert 0 < r1 < r2


def test_e7_rank_constant_per_stratum_and_rising():
    rng = random.Random(7)
    per = {}
    for k in (1, 2, 3):
        vals = {
            poisson_rank_at(embed_reduced_point(rank_k_sample("O", k, rng))) for _ in range(3)
        }
        assert len(vals) == 1, (k, vals)
        per[k] = vals.pop()
    assert per == {1: 66, 2: 100, 3: 102}
