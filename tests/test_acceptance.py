"""Acceptance criteria, one test per criterion, exact (zero-tolerance)
checks at the stated sample counts.  Each test prints a single PASS/FAIL
line; run with `pytest -s tests/test_acceptance.py` to see them inline.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from jordan_strata import cdmatrix as cdm
from jordan_strata.cayley_dickson import (
    CDNumber,
    basis as cd_basis,
    cd_associator,
    cd_conj,
    cd_norm,
)
from jordan_strata.cli import main as cli_main
from jordan_strata.jordan import (
    JordanElement,
    det,
    jordan_mul,
    jordan_rank,
    matrix_model_rank,
    quadratic_rep,
    sharp,
    sigma2,
    trace,
    trace_form,
)
from jordan_strata.lifts import hilbert_lift, liftable_sample
from jordan_strata.poisson import PolyFn, case_poisson, poisson_rank_at_matrix
from jordan_strata.reduction import (
    angular_momentum,
    classify_config,
    dims_projective_chain,
    encode_oscillator,
    mu_h,
    oscillator_sample,
    reduced_point,
    stratum,
    zero_level_sample,
)
from jordan_strata.scalars import Scalar
from jordan_strata.strata import (
    ProjPoint,
    chord,
    closed_orbit_tangent_dim,
    det_curve_coefficients,
    rank1_sample,
    rank_k_sample,
    random_element,
)
from jordan_strata.suites import run_suite
from jordan_strata.tkk import CASES as TKK_CASES, tkk_algebra

ALGEBRAS = ("R", "C", "H", "O")
CLASSICAL = ("real", "complex", "quaternionic")


def report(criterion, label):
    def deco(fn):
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {criterion} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {criterion} ({label}): PASS")

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


def _rand_octonion(rng, gaussian=False):
    return CDNumber(
        3,
        [Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2])),
                Fraction(rng.randint(-3, 3)) if gaussian else 0, gaussian)
         for _ in range(8)],
    )


@report(1, "division algebras")
def test_criterion_1_division_algebras():
    rng = random.Random(101)
    for _ in range(100):
        a, b = _rand_octonion(rng), _rand_octonion(rng)
        assert cd_norm(a * b) == cd_norm(a) * cd_norm(b)
        assert cd_conj(a * b) == cd_conj(b) * cd_conj(a)
        assert cd_associator(a, a, b).is_zero()
        assert cd_associator(a, b, b).is_zero()
    units = cd_basis(3)
    assert any(
        not cd_associator(x, y, z).is_zero()
        for x in units for y in units for z in units
    )


@report(2, "Jordan identities")
def test_criterion_2_jordan_suite():
    rng = random.Random(102)
    tags = [(a, False) for a in ALGEBRAS] + [("O", True)]
    for algebra, gaussian in tags:
        ident = JordanElement.identity(algebra, gaussian)
        for _ in range(200):
            x = random_element(algebra, rng, gaussian, span=2)
            y = random_element(algebra, rng, gaussian, span=2)
            x2 = jordan_mul(x, x)
            assert jordan_mul(jordan_mul(x2, y), x) == jordan_mul(x2, jordan_mul(y, x))
            assert jordan_mul(x, sharp(x)) == ident.scale(det(x))
            x3 = jordan_mul(x2, x)
            ch = x3 - x2.scale(trace(x)) + x.scale(sigma2(x)) - ident.scale(det(x))
            assert ch.is_zero()
            assert det(quadratic_rep(x, y)) == det(x) * det(x) * det(y)


@report(3, "rank identification")
def test_criterion_3_rank_identification():
    rng = random.Random(103)
    for algebra in ("R", "C", "H"):
        seen = {0: 0, 1: 0, 2: 0, 3: 0}
        for _ in range(500):
            k = rng.choice([0, 1, 2, 3])
            x = rank_k_sample(algebra, k, rng)
            seen[k] += 1
            assert jordan_rank(x) == matrix_model_rank(x) == k
        assert all(seen[k] > 0 for k in seen)


@report(4, "stratification shadow")
def test_criterion_4_stratification_shadow():
    rng = random.Random(104)
    # (a) dimension table and the critical relation
    m = [JordanElement.space_dim(a) - 1 for a in ALGEBRAS]
    n = [closed_orbit_tangent_dim(a) - 1 for a in ALGEBRAS]
    assert m == [5, 8, 14, 26]
    assert n == [2, 4, 8, 16]
    assert all(Fraction(3, 2) * nn + 2 == mm for nn, mm in zip(n, m))
    # (b) the gradient of det is the adjugate, by exact interpolation
    for algebra in ALGEBRAS:
        for _ in range(100):
            x = random_element(algebra, rng, gaussian=True, span=1)
            h = random_element(algebra, rng, gaussian=True, span=1)
            c = det_curve_coefficients(x, h)
            assert c[1] == trace_form(sharp(x), h)
    # (c) gradient vanishes exactly on the rank <= 1 locus
    for algebra in ALGEBRAS:
        for k in (0, 1, 2, 3):
            for _ in range(10):
                x = rank_k_sample(algebra, k, rng)
                assert sharp(x).is_zero() == (k <= 1)
    # (d) chords stay in the cubic; a generic triple sum leaves it
    for algebra in ALGEBRAS:
        for _ in range(200):
            p = ProjPoint(rank1_sample(algebra, rng))
            q = ProjPoint(rank1_sample(algebra, rng))
            c = chord(p, q, Scalar(1, 0, True), Scalar(rng.randint(1, 3),
                                                       rng.randint(-2, 2), True))
            assert det(c.rep).is_zero()
        assert any(
            not det(
                rank1_sample(algebra, rng)
                + rank1_sample(algebra, rng)
                + rank1_sample(algebra, rng)
            ).is_zero()
            for _ in range(20)
        )


@report(5, "TKK Lie algebras")
def test_criterion_5_tkk():
    rng = random.Random(105)
    dims = {"sp3": 21, "u33": 35, "so12": 66, "e7": 133}
    for case in TKK_CASES:
        alg = tkk_algebra(case)
        assert alg.dim == dims[case]

        def rand_elt():
            # (x, L_w + [L_a, L_b], y), drawn in the order w, a, b, x, y
            w, a, b = (
                alg.lmul_element(random_element(alg.algebra, rng, span=1)) for _ in range(3)
            )
            xy = alg.element(
                plus=random_element(alg.algebra, rng, span=1),
                minus=random_element(alg.algebra, rng, span=1),
            )
            return xy + w + alg.bracket(a, b)

        for _ in range(100):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            j = (
                alg.bracket(alg.bracket(a, b), c)
                + alg.bracket(alg.bracket(b, c), a)
                + alg.bracket(alg.bracket(c, a), b)
            )
            assert j.is_zero()
        z = alg.h_element()
        for kb in alg.k_basis():
            assert alg.bracket(z, kb).is_zero()
        for pb in alg.p_basis():
            assert alg.bracket(z, alg.bracket(z, pb)) == (-pb)


@report(6, "momentum-map reduction")
def test_criterion_6_reduction():
    rng = random.Random(106)
    checks = run_suite("moment-identity", samples=50, seed=106)
    for c in checks:
        if c["name"] in ("dagger-defining-identity", "moment-identity", "equivariance"):
            assert c["failures"] == 0, c
    for case in CLASSICAL:
        for s, ks in ((2, (0, 1, 2)), (3, (0, 1, 2, 3))):
            for k in ks:
                alpha = zero_level_sample(case, s, k, rng)
                assert cdm.is_zero(mu_h(alpha))
                assert stratum(alpha) == k
        for k in (1, 2, 3):
            alpha = zero_level_sample(case, 4, k, rng)  # saturation: s > r
            assert stratum(alpha) == k <= 3
    lifts = 0
    while lifts < 102:
        case = CLASSICAL[lifts % 3]
        rank = (0, 1, 2, 1, 2)[lifts % 5]
        z = liftable_sample(case, rank, 2, rng)
        alpha = hilbert_lift(z, 2)
        assert cdm.is_zero(mu_h(alpha))
        assert reduced_point(alpha) == z
        lifts += 1
    assert dims_projective_chain("real") == (2, 5, 8)
    assert dims_projective_chain("complex") == (5, 11, 17)
    assert dims_projective_chain("quaternionic") == (11, 23, 35)


@report(7, "Poisson-rank stratum detection")
def test_criterion_7_poisson_rank():
    rng = random.Random(107)
    for case in CLASSICAL:
        ranks = {}
        for k in (1, 2, 3):
            vals = set()
            for _ in range(50):
                from jordan_strata.reduction import mu_g

                alpha = zero_level_sample(case, 3, k, rng)
                vals.add(poisson_rank_at_matrix(case, mu_g(alpha)))
            assert len(vals) == 1, (case, k, vals)
            ranks[k] = vals.pop()
        assert ranks[1] < ranks[2] < ranks[3], (case, ranks)
    # Casimir commutes with >= 50 random polynomials across the classical cases
    budget = [("sp3", 30), ("u33", 15), ("so12", 5)]
    for tkk_case, count in budget:
        cp = case_poisson(tkk_case)
        cas = cp.casimir()
        for _ in range(count):
            g = PolyFn.linear(
                tkk_case, cp.dim, [Fraction(rng.randint(-2, 2)) for _ in range(cp.dim)]
            )
            if rng.random() < 0.4:
                g = g * g
            assert cp.bracket(cas, g).is_zero()


@report(8, "oscillator interpretation")
def test_criterion_8_oscillator():
    rng = random.Random(108)
    for i in range(100):
        k = (0, 1, 2, 3)[i % 4]
        s = 3 if i % 2 else 4
        c = oscillator_sample(s, k, rng)
        j = angular_momentum(c)
        assert all(x == 0 for row in j for x in row)
        assert classify_config(c) == stratum(encode_oscillator(c)) == k


@report(9, "deterministic reports")
def test_criterion_9_determinism():
    def run(args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli_main(args)
        return rc, buf.getvalue()

    args = ["verify", "--suite", "oscillator", "--samples", "6", "--seed", "42"]
    rc1, out1 = run(args)
    rc2, out2 = run(args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    json.loads(out1)  # reports are valid JSON
