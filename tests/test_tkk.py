import random
from fractions import Fraction

import pytest

from jordan_strata import linalg
from jordan_strata.jordan import JordanElement, jordan_mul, trace_form
from jordan_strata.scalars import Scalar
from jordan_strata.strata import random_element
from jordan_strata.tkk import (
    CASES,
    TKKElement,
    tkk_algebra,
)

DIMS = {"sp3": (9, 21), "u33": (17, 35), "so12": (36, 66), "e7": (79, 133)}
SMALL_CASES = ("sp3", "u33")


def rand_tkk(alg, rng):
    """(x, L_w + [L_a, L_b], y) for random Jordan elements."""
    w, a, b = (alg.lmul_element(random_element(alg.algebra, rng)) for _ in range(3))
    x, y = random_element(alg.algebra, rng), random_element(alg.algebra, rng)
    xy = alg.element(plus=x, minus=y)
    return xy + w + alg.bracket(a, b)


# plain matrix arithmetic, independent of the structure constants


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def mat_comb(*terms):
    """sum c * A over the (c, A) in terms."""
    n = len(terms[0][1])
    return tuple(
        tuple(sum(c * m[r][k] for c, m in terms) for k in range(n)) for r in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def commutator(a, b):
    return mat_comb((1, mat_mul(a, b)), (-1, mat_mul(b, a)))


def jcoords(x):
    return [c.re for c in x.coords()]


def left_mul(alg, x):
    """Matrix of L_x: column c holds the coordinates of x o e_c, by jordan_mul."""
    cols = [jcoords(jordan_mul(x, e)) for e in JordanElement.space_basis(alg.algebra)]
    return tuple(zip(*cols))


def box(alg, x, y):
    """x box y = L_{x o y} + [L_x, L_y]."""
    lx, ly = left_mul(alg, x), left_mul(alg, y)
    return mat_comb((1, left_mul(alg, jordan_mul(x, y))), (1, commutator(lx, ly)))


@pytest.mark.parametrize("case", CASES)
def test_dimension_audit(case):
    alg = tkk_algebra(case)
    assert (alg.str_dim, alg.dim) == DIMS[case]
    kb, pb = alg.cartan_split()
    assert len(kb) + len(pb) == alg.dim


@pytest.mark.parametrize("case", CASES)
def test_left_mul_and_box_basics(case):
    alg = tkk_algebra(case)
    rng = random.Random(1)
    ident = JordanElement.identity(alg.algebra)
    n = alg.space.dim
    id_op = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    assert left_mul(alg, ident) == id_op
    assert box(alg, ident, ident) == id_op
    for _ in range(5):
        x = random_element(alg.algebra, rng)
        y = random_element(alg.algebra, rng)
        lx, ly = left_mul(alg, x), left_mul(alg, y)
        assert list(mat_vec(lx, jcoords(y))) == jcoords(jordan_mul(x, y))
        lhs = mat_comb((1, box(alg, x, y)), (-1, box(alg, y, x)))
        assert lhs == mat_comb((2, commutator(lx, ly)))


def graded_bracket(alg, a, b):
    """The graded bracket of (x, T, y) parts, by matrix products:
    [T, u+] = (T u)+, [T, v-] = -(T^ v)-, [u+, v-] = 2 (L_{u o v} + [L_u, L_v]),
    [T, S] = TS - ST."""
    algebra = alg.algebra
    basis = JordanElement.space_basis(algebra)
    g = [trace_form(e, e).re for e in basis]
    n = len(g)

    def adjoint(t):
        return tuple(tuple(t[j][i] * g[j] / g[i] for j in range(n)) for i in range(n))

    xa, ta, ya = a.plus, a.mid, a.minus
    xb, tb, yb = b.plus, b.mid, b.minus
    plus = [p - q for p, q in zip(mat_vec(ta, jcoords(xb)), mat_vec(tb, jcoords(xa)))]
    minus = [
        p - q
        for p, q in zip(mat_vec(adjoint(tb), jcoords(ya)), mat_vec(adjoint(ta), jcoords(yb)))
    ]
    mid = mat_comb((1, commutator(ta, tb)), (2, box(alg, xa, yb)), (-2, box(alg, xb, ya)))
    make = lambda cs: JordanElement.from_coords(algebra, [Scalar(c) for c in cs])
    return make(plus), mid, make(minus)


@pytest.mark.parametrize("case", SMALL_CASES)
def test_bracket_matches_the_graded_formulas(case):
    # dense random coordinate vectors, so every block of the tensor is used
    alg = tkk_algebra(case)
    rng = random.Random(10)
    coord = lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    for _ in range(4):
        a, b = (alg.from_coords([coord() for _ in range(alg.dim)]) for _ in range(2))
        c = alg.bracket(a, b)
        assert (c.plus, c.mid, c.minus) == graded_bracket(alg, a, b)


@pytest.mark.parametrize("case", CASES)
def test_bracket_antisymmetry_and_jacobi(case):
    alg = tkk_algebra(case)
    rng = random.Random(2)
    for _ in range(12):
        a, b, c = rand_tkk(alg, rng), rand_tkk(alg, rng), rand_tkk(alg, rng)
        assert alg.bracket(a, a).is_zero()
        j = (
            alg.bracket(alg.bracket(a, b), c)
            + alg.bracket(alg.bracket(b, c), a)
            + alg.bracket(alg.bracket(c, a), b)
        )
        assert j.is_zero()


def test_bracket_closes_in_structure_algebra():
    alg = tkk_algebra("sp3")
    rng = random.Random(3)
    for _ in range(6):
        a, b = rand_tkk(alg, rng), rand_tkk(alg, rng)
        # str_coords raises if the mid part leaves the span
        alg.str_coords(alg.bracket(a, b).mid)


@pytest.mark.parametrize("case", CASES)
def test_grading_element(case):
    alg = tkk_algebra(case)
    rng = random.Random(4)
    d = alg.grading_element()
    xp = alg.element(plus=random_element(alg.algebra, rng))
    ym = alg.element(minus=random_element(alg.algebra, rng))
    assert alg.bracket(d, xp) == xp
    assert alg.bracket(d, ym) == (-ym)


@pytest.mark.parametrize("case", CASES)
def test_theta_is_involutive_automorphism(case):
    alg = tkk_algebra(case)
    rng = random.Random(5)
    for _ in range(6):
        a, b = rand_tkk(alg, rng), rand_tkk(alg, rng)
        assert alg.theta(alg.theta(a)) == a
        assert alg.theta(alg.bracket(a, b)) == alg.bracket(alg.theta(a), alg.theta(b))


@pytest.mark.parametrize("case", CASES)
def test_h_element_axioms(case):
    alg = tkk_algebra(case)
    z = alg.h_element()
    for kb in alg.k_basis():
        assert alg.bracket(z, kb).is_zero()
    for pb in alg.p_basis():
        assert alg.bracket(z, alg.bracket(z, pb)) == (-pb)
        assert not alg.bracket(z, pb).is_zero()


@pytest.mark.parametrize("case", CASES)
def test_p_identification_intertwines_i(case):
    alg = tkk_algebra(case)
    for pb in alg.p_basis():
        z = alg.h_element()
        lhs = alg.p_to_complexified(alg.bracket(z, pb))
        rhs = alg.p_to_complexified(pb).scale(Scalar.i())
        assert lhs == rhs
        assert alg.complexified_to_p(alg.p_to_complexified(pb)) == pb


@pytest.mark.parametrize("case", SMALL_CASES)
def test_cartan_relations(case):
    alg = tkk_algebra(case)
    rng = random.Random(6)
    kb, pb = alg.k_basis(), alg.p_basis()
    in_k = lambda v: alg.theta(v) == v
    in_p = lambda v: alg.theta(v) == (-v)
    for _ in range(8):
        k1, k2 = rng.choice(kb), rng.choice(kb)
        p1, p2 = rng.choice(pb), rng.choice(pb)
        assert in_k(alg.bracket(k1, k2))
        assert in_p(alg.bracket(k1, p1))
        assert in_k(alg.bracket(p1, p2))


@pytest.mark.parametrize("case", SMALL_CASES)
def test_invariant_form(case):
    alg = tkk_algebra(case)
    rng = random.Random(7)
    for _ in range(8):
        a, b, c = rand_tkk(alg, rng), rand_tkk(alg, rng), rand_tkk(alg, rng)
        assert alg.invariant_form(a, b) == alg.invariant_form(b, a)
        assert (
            alg.invariant_form(alg.bracket(c, a), b)
            + alg.invariant_form(a, alg.bracket(c, b))
            == 0
        )
    kb, pb = alg.k_basis(), alg.p_basis()
    gram_k = tuple(tuple(Scalar(alg.invariant_form(x, y)) for y in kb) for x in kb)
    gram_p = tuple(tuple(Scalar(alg.invariant_form(x, y)) for y in pb) for x in pb)
    dk, _ = linalg.congruent_diagonal(gram_k)
    dp, _ = linalg.congruent_diagonal(gram_p)
    assert all(x.re < 0 for x in dk)
    assert all(x.re > 0 for x in dp)
    assert all(alg.invariant_form(x, y) == 0 for x in kb[:5] for y in pb[:5])


def test_z_spans_center_of_k():
    # the H-element direction is central in k and no k-complement direction is
    alg = tkk_algebra("sp3")
    kb = alg.k_basis()
    z = alg.h_element()
    rows = []
    for x in kb:
        row = []
        for y in kb:
            row.extend(alg.bracket(x, y).coords)
        rows.append(tuple(Scalar(v) for v in row))
    ker = linalg.kernel_basis(linalg.transpose(linalg.mat(rows)))
    assert len(ker) == 1
    zc = tuple(Scalar(v) for v in
               [Fraction(c) for c in _k_coords(alg, z)])
    lam = None
    for a, b in zip(ker[0], zc):
        if not b.is_zero():
            lam = a / b
            break
    assert lam is not None
    assert all(a == lam * b for a, b in zip(ker[0], zc))


def _k_coords(alg, elt):
    # coordinates of a k-element in the k-basis: (plus part, D part)
    full = elt.coords
    nj, ns = alg.space.dim, alg.str_dim
    plus = full[:nj]
    mids = full[nj:nj + ns]
    d_part = [c for c, op in zip(mids, alg.str_basis) if op.kind == "D"]
    return list(plus) + d_part


def test_gram_matrix_consistency():
    alg = tkk_algebra("u33")
    rng = random.Random(8)
    g = alg.gram_matrix()
    basis = alg.basis()
    for _ in range(10):
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        assert g[i][j] == alg.invariant_form(basis[i], basis[j])


def test_json_round_trip():
    alg = tkk_algebra("sp3")
    rng = random.Random(9)
    a = rand_tkk(alg, rng)
    assert TKKElement.from_json(a.to_json()) == a
