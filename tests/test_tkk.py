import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from jordan_strata import linalg
from jordan_strata.bilinear import Bilinear
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


def str_coords(alg, t):
    """Coordinates of an operator matrix in the selected str basis, as
    Fractions; ValueError when t is not in str(J)."""
    acc, d = alg._str_ints(t)
    return tuple(Fraction(v, d) for v in acc)


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


def cartan_split(alg):
    """(basis of k, basis of p) for the involution (x,T,y) -> (-y,-T^,-x)."""
    return alg.k_basis(), alg.p_basis()


@pytest.mark.parametrize("case", CASES)
def test_dimension_audit(case):
    alg = tkk_algebra(case)
    assert (alg.str_dim, alg.dim) == DIMS[case]
    kb, pb = cartan_split(alg)
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


def sparse_commutator(a, b):
    """AB - BA for two operators given as rows of {column: entry} dicts."""
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
    return out


def graded_recipe(alg):
    """The Lie table by the graded bracket on basis pairs, every str/str cell
    an operator commutator solved in the str basis, over Fractions and then
    compiled: the build the derivation-rule tables must reproduce."""
    sp, ops = alg.space, alg.str_basis
    n, s, g = sp.dim, alg.str_dim, sp.gram
    table = [[()] * alg.dim for _ in range(alg.dim)]

    def put(i, j, vec):
        table[i][j] = [(k, c) for k, c in vec if c]
        table[j][i] = [(k, -c) for k, c in table[i][j]]

    def commutator(a, b, den):
        """[A, B] / den, a member of str(J), as str-block coordinates."""
        comm = sparse_commutator(a, b)
        acc, d = alg._pivot_coords([comm[r].get(c, 0) for r, c in alg._pivots], den)
        return [(n + k, Fraction(v, d)) for k, v in enumerate(acc) if v]

    for a, op in enumerate(ops):
        rows, den = op.rows, op.den
        for j in range(n):
            # [B, e_j+] = (B e_j)+ and [B, e_j-] = -(B^ e_j)-, B^ = G^-1 B^t G
            put(n + a, j, ((r, Fraction(x[j], den)) for r, x in enumerate(rows) if j in x))
            put(n + a, n + s + j,
                ((n + s + i, Fraction(-v * g[j], g[i] * den)) for i, v in sorted(rows[j].items())))
        for b in range(a + 1, s):
            put(n + a, n + b, commutator(rows, ops[b].rows, den * ops[b].den))
    pden = sp.product.den
    for i in range(n):
        for j in range(n):
            # [e_i+, e_j-] = 2 (L_{e_i o e_j} + [L_{e_i}, L_{e_j}])
            vec = dict(commutator(sp.lops[i], sp.lops[j], pden * pden))
            for k, c in sp.product.rows[i][j]:
                vec[n + k] = vec.get(n + k, 0) + Fraction(c, pden)
            put(i, n + s + j, ((k, 2 * c) for k, c in vec.items()))
    return Bilinear(table)


@pytest.mark.parametrize("case", CASES)
def test_lie_rows_match_the_graded_recipe(case):
    alg = tkk_algebra(case)
    ref = graded_recipe(alg)
    assert alg.lie.den == ref.den
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert dict(alg.lie.rows[i][j]) == dict(ref.rows[i][j]), (i, j)


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
        str_coords(alg, alg.bracket(a, b).mid)


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
    dk = linalg.congruent_diagonal(gram_k)
    dp = linalg.congruent_diagonal(gram_p)
    assert all(x.re < 0 for x in dk)
    assert all(x.re > 0 for x in dp)
    assert all(alg.invariant_form(x, y) == 0 for x in kb[:5] for y in pb[:5])


def int_gram(alg, basis):
    """(den * G, G, den): the invariant-form Gram G of ``basis`` as integers
    over its common denominator den, and as Scalars."""
    gram = [[alg.invariant_form(x, y) for y in basis] for x in basis]
    den = lcm(*[x.denominator for row in gram for x in row])
    ints = [[int(x * den) for x in row] for row in gram]
    return ints, [[Scalar(x) for x in row] for row in gram], den


def negative_definite(minors):
    # Sylvester's criterion; the minors stop at the first zero one
    return all((-1) ** i * d > 0 for i, d in enumerate(minors, 1))


def positive_definite(minors):
    return all(d > 0 for d in minors)


@pytest.mark.parametrize("case", SMALL_CASES)
def test_leading_minors_agree_with_the_congruent_diagonal(case):
    alg = tkk_algebra(case)
    for basis, definite, sign in (
        (alg.k_basis(), negative_definite, -1),
        (alg.p_basis(), positive_definite, 1),
    ):
        ints, gram, den = int_gram(alg, basis)
        minors = linalg.leading_minors(ints)
        diag = linalg.congruent_diagonal(gram)
        assert definite(minors) and all(sign * x.re > 0 for x in diag)
        # with no zero pivot on the way, D_k = d_k / d_(k-1) for the Gram,
        # and the integer Gram is den times it, so d_k(ints) = den^k d_k
        ratios = [Fraction(d, p) / den for d, p in zip(minors, [1] + minors)]
        assert ratios == [x.re for x in diag]


@pytest.mark.parametrize("case", SMALL_CASES)
def test_leading_minors_fail_an_indefinite_and_a_singular_gram(case):
    alg = tkk_algebra(case)
    kb, pb = alg.k_basis(), alg.p_basis()
    # k and p are orthogonal, so the Gram of k + p is block-diagonal k (+) p
    ints, gram, _ = int_gram(alg, kb + pb)
    assert all(ints[i][j] == 0 for i in range(len(kb)) for j in range(len(kb), len(ints)))
    minors = linalg.leading_minors(ints)
    assert len(minors) == len(ints)
    assert not negative_definite(minors) and not positive_definite(minors)
    diag = linalg.congruent_diagonal(gram)
    assert {x.re > 0 for x in diag} == {True, False}
    # a repeated basis vector makes the Gram singular: the minors stop at the
    # first zero one, d_2 when the repeat comes second
    for basis, stop in ((pb + pb[:1], len(pb) + 1), (pb[:1] + pb, 2), (kb[:1] + kb, 2)):
        ints, gram, _ = int_gram(alg, basis)
        minors = linalg.leading_minors(ints)
        assert len(minors) == stop and minors[-1] == 0
        assert not negative_definite(minors) and not positive_definite(minors)
        assert any(x.is_zero() for x in linalg.congruent_diagonal(gram))


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


def assert_same(x, y):
    """Equal values compare equal, hash equal and store the same (v, den),
    which is in lowest terms."""
    assert x == y
    assert hash(x) == hash(y)
    assert (x.case, x.gaussian, x.v, x.den) == (y.case, y.gaussian, y.v, y.den)
    assert type(x.v) is tuple and all(type(c) is int for c in x.v)
    assert len(x.v) == tkk_algebra(x.case).dim
    assert x.den > 0 and gcd(x.den, *x.v) == 1


@pytest.mark.parametrize("case", CASES)
def test_storage_is_canonical_on_every_route(case):
    alg = tkk_algebra(case)
    rng = random.Random(11)
    # rand_tkk goes through lmul_element, the constructor, + and bracket
    x, y = rand_tkk(alg, rng), rand_tkk(alg, rng)
    assert_same(alg.from_coords(x.coords), x)
    assert_same(TKKElement(case, x.plus, x.mid, x.minus), x)
    assert_same(TKKElement.from_json(x.to_json()), x)
    assert_same((x + y) - y, x)
    assert_same(-(-x), x)
    assert_same(x - x, alg.from_coords([0] * alg.dim))
    assert_same(x.scale(3).scale(Fraction(1, 3)), x)
    assert_same(x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)), x)
    assert_same(alg.theta(alg.theta(x)), x)
    # theta keeps k = u + theta(u) and negates p = u - theta(u)
    k, p = x + alg.theta(x), x - alg.theta(x)
    assert_same(alg.theta(k), k)
    assert_same(alg.theta(p), -p)
    for kb in alg.k_basis():
        assert_same(alg.theta(kb), kb)
    for pb in alg.p_basis():
        assert_same(alg.theta(pb), -pb)
    assert_same(alg.complexified_to_p(alg.p_to_complexified(p)), p)
    # brackets with the grading element and the H-element have known values
    d, z = alg.grading_element(), alg.h_element()
    xp = alg.element(plus=x.plus.scale(Fraction(1, 3)))
    assert_same(alg.bracket(d, xp), xp)
    assert_same(alg.bracket(z, alg.bracket(z, p)), -p)
    w = random_element(alg.algebra, rng)
    n = alg.space.dim
    lw = alg.lmul_element(w)
    assert_same(lw, alg.element(mid=lw.mid))
    coords = [Fraction(0)] * n + [c.re for c in w.coords()]
    assert_same(lw, alg.from_coords(coords + [Fraction(0)] * (alg.dim - 2 * n)))
    # the denominator is part of the value
    b0 = alg.basis()[0]
    assert b0 != b0.scale(Fraction(1, 2)) and b0.scale(Fraction(1, 2)).v == b0.v
    assert len({x, alg.from_coords(x.coords), y}) == 2


def test_elements_are_immutable():
    alg = tkk_algebra("sp3")
    x = alg.basis()[0]
    for name, value in (("v", (0,) * alg.dim), ("den", 2), ("case", "u33"), ("coords", ()), ("tag", "e7")):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x == alg.basis()[0] and x.case == "sp3"


def test_constructors_reject_malformed_input():
    alg = tkk_algebra("sp3")
    n = alg.space.dim
    with pytest.raises(ValueError):
        alg.from_coords([1, 2, 3])
    with pytest.raises(ValueError):
        alg.from_coords([0] * (alg.dim + 1))
    z = JordanElement.zero(alg.algebra)
    with pytest.raises(ValueError):
        TKKElement("sp3", JordanElement.zero(alg.algebra, gaussian=True), None, z)
    with pytest.raises(ValueError):
        TKKElement("sp3", z, [[Fraction(0)] * n for _ in range(n - 1)], z)
    obj = alg.basis()[n + 1].to_json()
    obj["mid"] = [row[:-1] for row in obj["mid"]]
    with pytest.raises(ValueError):
        TKKElement.from_json(obj)
    with pytest.raises(TypeError):
        alg.basis()[0].complexify()


# repr(x) and sha256(json.dumps(x.to_json(), sort_keys=True)) of the sample
# element below, one per case
PINNED_REPR = {
    "sp3": "TKKElement(sp3, plus=JordanElement(R, diag=['-3', '-1', '1/3'], "
    "off=(CDNumber(0, ['-1/4']), CDNumber(0, ['-1']), CDNumber(0, ['1/2']))), "
    "minus=JordanElement(R, diag=['-1/2', '1', '-1/2'], "
    "off=(CDNumber(0, ['-1/3']), CDNumber(0, ['1/4']), CDNumber(0, ['-2']))))",
    "u33": "TKKElement(u33, plus=JordanElement(C, diag=['-3', '-1', '1/3'], "
    "off=(CDNumber(1, ['-1/4', '-1']), CDNumber(1, ['1/2', '-2/3']), "
    "CDNumber(1, ['-3/4', '-2']))), minus=JordanElement(C, diag=['1/3', '-1/2', '-3'], "
    "off=(CDNumber(1, ['-1', '1/3']), CDNumber(1, ['-1/4', '-1']), "
    "CDNumber(1, ['1/2', '-2/3']))))",
}
PINNED_REPR_SHA256 = {
    "sp3": "631b07150908138e92520542fd6fc55b9b9168556ab928612463e6c6511c7446",
    "u33": "155b895571bcee413888e3a72bcf717f6014bf373786917b4e1897b1912f4610",
    "so12": "eae8b1d1c6ae1eee579531406637e5bbeed91ee7cd8495325b78d9f05d84ddf9",
    "e7": "73aa068700b5e1b6734d101efb227fe222f4c7e2c52640144122f6e19f1cfdce",
}
PINNED_JSON_SHA256 = {
    "sp3": "d814f0011f0ef993408c34ecdc20c09e2d9d542960acd618bf2442faf2a4c3fd",
    "u33": "f6f46807da86cffd89033fe4776f558c472094d32843e4dbac81c3e115fa6928",
    "so12": "9d06b6bab47cdd4861a32069c193c6d10b4eb35f89ea2c74ad5345bffd8cc8f6",
    "e7": "ac1a02dff62cadfc504bce8dc680242f3e7d9a610b70a2d7f7ff8f59ec3bdee9",
}


@pytest.mark.parametrize("case", CASES)
def test_repr_and_json_are_pinned(case):
    alg = tkk_algebra(case)
    x = alg.from_coords([Fraction(k * k % 7 - 3, 1 + k % 4) for k in range(alg.dim)])
    r, j = repr(x), json.dumps(x.to_json(), sort_keys=True)
    if case in PINNED_REPR:
        assert r == PINNED_REPR[case]
    assert hashlib.sha256(r.encode()).hexdigest() == PINNED_REPR_SHA256[case]
    assert hashlib.sha256(j.encode()).hexdigest() == PINNED_JSON_SHA256[case]


def test_mid_entries_decode_as_rationals_only():
    alg = tkk_algebra("sp3")
    obj = alg.basis()[alg.space.dim + 1].to_json()
    assert all(len(x) == 2 and type(x[0]) is int for row in obj["mid"] for x in row)
    obj["mid"][0][0] = [obj["mid"][0][0], [1, 1]]  # an imaginary part, once dropped silently
    with pytest.raises(ValueError, match="expected a rational"):
        TKKElement.from_json(obj)
