import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from jordan_strata import cdmatrix as cdm
from jordan_strata import linalg
from jordan_strata.cayley_dickson import CDNumber, block_row
from jordan_strata.scalars import Scalar
from jordan_strata.tkk import tkk_algebra
from test_tkk import str_coords

SHAPES = [(n, n) for n in range(1, 7)] + [(1, 4), (2, 5), (3, 6), (4, 2), (5, 3), (6, 1)]
RINGS = [(False, False), (True, False), (False, True), (True, True)]  # (gaussian, tall)


def rand_scalar(rng, gaussian, tall):
    def part():
        if rng.random() < 0.25:
            return Fraction(0)
        if tall:
            return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))

    return Scalar(part(), part() if gaussian else 0, gaussian)


def school_mul(a, b):
    """The schoolbook product, entry (i, j) the sum of a_ik b_kj in the entries'
    own arithmetic (``Scalar`` or ``cd_mul``): it reads no block row, so it
    checks the products that ``linalg`` and ``cdmatrix`` read off L(x)."""
    return tuple(
        tuple(reduce(add, (x * y for x, y in zip(row, col))) for col in zip(*b)) for row in a
    )


def rand_matrix(rng, m, n, gaussian, tall, rank=None):
    """An m x n matrix; with ``rank`` given, a product of m x rank and rank x n."""
    if rank is None:
        return tuple(tuple(rand_scalar(rng, gaussian, tall) for _ in range(n)) for _ in range(m))
    u = rand_matrix(rng, m, rank, gaussian, tall)
    v = rand_matrix(rng, rank, n, gaussian, tall)
    return school_mul(u, v) if rank else ((Scalar.zero(gaussian),) * n,) * m


def over_row_dens(rng, a):
    """``a`` with each row divided by its own 40-digit denominator."""
    out = []
    for row in a:
        d = rng.randint(1, 10**40)
        out.append(tuple(x * Fraction(1, d) for x in row))
    return tuple(out)


def identity(n, gaussian):
    z, o = Scalar.zero(gaussian), Scalar.one(gaussian)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def mat_vec(a, v):
    return tuple(row[0] for row in school_mul(a, tuple((x,) for x in v)))


def cases(seed):
    """Random matrices of every shape over Q and Q(i), of full and of lower
    rank, at small and 40-digit height, and at 40-digit height with a
    different denominator per row."""
    rng = random.Random(seed)
    for gaussian, tall in RINGS:
        for m, n in SHAPES:
            for rank in (None, rng.randint(0, min(m, n))):
                a = rand_matrix(rng, m, n, gaussian, tall, rank)
                yield rng, gaussian, tall, a
                if tall:
                    yield rng, gaussian, tall, over_row_dens(rng, a)


def test_solve_in_and_outside_the_column_space():
    for rng, gaussian, tall, a in cases(1):
        m, n = len(a), len(a[0])
        x = tuple(rand_scalar(rng, gaussian, tall) for _ in range(n))
        b = mat_vec(a, x)
        assert mat_vec(a, linalg.solve(a, b)) == b
        # with a zero last row, any b with a nonzero last entry is outside the
        # column space; a unit lower-triangular mix hides the zero row
        low = tuple(
            tuple(
                Scalar.one(gaussian) if i == j else rand_scalar(rng, gaussian, tall) if j < i
                else Scalar.zero(gaussian)
                for j in range(m)
            )
            for i in range(m)
        )
        a0 = a[:-1] + ((Scalar.zero(gaussian),) * n,)
        b0 = mat_vec(a0, x)[:-1] + (Scalar.one(gaussian),)
        assert linalg.solve(school_mul(low, a0), mat_vec(low, b0)) is None


def test_kernel_basis_is_killed_and_has_the_right_size():
    for _, gaussian, _, a in cases(2):
        ker = linalg.kernel_basis(a)
        assert len(ker) == len(a[0]) - linalg.rank(a)
        zero = (Scalar.zero(gaussian),) * len(a)
        assert all(mat_vec(a, v) == zero for v in ker)
        assert linalg.rank(tuple(ker)) == len(ker)


def test_inverse_and_rank_against_the_cofactor_determinant():
    # the integer core on its own: the inverse of diag(2, 3) has echelon
    # pivots 2 and 3, so its rows come over their lcm
    assert linalg._inverse_columns([[2, 0], [0, 3]], 1, [1, 1]) == ([[3, 0], [0, 2]], 6)
    for _, gaussian, _, a in cases(3):
        n = len(a)
        if len(a[0]) != n:
            continue
        invertible = not linalg.determinant(a).is_zero()
        assert (linalg.rank(a) == n) == invertible
        # m / dens is a's block-row matrix (over Q(i) its realification), each
        # row over its own denominator; rows / den are columns 0, w, 2w, ... of
        # its inverse, so the integer product m rows is den diag(dens) there
        w = len(a[0][0].v)
        blocks = [block_row(row, a[0][0]) for row in a]
        m = [r for block, _ in blocks for r in block]
        dens = [d for _, d in blocks for _ in range(w)]
        if invertible:
            inv = linalg.inverse(a)
            assert school_mul(a, inv) == school_mul(inv, a) == identity(n, gaussian)
            rows, den = linalg._inverse_columns(m, w, dens)
            assert all(type(x) is int for row in rows for x in row)
            assert school_mul(m, rows) == tuple(
                tuple(den * dens[r] if r == w * c else 0 for c in range(n)) for r in range(w * n)
            )
        else:
            with pytest.raises(ZeroDivisionError):
                linalg.inverse(a)
            with pytest.raises(ZeroDivisionError):
                linalg._inverse_columns(m, w, dens)


def test_leading_minors_against_the_cofactor_determinant():
    rng = random.Random(6)
    for n in range(1, 7):
        for _ in range(12):
            # small entries and many zeros, so some leading minors vanish
            a = [[rng.choice([0, 0, 1, -1, 2, -3, 10**20]) for _ in range(n)] for _ in range(n)]
            minors = linalg.leading_minors(a)
            assert 1 <= len(minors) <= n and (len(minors) == n or minors[-1] == 0)
            assert 0 not in minors[:-1]
            for k, d in enumerate(minors, 1):
                block = tuple(tuple(Scalar(x) for x in row[:k]) for row in a[:k])
                assert linalg.determinant(block) == d


def test_rref_canonical_vectors_over_gaussian_rationals():
    i = Scalar.i()

    def g(re, im=0):
        return Scalar(re, im, True)

    # row 2 = i * row 1; RREF = [[1, 0, 3 - i], [0, 1, 1 + i], [0, 0, 0]]
    a = ((g(1), i, g(2)), (i, g(-1), g(0, 2)), (g(0), g(1), g(1, 1)))
    assert linalg.rank(a) == 2
    assert linalg.kernel_basis(a) == [(g(-3, 1), g(-1, -1), g(1))]
    assert linalg.solve(a, (g(2), g(0, 2), g(1))) == (g(2, -1), g(1), g(0))
    assert linalg.solve(a, (g(1), g(0), g(0))) is None
    assert all(x.gaussian for x in linalg.solve(a, (g(2), g(0, 2), g(1))))


def test_frac_rank_matches_scalar_rank():
    for _, gaussian, _, a in cases(4):
        if not gaussian:
            assert linalg.frac_rank([[x.re for x in row] for row in a]) == linalg.rank(a)
    # frac_rank clears each row; the echelon itself takes integer rows only
    with pytest.raises(TypeError):
        linalg._Echelon().insert([Fraction(1, 2), 1])


def rand_skew(rng, n, rank, entry):
    """The n x n skew matrix sum (u v^T - v u^T) over rank / 2 pairs u, v of
    vectors drawn from ``entry()``: rank at most ``rank``, generically equal."""
    a = [[0] * n for _ in range(n)]
    for _ in range(rank // 2):
        u = [entry() for _ in range(n)]
        v = [entry() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                a[i][j] += u[i] * v[j] - v[i] * u[j]
    return a


def test_skew_rank_matches_frac_rank_at_every_even_rank():
    rng = random.Random(9)
    entries = {
        "small": lambda: rng.randint(-3, 3),
        "sparse": lambda: rng.choice((0, 0, 0, 0, 1, -1, 2)),  # zero rows and columns
        "40-digit": lambda: rng.randint(-10**40, 10**40),
        "fraction": lambda: Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)),
    }
    for name, entry in entries.items():
        seen = set()
        for n in range(1, 11):
            for rank in range(0, n + 1, 2):
                a = rand_skew(rng, n, rank, entry)
                r = linalg.skew_rank(a)
                assert r == linalg.frac_rank(a) and r <= rank, (name, a)
                seen.add(r)
        assert seen == set(range(0, 11, 2)), name


def test_skew_rank_is_full_exactly_when_the_cofactor_determinant_is_nonzero():
    rng = random.Random(10)
    seen = set()
    for n in range(1, 7):
        for _ in range(25):
            raw = [[rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(n)]
                   for _ in range(n)]
            a = [[raw[i][j] - raw[j][i] for j in range(n)] for i in range(n)]
            singular = linalg.determinant(tuple(tuple(Scalar(x) for x in row) for row in a)).is_zero()
            assert (linalg.skew_rank(a) == n) != singular
            seen.add((n % 2, singular))
    assert seen == {(0, False), (0, True), (1, True)}


def test_skew_rank_of_the_empty_and_1x1_matrices_and_of_malformed_input():
    assert linalg.skew_rank([]) == 0
    assert linalg.skew_rank([[0]]) == linalg.skew_rank([[Fraction(0)]]) == 0
    assert linalg.skew_rank([[0, Fraction(-1, 2)], [Fraction(1, 2), 0]]) == 2
    with pytest.raises(ValueError, match="not a square matrix"):
        linalg.skew_rank([[0, 1, 2], [-1, 0, 3]])
    with pytest.raises(ValueError, match="not a square matrix"):
        linalg.skew_rank([[0, 1], [-1]])
    # a nonzero diagonal, a symmetric pair, or a lower triangle that is not
    # minus the upper one is refused, though the upper triangle alone is skew
    for bad in ([[1]], [[0, 1], [1, 0]], [[0, 1, 2], [-1, 0, 3], [-2, 3, 0]]):
        with pytest.raises(ValueError, match="not a skew-symmetric matrix"):
            linalg.skew_rank(bad)


@pytest.mark.parametrize("level, gaussian", [(0, False), (0, True), (1, False), (2, False)])
def test_cdmatrix_inverse(level, gaussian):
    rng = random.Random(5 + level)
    for n in (1, 2, 3, 4):
        a = tuple(
            tuple(
                CDNumber(level, [rand_scalar(rng, gaussian, False) for _ in range(1 << level)])
                for _ in range(n)
            )
            for _ in range(n)
        )
        try:
            inv = cdm.inverse(a)
        except ZeroDivisionError:
            continue
        ident = cdm.identity(n, level, gaussian)
        assert school_mul(a, inv) == school_mul(inv, a) == ident
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        cdm.inverse((a[0],) + a[:-1])
    one = CDNumber.one(1, gaussian=True)
    with pytest.raises(ValueError):
        cdm.inverse(((one,),))


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2)])
def test_inverse_rejects_a_non_square_matrix(m, n):
    rng = random.Random(8)
    for gaussian in (False, True):
        a = rand_matrix(rng, m, n, gaussian, False)
        with pytest.raises(ValueError, match="not a square matrix"):
            linalg.inverse(a)
    for level, gaussian in [(0, False), (0, True), (1, False), (2, False)]:
        one = CDNumber.one(level, gaussian)
        with pytest.raises(ValueError, match="not a square matrix"):
            cdm.inverse(((one,) * n,) * m)
    with pytest.raises(ValueError, match="not a square matrix"):
        linalg._inverse_columns([[1, 0, 0], [0, 1, 0]], 1, [1, 1])


def test_str_coords_rejects_an_operator_outside_the_structure_algebra():
    alg = tkk_algebra("sp3")
    n = alg.space.dim
    unit = [[Fraction(int((r, c) == (0, 1))) for c in range(n)] for r in range(n)]
    with pytest.raises(ValueError):
        str_coords(alg, unit)
    op = alg.basis()[n + alg.str_dim - 1].mid
    coords = str_coords(alg, op)
    assert coords == tuple(Fraction(int(k == alg.str_dim - 1)) for k in range(alg.str_dim))
    # an operator on J is n x n: no other shape is read, zero or not
    zero = lambda rows, cols: [[Fraction(0)] * cols for _ in range(rows)]
    for bad in (zero(1, 1), zero(n - 1, n), zero(n, n + 1), op[:-1], [row[1:] for row in op]):
        with pytest.raises(ValueError):
            str_coords(alg, bad)
