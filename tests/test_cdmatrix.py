import random
from fractions import Fraction

import pytest

from jordan_strata import cdmatrix as cdm
from jordan_strata.cayley_dickson import CDNumber, cd_mul, cd_mul_doubling
from jordan_strata.reduction import CASE_LEVEL, WMap, symplectic_form, symplectic_gram
from jordan_strata.scalars import RingMismatch, Scalar

# (level, gaussian): levels 0-2 over Q and level 0 over Q(i)
RINGS = [(0, False), (1, False), (2, False), (0, True)]


def rand_part(rng, tall):
    if tall:
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
    return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))


def rand_cd(rng, level, gaussian, tall, sparse):
    """A random entry; a sparse one is zero half the time and otherwise has
    a few zero coordinates."""
    if sparse and rng.random() < 0.5:
        return CDNumber.zero(level, gaussian)

    def part():
        return Fraction(0) if sparse and rng.random() < 0.4 else rand_part(rng, tall)

    return CDNumber(
        level,
        [Scalar(part(), part() if gaussian else 0, gaussian) for _ in range(1 << level)],
    )


def rand_matrix(rng, m, n, level, gaussian, tall, sparse):
    return tuple(
        tuple(rand_cd(rng, level, gaussian, tall, sparse) for _ in range(n)) for _ in range(m)
    )


def reference_mul(a, b):
    """Entrywise sum of products by the pair recursion."""
    level, gaussian = a[0][0].level, a[0][0].gaussian
    out = []
    for row in a:
        out_row = []
        for k in range(len(b[0])):
            acc = CDNumber.zero(level, gaussian)
            for j, x in enumerate(row):
                acc = acc + cd_mul_doubling(x, b[j][k])
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


@pytest.mark.parametrize("level, gaussian", RINGS)
def test_mul_matches_entrywise_doubling_products(level, gaussian):
    rng = random.Random(100 + 10 * level + gaussian)
    for tall in (False, True):
        for sparse in (False, True):
            for _ in range(4):
                m, k, n = (rng.randint(1, 6) for _ in range(3))
                a = rand_matrix(rng, m, k, level, gaussian, tall, sparse)
                b = rand_matrix(rng, k, n, level, gaussian, tall, sparse)
                assert cdm.mul(a, b) == reference_mul(a, b)


def test_mul_dense_six_by_six_at_every_ring():
    rng = random.Random(7)
    for level, gaussian in RINGS:
        for tall in (False, True):
            a = rand_matrix(rng, 6, 6, level, gaussian, tall, False)
            b = rand_matrix(rng, 6, 6, level, gaussian, tall, False)
            assert cdm.mul(a, b) == reference_mul(a, b)


def test_mul_checks_every_entry_ring():
    one = CDNumber.one(1)
    for stray in (CDNumber.zero(2), CDNumber.zero(1, gaussian=True)):
        with pytest.raises(RingMismatch):
            cdm.mul(((one, stray),), ((one,), (one,)))
        with pytest.raises(RingMismatch):
            cdm.mul(((one, one),), ((one,), (stray,)))
    with pytest.raises(RingMismatch):
        cdm.mul(((one, CDNumber.zero(2)),), ((CDNumber.zero(1),), (one,)))
    with pytest.raises(ValueError, match="inner dimensions"):
        cdm.mul(((one, one),), ((one,),))


def reference_omega(alpha, beta):
    """Re tr(conj(alpha)^T B beta), B = [[0, I3], [-I3, 0]], by the pair recursion."""
    level = CASE_LEVEL[alpha.case]
    acc = CDNumber.zero(level)
    for t in range(alpha.s):
        for r in range(6):
            b_beta = beta.matrix[r + 3][t] if r < 3 else -beta.matrix[r - 3][t]
            acc = acc + cd_mul_doubling(alpha.matrix[r][t].conjugate(), b_beta)
    return acc.real()


@pytest.mark.parametrize("case", sorted(CASE_LEVEL))
def test_symplectic_form_matches_matrix_route(case):
    rng = random.Random(200 + CASE_LEVEL[case])
    level = CASE_LEVEL[case]
    for tall in (False, True):
        for sparse in (False, True):
            for s in (1, 2, 3, 5):
                alpha, beta = (
                    WMap(case, rand_matrix(rng, 6, s, level, False, tall, sparse))
                    for _ in range(2)
                )
                omega = symplectic_form(alpha, beta)
                assert omega == reference_omega(alpha, beta)
                assert not omega.gaussian
    with pytest.raises(ValueError, match="case or size mismatch"):
        symplectic_form(WMap.zero(case, 2), WMap.zero(case, 3))


@pytest.mark.parametrize("case", sorted(CASE_LEVEL))
def test_symplectic_gram_matches_symplectic_form(case):
    rng = random.Random(300 + CASE_LEVEL[case])
    level = CASE_LEVEL[case]
    for tall in (False, True):
        for sparse in (False, True):
            maps, others = (
                [WMap(case, rand_matrix(rng, 6, 2, level, False, tall, sparse)) for _ in range(k)]
                for k in (4, 3)
            )
            gram = symplectic_gram(maps, others)
            assert len(gram) == 4 and all(len(row) == 3 for row in gram)
            for a, row in zip(maps, gram):
                for b, omega in zip(others, row):
                    assert omega == symplectic_form(a, b) == reference_omega(a, b)
                    assert not omega.gaussian
            square = symplectic_gram(maps)
            assert square == tuple(tuple(symplectic_form(a, b) for b in maps) for a in maps)
            assert all(square[i][i].is_zero() for i in range(4))
    with pytest.raises(ValueError, match="case or size mismatch"):
        symplectic_gram([WMap.zero(case, 2)], [WMap.zero(case, 2), WMap.zero(case, 3)])
    with pytest.raises(ValueError, match="case or size mismatch"):
        symplectic_gram([WMap.zero(case, 2), WMap.zero("real" if level else "complex", 2)])


def same(x, y):
    return x == y and hash(x) == hash(y) and (x.v, x.den) == (y.v, y.den)


@pytest.mark.parametrize("level, gaussian", RINGS)
def test_mul_entries_are_stored_canonically(level, gaussian):
    rng = random.Random(400 + 10 * level + gaussian)
    zero = CDNumber.zero(level, gaussian)
    for tall in (False, True):
        for _ in range(4):
            x, y = (rand_cd(rng, level, gaussian, tall, False) for _ in range(2))
            ((p,),) = cdm.mul(((x,),), ((y,),))
            assert same(p, cd_mul(x, y))
            assert same(p, cd_mul_doubling(x, y))
            assert same(p, CDNumber(level, p.coeffs))
            # x y - x y and x y + x y - x y as one sum each
            ((c,),) = cdm.mul(((x, x),), ((y,), (-y,)))
            assert same(c, zero) and c.den == 1
            ((d,),) = cdm.mul(((x, x, x),), ((y,), (y,), (-y,)))
            assert same(d, p)
    a = rand_matrix(rng, 3, 3, level, gaussian, True, True)
    b = rand_matrix(rng, 3, 3, level, gaussian, True, True)
    for got, want in zip(cdm.mul(a, b), reference_mul(a, b)):
        assert all(same(g, w) for g, w in zip(got, want))


def test_inverse_entries_are_stored_canonically():
    rng = random.Random(11)
    for level, gaussian in RINGS:
        a = rand_matrix(rng, 3, 3, level, gaussian, False, False)
        try:
            inv = cdm.inverse(a)
        except ZeroDivisionError:
            continue
        ident = cdm.identity(3, level, gaussian)
        for got, want in zip(reference_mul(a, inv), ident):
            assert all(same(g, w) for g, w in zip(got, want))
        for row in inv:
            assert all(same(x, CDNumber(level, x.coeffs)) for x in row)


@pytest.mark.parametrize("level, gaussian", RINGS)
def test_inverse_is_a_two_sided_inverse_under_the_doubling_products(level, gaussian):
    # checked on reference_mul, which shares no table with the left-regular
    # blocks that cdm.mul and cdm.inverse both run on
    rng = random.Random(500 + 10 * level + gaussian)
    for n in (2, 3, 6):
        ident = cdm.identity(n, level, gaussian)
        inverted = 0
        for sparse in (False, True):
            for _ in range(3):
                a = rand_matrix(rng, n, n, level, gaussian, False, sparse)
                try:
                    inv = cdm.inverse(a)
                except ZeroDivisionError:
                    continue
                inverted += 1
                assert reference_mul(a, inv) == ident
                assert reference_mul(inv, a) == ident
        assert inverted
