import random

import pytest

from jordan_strata.bilinear import Bilinear
from jordan_strata.cayley_dickson import _cd_product
from jordan_strata.jordan import ALGEBRAS, cross_tensor, structure_tensor
from jordan_strata.tkk import tkk_algebra

TABLES = {"structure": structure_tensor, "cross": cross_tensor}


def operands(rng, n):
    """Integer coordinate vectors of length n: dense, sparse, zero, 40-digit."""
    yield [rng.randint(-5, 5) for _ in range(n)]
    for _ in range(2):
        sparse = [0] * n
        for k in rng.sample(range(n), min(n, 3)):
            sparse[k] = rng.choice([-3, -1, 1, 2])
        yield sparse
    yield [0] * n
    yield [rng.choice([0, 1]) * rng.randint(-10**40, 10**40) for _ in range(n)]


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("gaussian", [False, True])
def test_square_matches_contract_on_the_jordan_tables(table, algebra, gaussian):
    t = TABLES[table](algebra)
    rng = random.Random(f"{table}{algebra}{gaussian}")
    for xv in operands(rng, t.dim * (2 if gaussian else 1)):
        assert t.square(xv, gaussian) == t.contract(xv, xv, gaussian)


@pytest.mark.parametrize("gaussian", [False, True])
def test_square_matches_contract_on_commutative_cd_levels(gaussian):
    # R and C are commutative, so their unit tables take the half-table route too
    for level in (0, 1):
        t = _cd_product(level)
        rng = random.Random(level)
        for xv in operands(rng, t.dim * (2 if gaussian else 1)):
            assert t.square(xv, gaussian) == t.contract(xv, xv, gaussian)


def test_square_refuses_a_non_commutative_table():
    for t in (_cd_product(2), _cd_product(3), tkk_algebra("sp3").lie):
        for gaussian in (False, True):
            with pytest.raises(ValueError, match="commutative"):
                t.square([1] * (t.dim * (2 if gaussian else 1)), gaussian)


def test_half_table_is_compiled_once_per_ring_on_first_square():
    t = Bilinear([[((0, 1),), ((1, 1),)], [((1, 1),), ((0, -1),)]])  # the complex numbers
    t.contract([1, 2], [3, 4])
    assert t._half_rows == [None, None]
    assert t.square([1, 2]) == [-3, 4]  # (1 + 2i)^2
    half = t._half_rows[False]
    assert half is not None and t._half_rows[True] is None
    t.square([3, 4])
    assert t._half_rows[False] is half
    assert t.square([1, 0, 0, 1], gaussian=True) == [2, 0, 0, 2]  # (1 + i e1)^2 over Q(i)
