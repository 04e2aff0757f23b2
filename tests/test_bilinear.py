import operator
import random
from fractions import Fraction

import pytest

from jordan_strata import bilinear, cayley_dickson, jordan, linalg, strata
from jordan_strata.bilinear import Bilinear
from jordan_strata.cayley_dickson import CDNumber, _cd_product
from jordan_strata.jordan import (
    ALGEBRAS,
    JordanElement,
    cross_tensor,
    jordan_mul,
    rank_det_sharp,
    structure_tensor,
)
from jordan_strata.scalars import Scalar
from jordan_strata.strata import random_element
from jordan_strata.tkk import tkk_algebra
from test_jordan import TAGS

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


def test_the_engine_and_the_elimination_core_hold_no_fraction():
    # tables arrive as integer rows over one denominator and the echelon
    # eliminates on integers, so neither module has a Fraction to reach for
    for module in (bilinear, linalg):
        assert all(v is not Fraction for v in vars(module).values()), module.__name__


def square_operands(rng, n, gaussian):
    """Zero, one and two nonzero coordinates, dense small and dense 40-digit
    vectors, and over Q(i) purely real and purely imaginary ones."""
    m = 2 * n if gaussian else n
    yield [0] * m
    for count in (1, 2):
        for _ in range(3):
            v = [0] * m
            for k in rng.sample(range(m), min(count, m)):
                v[k] = rng.choice([-7, -1, 1, 3])
            yield v
    for height in (5, 10**40):
        v = [rng.randint(-height, height) or 1 for _ in range(m)]
        yield v
        if gaussian:
            yield v[:n] + [0] * n
            yield [0] * n + v[n:]


SQUARED_TABLES = [(f"{kind}-{algebra}", TABLES[kind], algebra)
                  for kind in sorted(TABLES) for algebra in ALGEBRAS]
SQUARED_TABLES += [(f"cd-{level}", _cd_product, level) for level in (0, 1)]


@pytest.mark.parametrize("name, build, arg", SQUARED_TABLES, ids=[t[0] for t in SQUARED_TABLES])
@pytest.mark.parametrize("gaussian", [False, True])
def test_compiled_square_agrees_with_the_contraction_loop(name, build, arg, gaussian):
    t = build(arg)
    rng = random.Random(f"{name}{gaussian}")
    for xv in square_operands(rng, t.dim, gaussian):
        assert t.square(xv, gaussian) == t.contract(xv, xv, gaussian)


def test_square_is_compiled_once_per_table_and_serves_both_rings():
    complex_numbers = [[((0, 1),), ((1, 1),)], [((1, 1),), ((0, -1),)]]
    t = Bilinear(complex_numbers, 1)
    t.contract([1, 2], [3, 4])
    assert t._square_fn is None
    assert t.square([1, 2]) == [-3, 4]  # (1 + 2i)^2
    fn = t._square_fn
    assert fn is not None
    t.square([3, 4])
    assert t._square_fn is fn
    assert t.square([1, 0, 0, 1], gaussian=True) == [2, 0, 0, 2]  # (1 + i e1)^2 over Q(i)
    assert t._square_fn is fn
    # compiled on a first Gaussian square just the same, and reused over Q
    t = Bilinear(complex_numbers, 1)
    assert t.square([1, 0, 0, 1], gaussian=True) == [2, 0, 0, 2]
    fn = t._square_fn
    assert fn is not None
    assert t.square([1, 2]) == [-3, 4]
    assert t._square_fn is fn


# every table that left, product or a Gaussian contract serves
LEFT_TABLES = [(f"cd-{level}", _cd_product, level) for level in range(4)]
LEFT_TABLES += [(f"{kind}-{algebra}", TABLES[kind], algebra)
                for kind in sorted(TABLES) for algebra in ALGEBRAS]


@pytest.mark.parametrize("name, build, arg", LEFT_TABLES, ids=[t[0] for t in LEFT_TABLES])
@pytest.mark.parametrize("gaussian", [False, True])
def test_left_applied_to_y_is_the_contraction(name, build, arg, gaussian):
    # left over Q(i) is assembled from the real L(a) and L(b), and contract
    # walks the real cells once per coordinate pair: two routes to x y
    t = build(arg)
    m = t.dim * (2 if gaussian else 1)
    rng = random.Random(f"left{name}{gaussian}")
    xs, ys = list(operands(rng, m)), list(operands(rng, m))
    for xv in xs:
        lx = t.left(xv, gaussian)
        assert len(lx) == m and all(len(row) == m for row in lx)
        for yv in ys:
            assert [sum(map(operator.mul, row, yv)) for row in lx] == t.contract(xv, yv, gaussian)


def product_operands(rng, n, gaussian):
    """(x, y) pairs of integer vectors: dense, a one-coordinate x, a
    one-coordinate y, both one-coordinate, an all-zero x or y, and dense
    40-digit ones; over Q(i) a single coordinate is real or imaginary."""
    m = 2 * n if gaussian else n

    def dense(height):
        return [rng.randint(-height, height) for _ in range(m)]

    def one():
        v = [0] * m
        v[rng.randrange(m)] = rng.choice([-7, -1, 1, 3])
        return v

    for _ in range(3):
        yield dense(5), dense(5)
        yield one(), dense(5)
        yield dense(5), one()
        yield one(), one()
    yield [0] * m, dense(5)
    yield dense(5), [0] * m
    yield dense(10**40), dense(10**40)
    yield one(), dense(10**40)
    yield dense(10**40), one()


@pytest.mark.parametrize("name, build, arg", LEFT_TABLES, ids=[t[0] for t in LEFT_TABLES])
@pytest.mark.parametrize("gaussian", [False, True])
def test_compiled_product_agrees_with_the_contraction_loop(name, build, arg, gaussian):
    # over Q(i) product takes Karatsuba's three real products and contract
    # the schoolbook pair walk: two routes to x y
    t = build(arg)
    rng = random.Random(f"product{name}{gaussian}")
    for xv, yv in product_operands(rng, t.dim, gaussian):
        assert t.product(xv, yv, gaussian) == t.contract(xv, yv, gaussian)
        assert t.product(tuple(xv), tuple(yv), gaussian) == t.contract(xv, yv, gaussian)


def test_only_a_product_of_two_elements_compiles_a_product():
    # the benchmark's set-up squares the identity of each algebra: building a
    # table, a self-product and a square must generate no product function
    structure_tensor.cache_clear()
    cross_tensor.cache_clear()
    _cd_product.cache_clear()
    rng = random.Random(26)
    for algebra in ALGEBRAS:
        for gaussian in (False, True):
            one = JordanElement.identity(algebra, gaussian)
            x = random_element(algebra, rng, gaussian)
            assert jordan_mul(one, one) == one
            jordan_mul(x, x)
            rank_det_sharp(x)
    for level in (0, 1):
        _cd_product(level).square([1] * (1 << level))
    tables = [f(a) for f in TABLES.values() for a in ALGEBRAS]
    tables += [_cd_product(level) for level in range(4)]
    assert all(t._product_fn is None for t in tables)
    # the first product of two elements compiles it, once for both rings
    x, y = random_element("O", rng), random_element("O", rng)
    assert x != y
    jordan_mul(x, y)
    fn = structure_tensor("O")._product_fn
    assert fn is not None
    jordan_mul(x.complexify(), y.complexify())
    assert structure_tensor("O")._product_fn is fn
    assert cross_tensor("O")._product_fn is None


# -- the JSON codec: the per-coordinate Scalar encoding is its oracle


def per_coordinate_json(x):
    """The encoding read off the Scalar views, one ``Scalar.to_json`` per coordinate."""
    if isinstance(x, CDNumber):
        return {"level": x.level, "coeffs": [c.to_json() for c in x.coeffs]}
    return {
        "algebra": x.algebra,
        "complexified": x.gaussian,
        "diag": [s.to_json() for s in x.diag],
        "off": [per_coordinate_json(q) for q in x.off],
    }


def coordinate_samples(rng, n, gaussian):
    """Scalar coordinate lists of length n: zero, all ones, one unit, sparse,
    dense small and dense 40-digit fractions over unrelated denominators."""

    def frac(height):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def scalar(height):
        return Scalar(frac(height), frac(height) if gaussian else 0, gaussian)

    zero = Scalar(0, 0, gaussian)
    yield [zero] * n
    yield [Scalar(1, 0, gaussian)] * n
    unit = [zero] * n
    unit[rng.randrange(n)] = Scalar(1, 0, gaussian)
    yield unit
    sparse = [zero] * n
    for k in rng.sample(range(n), min(n, 2)):
        sparse[k] = scalar(9)
    yield sparse
    for height in (9, 10**40):
        yield [scalar(height) for _ in range(n)]


def refuse(*args, **kwargs):
    raise AssertionError("the JSON codec built a Scalar")


def assert_codec_round_trip(x, decode):
    # with box refused in every module that binds it, and both Scalar
    # constructors refused, the encoder and the decoder still run: they read
    # and write the stored integers and build no Scalar
    with pytest.MonkeyPatch.context() as mp:
        for module in (bilinear, cayley_dickson, jordan, strata):
            mp.setattr(module, "box", refuse)
        mp.setattr(Scalar, "__init__", refuse)
        mp.setattr(Scalar, "_of", staticmethod(refuse))
        enc = x.to_json()
        y = decode(enc)
    assert enc == per_coordinate_json(x)
    assert (y.v, y.den, hash(y)) == (x.v, x.den, hash(x))
    assert per_coordinate_json(y) == enc


@pytest.mark.parametrize("tag", TAGS)
def test_jordan_json_is_the_per_coordinate_scalar_encoding(tag):
    algebra, gaussian = tag[0], tag.endswith("_C")
    rng = random.Random(f"codec-{tag}")
    for coords in coordinate_samples(rng, JordanElement.space_dim(algebra), gaussian):
        x = JordanElement.from_coords(algebra, coords, gaussian)
        assert_codec_round_trip(x, JordanElement.from_json)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("gaussian", [False, True])
def test_cd_json_is_the_per_coordinate_scalar_encoding(level, gaussian):
    rng = random.Random(f"codec-{level}-{gaussian}")
    for coeffs in coordinate_samples(rng, 1 << level, gaussian):
        assert_codec_round_trip(CDNumber(level, coeffs), CDNumber.from_json)


@pytest.mark.parametrize("entry", [[2, 4], [1, -2], [0, 7]])
def test_unreduced_entries_decode_as_the_constructor_route(entry):
    # an unreduced fraction, a negative denominator, a zero over a denominator
    # other than 1: each is stored, hashed and written back as its lowest terms
    q = Fraction(*entry)
    for gaussian in (False, True):
        enc = [entry, [3, -6]] if gaussian else entry
        s = Scalar(q, Fraction(-1, 2) if gaussian else 0, gaussian)
        third = Scalar(Fraction(1, 3), 0, gaussian)
        pairs = [
            (
                CDNumber.from_json({"level": 1, "coeffs": [enc, third.to_json()]}),
                CDNumber(1, (s, third)),
            ),
            (
                JordanElement.from_json({
                    "algebra": "R",
                    "complexified": gaussian,
                    "diag": [enc, third.to_json(), enc],
                    "off": [{"level": 0, "coeffs": [enc]}] * 3,
                }),
                JordanElement("R", (s, third, s), [CDNumber(0, (s,))] * 3),
            ),
        ]
        for decoded, built in pairs:
            assert (decoded.v, decoded.den, hash(decoded)) == (built.v, built.den, hash(built))
            assert decoded.to_json() == built.to_json() == per_coordinate_json(built)
