import random
from fractions import Fraction
from math import gcd

import pytest

from jordan_strata.cayley_dickson import (
    CDNumber,
    basis,
    cd_associator,
    cd_conj,
    cd_mul,
    cd_mul_doubling,
    cd_norm,
    cd_real,
)
from jordan_strata.scalars import RingMismatch, Scalar


def rand_cd(rng, level, gaussian=False, span=3):
    return CDNumber(
        level,
        [Scalar(Fraction(rng.randint(-span, span), rng.choice([1, 2])),
                Fraction(rng.randint(-span, span)) if gaussian else 0,
                gaussian)
         for _ in range(1 << level)],
    )


def test_defining_relation_of_doubling():
    i = CDNumber.unit(1, 1)
    assert i * i == CDNumber.from_scalar(1, Scalar(-1))


def test_unit_law():
    rng = random.Random(1)
    one = CDNumber.one(3)
    for _ in range(20):
        x = rand_cd(rng, 3)
        assert one * x == x
        assert x * one == x


def _big_scalar(rng, gaussian):
    """0 now and then, else 40-digit numerators over unrelated denominators."""
    def part():
        if rng.random() < 0.15:
            return Fraction(0)
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))

    return Scalar(part(), part() if gaussian else 0, gaussian)


def test_table_matches_doubling_recursion():
    rng = random.Random(2)
    for level in (0, 1, 2, 3):
        for _ in range(15):
            a, b = rand_cd(rng, level), rand_cd(rng, level)
            assert cd_mul(a, b) == cd_mul_doubling(a, b)
        for gaussian in (False, True):
            for _ in range(6):
                a, b = (
                    CDNumber(level, [_big_scalar(rng, gaussian) for _ in range(1 << level)])
                    for _ in range(2)
                )
                assert cd_mul(a, b) == cd_mul_doubling(a, b)


def scalar_doubling(a, b):
    """The pair recursion (p, q) (r, s) = (p r - conj(s) q, s p + q conj(r))
    on the Scalar coordinates, one CDNumber per half."""
    if a.level == 0:
        return CDNumber(0, (a.coeffs[0] * b.coeffs[0],))
    half = 1 << (a.level - 1)
    split = lambda x: (
        CDNumber(x.level - 1, x.coeffs[:half]),
        CDNumber(x.level - 1, x.coeffs[half:]),
    )
    p, q = split(a)
    r, s = split(b)
    first = scalar_doubling(p, r) - scalar_doubling(s.conjugate(), q)
    second = scalar_doubling(s, p) + scalar_doubling(q, r.conjugate())
    return CDNumber(a.level, first.coeffs + second.coeffs)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("gaussian", [False, True])
def test_integer_doubling_matches_the_scalar_recursion(level, gaussian):
    rng = random.Random(20 + 2 * level + gaussian)
    zero = CDNumber.zero(level, gaussian)
    for tall in (False, True):
        for _ in range(8):
            a, b = (rand_tall(rng, level, gaussian) if tall else rand_cd(rng, level, gaussian)
                    for _ in range(2))
            for x, y in ((a, b), (b, a), (a, a), (a, zero)):
                assert_same(cd_mul_doubling(x, y), scalar_doubling(x, y))


def test_integer_doubling_reads_no_table(monkeypatch):
    from jordan_strata import cayley_dickson

    def refuse(*args, **kwargs):
        raise AssertionError("the doubling route read the unit table or the engine")

    for name in ("_cd_product", "unit_product", "Bilinear"):
        monkeypatch.setattr(cayley_dickson, name, refuse)
    rng = random.Random(28)
    for level in range(4):
        for gaussian in (False, True):
            a, b = rand_cd(rng, level, gaussian), rand_cd(rng, level, gaussian)
            assert cd_mul_doubling(a, b) == scalar_doubling(a, b)


def test_composition_norm_all_levels():
    rng = random.Random(3)
    for level in (0, 1, 2, 3):
        for _ in range(25):
            a, b = rand_cd(rng, level), rand_cd(rng, level)
            assert cd_norm(a * b) == cd_norm(a) * cd_norm(b)


def test_conjugation_antiautomorphism():
    rng = random.Random(4)
    for level in (2, 3):
        for _ in range(25):
            a, b = rand_cd(rng, level), rand_cd(rng, level)
            assert cd_conj(a * b) == cd_conj(b) * cd_conj(a)
    assert cd_conj(CDNumber.one(3)) == CDNumber.one(3)


def test_alternativity():
    rng = random.Random(5)
    for _ in range(30):
        a, b = rand_cd(rng, 3), rand_cd(rng, 3)
        assert cd_associator(a, a, b).is_zero()
        assert cd_associator(a, b, b).is_zero()


def test_associativity_by_level():
    for level in (0, 1, 2):
        units = basis(level)
        for a in units:
            for b in units:
                for c in units:
                    assert cd_associator(a, b, c).is_zero()
    # level 3 has a nonzero basis associator
    units = basis(3)
    assert any(
        not cd_associator(a, b, c).is_zero()
        for a in units for b in units for c in units
    )


def test_quaternion_triples_associate():
    rng = random.Random(6)
    for _ in range(20):
        a, b, c = (rand_cd(rng, 2) for _ in range(3))
        assert cd_associator(a, b, c).is_zero()


def test_norm_of_basis_units():
    for level in (0, 1, 2, 3):
        for u in basis(level):
            assert cd_norm(u) == Scalar(1)


def test_real_and_norm():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_cd(rng, 3)
        prod = a * cd_conj(a)
        assert prod.is_real()
        assert cd_real(prod) == cd_norm(a)


def test_gaussian_base_norm_is_isotropic():
    x = CDNumber(3, [Scalar(1, 0, True), Scalar(0, 1, True)] + [Scalar.zero(True)] * 6)
    assert not x.is_zero()
    assert cd_norm(x).is_zero()


def test_level_and_ring_mismatch():
    with pytest.raises(RingMismatch):
        cd_mul(CDNumber.one(2), CDNumber.one(3))
    with pytest.raises(RingMismatch):
        cd_mul(CDNumber.one(3), CDNumber.one(3).complexify())


def test_json_round_trip():
    rng = random.Random(8)
    for gaussian in (False, True):
        x = rand_cd(rng, 3, gaussian)
        assert CDNumber.from_json(x.to_json()) == x


def rand_tall(rng, level, gaussian):
    """Coordinates of 40-digit height, a few of them zero."""
    def part():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))

    return CDNumber(
        level, [Scalar(part(), part() if gaussian else 0, gaussian) for _ in range(1 << level)]
    )


def assert_same(x, y):
    """Equal values: equal, equal hashes, one storage, and that storage canonical."""
    assert x == y and hash(x) == hash(y)
    assert (x.level, x.gaussian, x.v, x.den) == (y.level, y.gaussian, y.v, y.den)
    assert type(x.v) is tuple and x.den > 0
    assert gcd(x.den, *x.v) == 1


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("gaussian", [False, True])
def test_storage_is_canonical_whatever_the_route(level, gaussian):
    rng = random.Random(300 + 2 * level + gaussian)
    zero = CDNumber.zero(level, gaussian)
    for tall in (False, True):
        for _ in range(6):
            x, y = (rand_tall(rng, level, gaussian) if tall else rand_cd(rng, level, gaussian)
                    for _ in range(2))
            assert_same(CDNumber(level, x.coeffs), x)
            assert_same(x - x, zero)
            assert x.is_zero() == (x == zero)
            assert_same(x + y - y, x)
            assert_same(y + x, x + y)
            assert_same(-(-x), x)
            prod = cd_mul(x, y)
            assert_same(prod, cd_mul_doubling(x, y))
            assert_same(prod, CDNumber(level, prod.coeffs))
            half = Scalar(Fraction(1, 2), 0, gaussian)
            assert_same(x.scale(half).scale(Scalar(2, 0, gaussian)), x)
            assert_same(x.scale(Scalar(0, 0, gaussian)), zero)
            conj = [x.coeffs[0]] + [-c for c in x.coeffs[1:]]
            assert_same(x.conjugate(), CDNumber(level, conj))
            w = 1 << level
            flip = [c if k % w == 0 else -c for k, c in enumerate(x.v)]
            assert_same(x.conjugate(), CDNumber._of(level, gaussian, flip, x.den))
            assert_same(-x, CDNumber._of(level, gaussian, [-c for c in x.v], x.den))
            assert x.is_real() == all(c.is_zero() for c in x.coeffs[1:])
            if not gaussian:
                assert_same(x.complexify(), CDNumber(level, [c.to_gaussian() for c in x.coeffs]))
    # equal integer vectors over different denominators are different values
    one = CDNumber.one(level, gaussian)
    a, b = (one.scale(Scalar(Fraction(1, d), 0, gaussian)) for d in (2, 3))
    assert a.v == b.v and a != b
    # a product whose integers share a factor with its denominator
    assert_same(cd_mul(a, one.scale(Scalar(2, 0, gaussian))), one)


def test_repr_and_json_are_pinned():
    half = Fraction(1, 2)
    x = CDNumber(1, [Scalar(half), Scalar(-3)])
    assert repr(x) == "CDNumber(1, ['1/2', '-3'])"
    assert x.to_json() == {"level": 1, "coeffs": [[1, 2], [-3, 1]]}
    g = CDNumber(0, [Scalar(half, Fraction(-2, 3), True)])
    assert repr(g) == "CDNumber(0, ['(1/2-2/3i)'])"
    assert g.to_json() == {"level": 0, "coeffs": [[[1, 2], [-2, 3]]]}
    z = CDNumber.zero(2, gaussian=True)
    assert repr(z) == "CDNumber(2, ['(0+0i)', '(0+0i)', '(0+0i)', '(0+0i)'])"
    k = cd_mul(CDNumber.unit(2, 1), CDNumber.unit(2, 2).scale(Scalar(Fraction(-4, 6))))
    assert repr(k) == "CDNumber(2, ['0', '0', '0', '-2/3'])"
    assert k.to_json() == {"level": 2, "coeffs": [[0, 1], [0, 1], [0, 1], [-2, 3]]}
    assert CDNumber.from_json(k.to_json()) == k


def test_immutable():
    rng = random.Random(9)
    x, y = rand_cd(rng, 2, True), rand_cd(rng, 2, True)
    before = (x.v, x.den, y.v, y.den)
    for name in ("level", "gaussian", "v", "den", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    x + y, x - y, -x, cd_mul(x, y), x.conjugate(), x.scale(Scalar(3, 1, True))
    assert (x.v, x.den, y.v, y.den) == before
    assert type(x.v) is tuple and type(x.coeffs) is tuple
