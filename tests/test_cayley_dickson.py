import random
from fractions import Fraction

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
