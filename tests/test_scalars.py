import random
from fractions import Fraction
from math import isqrt

import pytest

from jordan_strata import scalars
from jordan_strata.scalars import (
    RingMismatch,
    Scalar,
    SearchExhausted,
    four_squares,
    json_entry,
    json_rational,
    rational_to_json,
    two_squares,
)


def test_field_ops_rational():
    a = Scalar(Fraction(3, 4))
    b = Scalar(Fraction(-2, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == Scalar(0)
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_field_ops_gaussian():
    rng = random.Random(0)
    for _ in range(50):
        a = Scalar(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])),
                   Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])), True)
        b = Scalar(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), True)
        if not b.is_zero():
            assert (a / b) * b == a
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_hash_agrees_with_equality():
    assert Scalar(1) == 1 and Scalar(1, 0, True) == 1
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert len({Scalar(1, 0, True), 1}) == 1
    assert hash(Scalar(Fraction(-2, 3))) == hash(Fraction(-2, 3))
    assert len({Scalar(1, 2, True), Scalar(1, 2, True), Scalar(1, -2, True)}) == 2


def test_reflected_operators_and_truth():
    assert 3 - Scalar(1, 2, True) == Scalar(2, -2, True)
    assert 1 / Scalar(0, 1, True) == Scalar(0, -1, True)
    for gaussian in (False, True):
        h = Fraction(1, 2) - Scalar(1, 0, gaussian)
        assert h == Scalar(Fraction(-1, 2), 0, gaussian) and h.gaussian == gaussian
        q = 1 / Scalar(4, 0, gaussian)
        assert q == Scalar(Fraction(1, 4), 0, gaussian) and q.gaussian == gaussian
        with pytest.raises(ZeroDivisionError):
            1 / Scalar(0, 0, gaussian)
        assert not Scalar(0, 0, gaussian)
        assert Scalar(Fraction(-1, 3), 0, gaussian)
    assert Scalar(0, 1, True)


def test_ring_mixing_raises():
    with pytest.raises(RingMismatch):
        Scalar(1) + Scalar(1, 0, True)


def test_gaussian_sqrt():
    i = Scalar.i()
    two_i = i + i
    r = two_i.sqrt()
    assert r is not None and r * r == two_i  # (1+i)^2 = 2i
    assert Scalar(2, 0, True).sqrt() is None  # 2 is not a Gaussian square
    assert Scalar(-1, 0, True).sqrt() == Scalar(0, 1, True) or (
        Scalar(-1, 0, True).sqrt() * Scalar(-1, 0, True).sqrt() == Scalar(-1, 0, True)
    )
    assert Scalar(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    assert Scalar(2).sqrt() is None


def test_square_sums():
    assert two_squares(Fraction(5)) is not None
    assert two_squares(Fraction(3)) is None  # 3 is not a sum of two squares
    for q in (Fraction(7), Fraction(3, 2), Fraction(15, 4)):
        parts = four_squares(q)
        assert sum(x * x for x in parts) == q


def test_square_sums_keep_the_first_decomposition_of_the_full_search():
    def two_full(m):
        for a in range(isqrt(m) + 1):
            b = isqrt(m - a * a)
            if a * a + b * b == m:
                return a, b

    def four_full(m):
        for a in range(isqrt(m), -1, -1):
            for b in range(isqrt(m - a * a), -1, -1):
                for c in range(isqrt(m - a * a - b * b), -1, -1):
                    e = isqrt(m - a * a - b * b - c * c)
                    if a * a + b * b + c * c + e * e == m:
                        return a, b, c, e

    for m in range(1, 1500):
        two = two_squares(Fraction(m))
        assert (None if two is None else tuple(two)) == two_full(m)
        assert tuple(four_squares(Fraction(m))) == four_full(m)


def test_square_sum_searches_are_bounded(monkeypatch):
    m = Fraction(10**39 + 1)  # odd part 1 mod 4, so no shortcut decides it
    monkeypatch.setattr(scalars, "MAX_TWO_SQUARE_CANDIDATES", 1000)
    with pytest.raises(SearchExhausted, match="1000 candidates"):
        two_squares(m)
    monkeypatch.setattr(scalars, "MAX_FOUR_SQUARE_CANDIDATES", 10)
    with pytest.raises(SearchExhausted, match="10 candidates"):
        four_squares(m)


def test_json_round_trip():
    for s in (Scalar(Fraction(-7, 3)), Scalar(Fraction(1, 2), Fraction(-5, 4), True)):
        assert Scalar.from_json(s.to_json()) == s


def test_one_codec_reads_entries_and_rationals():
    assert json_entry(-3) == (Fraction(-3), None)
    assert json_entry([[1, 2], [3, 4]]) == (Fraction(1, 2), Fraction(3, 4))
    assert json_rational([6, -4]) == Fraction(-3, 2)
    assert json_rational(5, entry=True) == Fraction(5)
    assert rational_to_json(Fraction(6, -4)) == [-3, 2] == Scalar(Fraction(-3, 2)).to_json()
    for bad, entry in ((5, False), (True, True), ([[1, 1], [0, 1]], True), ([1, 2, 3], True)):
        with pytest.raises(ValueError):
            json_rational(bad, entry=entry)
