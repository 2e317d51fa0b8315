"""Exact polynomial arithmetic, series terms, and basis helpers."""

import math
import random
from fractions import Fraction

import pytest

from linhyp import combinat
from linhyp.polynomial import (
    Polynomial,
    SeriesTerm,
    falling_factorial,
    falling_factorial_poly,
    log_fraction,
)
from reference import evaluate_series, series_monomial_coeff, set_partitions


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        p = Polynomial({2: 1}) - Polynomial({2: 1})
        assert p.coeffs == {} and p == 0

    def test_ring_ops_match_reference(self):
        rnd = random.Random(3)
        for _ in range(50):
            a = Polynomial({rnd.randint(0, 5): Fraction(rnd.randint(-4, 4)) for _ in range(3)})
            b = Polynomial({rnd.randint(0, 5): Fraction(rnd.randint(-4, 4)) for _ in range(3)})
            x = Fraction(rnd.randint(1, 7), rnd.randint(1, 7))
            assert (a + b)(x) == a(x) + b(x)
            assert (a - b)(x) == a(x) - b(x)
            assert (a * b)(x) == a(x) * b(x)

    def test_pow(self):
        p = Polynomial({0: 1, 1: -1})
        assert p**3 == p * p * p
        assert p**0 == Polynomial.one()

    def test_json_roundtrip(self):
        p = Polynomial({0: Fraction(1, 3), 4: -2})
        assert Polynomial.from_json(p.to_json()) == p

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({-1: 1})


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(6, 4) == 360
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(3, 5) == 0

    def test_expansion_matches_values(self):
        for t in range(6):
            poly = falling_factorial_poly(t)
            for n in range(8):
                assert poly(n) == falling_factorial(n, t)


class TestSeriesTerm:
    def test_json_roundtrip(self):
        t = SeriesTerm(coeff=Fraction(-55, 24), n_falling=6, p_power=4)
        assert SeriesTerm.from_json(t.to_json()) == t

    def test_evaluate(self):
        terms = [SeriesTerm(coeff=Fraction(-1, 4), n_falling=4, p_power=2)]
        assert evaluate_series(terms, 6) == Polynomial({2: -90})

    def test_monomial_collapse(self):
        terms = [SeriesTerm(coeff=Fraction(-1, 4), n_falling=4, p_power=2)]
        assert series_monomial_coeff(terms, 4, 2) == Fraction(-1, 4)
        assert series_monomial_coeff(terms, 3, 2) == Fraction(3, 2)


class TestLogFraction:
    def test_near_one_accuracy(self):
        x = Fraction(10**12 - 7, 10**12)
        assert abs(log_fraction(x) - math.log1p(-7e-12)) < 1e-24

    def test_far_from_one(self):
        assert abs(log_fraction(Fraction(1, 10**6)) + 6 * math.log(10)) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_fraction(Fraction(0))


class TestSetPartitions:
    @pytest.mark.parametrize(
        "n,bell",
        [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140)],
    )
    def test_counts_are_bell_numbers(self, n, bell):
        assert len(combinat.set_partitions(n)) == bell
        assert sum(1 for _ in set_partitions(tuple(range(n)))) == bell

    def test_partitions_are_partitions(self):
        items = ("a", "b", "c", "d")
        seen = set()
        for part in set_partitions(items):
            flat = sorted(x for block in part for x in block)
            assert flat == sorted(items)
            key = frozenset(frozenset(b) for b in part)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n", range(9))
    def test_block_masks_follow_set_partitions(self, n):
        # the same partitions in the same restricted-growth order, block by block
        expect = [
            tuple(sum(1 << i for i in block) for block in part)
            for part in set_partitions(tuple(range(n)))
        ]
        assert list(combinat.set_partitions(n)) == expect
