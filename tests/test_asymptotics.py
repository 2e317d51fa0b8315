"""Closed-form asymptotic evaluators and their mutual consistency."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linhyp import asymptotics
from linhyp.asymptotics import (
    REGIME_MID,
    REGIME_R3,
    REGIME_SMALL,
    log_linearity_general,
    log_linearity_r3,
    mid_regime_p3_factor,
)
from linhyp.errors import ValidationError
from linhyp.expansion import _solve_falling_basis, per_n_power_sums, structural_series_grouped
from linhyp.oracle import exact_linearity_polynomial
from linhyp.polynomial import falling_factorial_poly


class TestRefinedR3:
    def test_p_zero(self):
        est = log_linearity_r3(10, Fraction(0))
        assert est.log_prob == 0.0 and est.valid

    def test_exact_value(self):
        n, p = 10, Fraction(1, 1000)
        est = log_linearity_r3(n, p)
        expect = float(
            Fraction(-1, 4) * n**4 * p**2
            + Fraction(2, 3) * n**5 * p**3
            - Fraction(55, 24) * n**6 * p**4
            + Fraction(3, 2) * n**3 * p**2
        )
        assert est.log_prob == expect
        assert est.regime == REGIME_R3

    def test_coefficients_match_symbolic_series(self):
        # the four monomial coefficients are the leading-power collapse of
        # the exact symbolic series
        grouped = structural_series_grouped(4)
        agg = {}
        for (a, b, _s), c in grouped.items():
            agg[(a, b)] = agg.get((a, b), Fraction(0)) + c
        def monomial(npow, ppow):
            total = Fraction(0)
            for (a, b), c in agg.items():
                if b == ppow:
                    total += c * falling_factorial_poly(a).coeff(npow)
            return total

        assert monomial(4, 2) == Fraction(-1, 4)
        assert monomial(3, 2) == Fraction(3, 2)
        assert monomial(5, 3) == Fraction(2, 3)
        assert monomial(6, 4) == Fraction(-55, 24)

    def test_validity_flag(self):
        # p = n^-2 is inside the regime, p = n^-1 is far outside
        assert log_linearity_r3(100, Fraction(1, 10000)).valid
        est = log_linearity_r3(100, Fraction(1, 100))
        assert not est.valid
        assert est.diagnostics["exponent_margin"] < 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            log_linearity_r3(2, Fraction(1, 10))
        with pytest.raises(ValidationError):
            log_linearity_r3(10, Fraction(2))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.integers(3, 60),
    st.sampled_from([3, 4, 5]),
    st.floats(1, 4, exclude_min=True, exclude_max=True),
)
def test_a_valid_closed_form_is_never_positive(n, r, alpha):
    # no log-probability is positive, yet at 3 <= n <= 7 the r = 3 form is
    # at small p: at n = 6 its p^2 terms cancel and +2/3 n^5 p^3 leads
    assume(n >= r)
    p = Fraction(n**-alpha)
    estimates = [log_linearity_general(n, r, p)]
    if r == 3:
        estimates.append(log_linearity_r3(n, p))
    for estimate in estimates:
        assert not estimate.valid or estimate.log_prob <= 0, (estimate.regime, n, p)


class TestGeneralR:
    def test_p_zero(self):
        assert log_linearity_general(10, 3, Fraction(0)).log_prob == 0.0

    def test_regime_selection(self):
        # tiny p: small regime; moderate p: mid regime
        assert log_linearity_general(100, 3, Fraction(1, 10**6)).regime == REGIME_SMALL
        assert log_linearity_general(100, 3, Fraction(1, 2000)).regime == REGIME_MID

    def test_r3_reduction_leading_terms(self):
        # the binomial form reduces to -(1/4) n^4 p^2 + (2/3) n^5 p^3 at
        # leading order; check the relative gap shrinks with n
        gaps = []
        for n in (30, 100, 300):
            p = Fraction(1, n**2)
            est = log_linearity_general(n, 3, p)
            lead = float(
                -Fraction(1, 4) * n**4 * p**2 + Fraction(2, 3) * n**5 * p**3
            )
            gaps.append(abs(est.log_prob - lead) / abs(lead))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1

    def test_agreement_with_refined_form(self):
        n, r = 100, 3
        p = Fraction(1, 10**4)
        a = log_linearity_general(n, r, p)
        b = log_linearity_r3(n, p)
        n6p4 = float(Fraction(55, 24) * n**6 * p**4)
        n3p2 = float(Fraction(3, 2) * n**3 * p**2)
        assert abs(a.log_prob - b.log_prob) <= n6p4 + n3p2

    def test_mid_regime_p3_factor_is_the_cluster_coefficient_at_r4(self):
        # the p^3 coefficient of the per-n cluster sums at r = 4, fitted in
        # the falling-factorial basis at degree r + 2(r - 2) = 8 from
        # n = 0..8 and checked at n = 9, 10; its [n]_8 coefficient is the
        # n^8 = n^(3r-4) coefficient the form's factor must reproduce
        r = 4
        sums = [
            sum((c for (b, _k), c in per_n_power_sums(n, 3, r).items() if b == 3), Fraction(0))
            for n in range(11)
        ]
        lead = _solve_falling_basis(sums, 8)[8]
        assert lead == Fraction(17, 96)
        assert mid_regime_p3_factor(r) / math.factorial(r - 2) ** 3 == lead
        assert mid_regime_p3_factor(3) == Fraction(2, 3)
        # up to p^3 the cluster sums are log P's Taylor coefficients, which
        # the exact oracle gives independently: log(1 + x) to x^3
        for n in range(5, 9):
            a = exact_linearity_polynomial(n, r)
            a1, a2, a3 = a.coeff(1), a.coeff(2), a.coeff(3)
            assert a3 - a1 * a2 + a1**3 / 3 == sums[n]
        assert sums[5:9] == [20, 910, 10780, 69020]

    def test_mid_regime_value_uses_the_p3_factor(self):
        n, r, p = 40, 4, Fraction(1, 20000)
        est = log_linearity_general(n, r, p)
        assert est.regime == REGIME_MID
        big_n, r2 = math.comb(n, r), r * (r - 1)
        expect = (
            -Fraction(r2**2, 4 * n**2) * big_n**2 * p**2
            + Fraction(17, 12) * Fraction(r2**3, n**4) * big_n**3 * p**3
        )
        assert est.log_prob == float(expect)

    def test_diagnostics_present(self):
        est = log_linearity_general(50, 4, Fraction(1, 10**5))
        assert "unmodelled_error_r6_scale" in est.diagnostics

    def test_validation(self):
        with pytest.raises(ValidationError):
            log_linearity_general(3, 2, Fraction(1, 10))
        with pytest.raises(ValidationError):
            log_linearity_general(2, 3, Fraction(1, 10))

    def test_diagnostic_past_the_float_range_is_a_validation_error(self):
        # the estimate (about -10^-200) is a float, but the regime
        # threshold n / r^2 is not; it is reported, never clamped
        with pytest.raises(ValidationError, match="small_regime_threshold is outside the float range"):
            log_linearity_general(10**400, 3, Fraction(1, 10**1500))

    @pytest.mark.parametrize(
        "n, r, p",
        [
            (3000, 1500, Fraction(1, 2)),
            (5000, 2500, Fraction(1, 10**100)),
            (10**150, 3, Fraction(1, 2)),
            # p C(n, r) is past the float range, though the lower bound (n/r)^r is not
            (100000, 100, Fraction(1, 2)),
        ],
    )
    def test_early_float_range_error_is_the_exact_paths(self, monkeypatch, n, r, p):
        with pytest.raises(ValidationError) as early:
            log_linearity_general(n, r, p)
        monkeypatch.setattr(asymptotics, "binomial_up_to", lambda n, r, _limit: math.comb(n, r))
        with pytest.raises(ValidationError) as exact:
            log_linearity_general(n, r, p)
        assert str(early.value) == str(exact.value)


class TestMonotoneTruncation:
    def test_gap_shrinks_with_truncation_order(self):
        # exact instance check at n=6, small p: higher truncations land
        # closer to the true log-probability
        from linhyp.dependency import dependency_graph_for
        from linhyp.expansion import truncated_expansion
        from linhyp.oracle import exact_linearity_polynomial
        from linhyp.polynomial import log_fraction

        p = Fraction(1, 1000)
        exact = log_fraction(exact_linearity_polynomial(6, 3)(p))
        d = dependency_graph_for(6, 3)
        gaps = [
            abs(exact - float(truncated_expansion(d, k)(p))) for k in (2, 3, 4)
        ]
        assert gaps[0] >= gaps[1] >= gaps[2]
