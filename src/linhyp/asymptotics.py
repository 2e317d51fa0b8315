"""Closed-form asymptotics for the log-probability of linearity.

Two evaluators: the refined four-term closed form for 3-uniform
hypergraphs, and the general-r first/second-order closed forms written in
terms of C(n,r).  Both are evaluated in exact rational arithmetic with a
single rounding at the end, so near-cancelling terms cost no precision.
Out-of-regime inputs are evaluated anyway and flagged, never clamped; a
reported value that rounds outside the float range is a ValidationError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .hypergraph import EXACT_COUNT_DIGITS, check_host, log10_edges_at_least
from .polynomial import falling_factorial, log_fraction

REGIME_R3 = "refined_r3"
REGIME_SMALL = "general_small"
REGIME_MID = "general_mid"

LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class AsymptoticEstimate:
    log_prob: float
    regime: str
    valid: bool
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "log_prob": self.log_prob,
            "regime": self.regime,
            "valid": self.valid,
            "diagnostics": self.diagnostics,
        }


def _check_p(p: Fraction) -> Fraction:
    p = Fraction(p)
    if not 0 <= p < 1:
        raise ValidationError(f"p must be in [0,1), got {p}")
    return p


def _float(name: str, x) -> float:
    """float(x), or a ValidationError naming `name` when x is outside the
    float range, since no finite float reports it."""
    try:
        return float(x)
    except OverflowError:
        raise _outside_float_range(name) from None


def _outside_float_range(name: str) -> ValidationError:
    return ValidationError(
        f"{name} is outside the float range (magnitude above {sys.float_info.max:.3g})"
    )


def log_linearity_r3(n: int, p: Fraction) -> AsymptoticEstimate:
    """Four-term closed form for r=3:
    -(1/4) n^4 p^2 + (2/3) n^5 p^3 - (55/24) n^6 p^4 + (3/2) n^3 p^2.

    Stated for p decaying faster than n^(-7/5); the validity flag reports
    that hypothesis and its margin (in the exponent of n), nothing is
    clamped.  The unmodelled remainder is o(1) with unspecified constants,
    so it is reported as a diagnostic only.
    """
    if n < 3:
        raise ValidationError(f"need n >= 3, got {n}")
    p = _check_p(p)
    if p == 0:
        return AsymptoticEstimate(
            log_prob=0.0,
            regime=REGIME_R3,
            valid=True,
            diagnostics={"p_exponent": None, "exponent_margin": None},
        )
    nf = Fraction(n)
    terms = {
        "term_n4p2": -Fraction(1, 4) * nf**4 * p**2,
        "term_n5p3": Fraction(2, 3) * nf**5 * p**3,
        "term_n6p4": -Fraction(55, 24) * nf**6 * p**4,
        "term_n3p2": Fraction(3, 2) * nf**3 * p**2,
    }
    value = sum(terms.values())
    # p = n^(-alpha); the hypothesis asks alpha > 7/5
    alpha = -log_fraction(p) / math.log(n)
    margin = alpha - 7.0 / 5.0
    return AsymptoticEstimate(
        log_prob=_float(f"{REGIME_R3} log_prob", value),
        regime=REGIME_R3,
        valid=margin > 0,
        diagnostics={
            "p_exponent": alpha,
            "exponent_margin": margin,
            "hypothesis": "p below n^(-7/5)",
            **{key: _float(f"{REGIME_R3} {key}", term) for key, term in terms.items()},
        },
    )


def mid_regime_p3_factor(r: int) -> Fraction:
    """(3r^2 - 3r - 2) / 24, the factor of the mid-regime term
    [r]_2^3 N^3 p^3 / n^4 of `log_linearity_general`.

    It is the third cluster coefficient of log P at fixed r: the clusters
    of three edges spanning the most vertices, 3r - 4, give
    (3r^2 - 3r - 2) / (24 ((r-2)!)^3) n^(3r-4) p^3.  At r = 4 that is
    17/96, which the per-n cluster sums (`expansion.per_n_power_sums`) and
    the exact oracle's log P both give; the test suite pins it.
    """
    return Fraction(3 * r * r - 3 * r - 2, 24)


def log_linearity_general(n: int, r: int, p: Fraction) -> AsymptoticEstimate:
    """General-r closed forms in terms of N = C(n,r), at fixed r.

    Small regime (p N of order n / r^2 or below):
        -( [r]_2^2 / (4 n^2) ) N^2 p^2
    Mid regime (up to p N of order n^(3/2) / r^3) adds:
        +( (3r^2 - 3r - 2) [r]_2^3 / (24 n^4) ) N^3 p^3
    (`mid_regime_p3_factor`).  The paper compares these forms with McKay
    and Tian (Random Structures Algorithms 57, 2020).  The known
    error-term magnitudes are reported as diagnostics, never added to the
    estimate.
    """
    check_host(n, r)
    p = _check_p(p)
    if p == 0:
        return AsymptoticEstimate(
            log_prob=0.0, regime=REGIME_SMALL, valid=True, diagnostics={}
        )
    # C(n,r) >= (n/k)^k, k = min(r, n-r).  Below n = 2^600 the thresholds are
    # floats, so when this bound (less a margin for rounding) puts p C(n,r)
    # past the float range, its error is due and is raised before C(n,r)
    k = min(r, n - r)
    if k and n.bit_length() < 600:
        log_binom, log_p = k * math.log(n / k), log_fraction(p)
        if log_binom + log_p > LOG_FLOAT_MAX + 1 + 1e-12 * (log_binom - log_p):
            raise _outside_float_range(f"{REGIME_MID} p_times_binom")
    elif log10_edges_at_least(n, r) >= EXACT_COUNT_DIGITS:
        # C(n,r) is too large to count (`hypergraph.edge_count`), so it is
        # not built: for every p above 10^-49000 and n below 10^49000, p C(n,r)
        # is then past the float range and above n, so in the mid regime
        raise _outside_float_range(f"{REGIME_MID} p_times_binom")
    big_n = Fraction(math.comb(n, r))
    r2 = falling_factorial(r, 2)
    pn = p * big_n
    small_threshold = Fraction(n) / r**2
    mid_threshold = Fraction(n) * math.isqrt(n) / r**3  # n^{3/2} understated slightly
    term2 = -(r2**2) / (4 * Fraction(n) ** 2) * big_n**2 * p**2
    err2 = Fraction(r) ** 6 / Fraction(n) ** 3 * big_n**2 * p**2
    if pn <= small_threshold:
        regime = REGIME_SMALL
        valid = True
        value = term2
        exact = {"small_regime_threshold": small_threshold}
    else:
        regime = REGIME_MID
        term3 = mid_regime_p3_factor(r) * r2**3 / Fraction(n) ** 4 * big_n**3 * p**3
        value = term2 + term3
        valid = pn < mid_threshold
        exact = {"mid_regime_threshold": mid_threshold}
    exact.update(p_times_binom=pn, unmodelled_error_r6_scale=err2)
    diagnostics = {key: _float(f"{regime} {key}", x) for key, x in exact.items()}
    if regime == REGIME_MID:
        lead = math.log(max(_float(f"{regime} n", n) / r**2, math.e))
        diagnostics["unmodelled_error_log_over_sqrt"] = lead**3 / math.sqrt(
            diagnostics["p_times_binom"]
        )
    return AsymptoticEstimate(
        log_prob=_float(f"{regime} log_prob", value),
        regime=regime,
        valid=valid,
        diagnostics=diagnostics,
    )
