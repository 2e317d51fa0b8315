"""Acceptance suite: one test per acceptance criterion, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.  Every tolerance is pinned here; the exact
checks use rational arithmetic end to end.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from linhyp.asymptotics import log_linearity_r3
from linhyp.cli import main
from linhyp.dependency import dependency_graph_for
from linhyp.expansion import (
    cumulant_sum,
    hard_core_polynomial,
    inclusion_exclusion_polynomial,
    interpolated_series_grouped,
    moment_sum,
    structural_series_grouped,
    truncated_expansion,
)
from linhyp.graphcalc import (
    SimpleGraph,
    all_graphs,
    chromatic_polynomial,
    chromatic_via_partitions,
    chromatic_via_whitney,
    complete_graph_ursell,
    connected_graphs,
    independent_partition_identity,
    ursell_direct,
)
from linhyp.oracle import exact_linearity_polynomial, monte_carlo
from linhyp.polynomial import falling_factorial_poly, log_fraction
from reference import family_densities

SEED = 20260808


def report(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def aggregate(grouped):
    out = {}
    for (a, b, _s), c in grouped.items():
        out[(a, b)] = out.get((a, b), Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def subtotal(grouped, n_falling, p_power, sizes):
    return sum(
        (grouped.get((n_falling, p_power, s), Fraction(0)) for s in sizes),
        Fraction(0),
    )


class TestCriterion1CoefficientReproduction:
    def test_series_family_ledger(self, tmp_path):
        """Family subtotals of the p<=4 series, grouped by cluster size."""
        started = time.monotonic()
        out = tmp_path / "series.json"
        code = main(["series", "--r", "3", "--max-p-power", "4", "--output", str(out)])
        assert code == 0
        cli_terms = {
            (t["n_falling"], t["p_power"]): Fraction(t["coeff_num"], t["coeff_den"])
            for t in json.loads(out.read_text())["terms"]
        }
        grouped = structural_series_grouped(4)
        ok = cli_terms == aggregate(grouped)
        ok &= subtotal(grouped, 4, 2, [1]) == Fraction(-1, 4)
        ok &= subtotal(grouped, 5, 3, [2]) == Fraction(3, 4)
        ok &= subtotal(grouped, 4, 3, [2]) == Fraction(1, 2)
        ok &= subtotal(grouped, 5, 3, [3]) == Fraction(-1, 12)
        ok &= subtotal(grouped, 6, 4, [3]) == Fraction(-3)
        ok &= subtotal(grouped, 6, 4, [4]) == Fraction(13, 16)
        ok &= subtotal(grouped, 6, 4, [5, 6]) == Fraction(-5, 48)
        elapsed = time.monotonic() - started
        assert report(
            "criterion 1a: series family subtotals", ok, f"{elapsed:.1f}s, cap 300s"
        )
        assert elapsed < 300

    def test_leading_power_collapse(self):
        """Expanding [n]_a into powers of n reproduces the four closed-form
        monomial coefficients exactly."""
        agg = aggregate(structural_series_grouped(4))

        def monomial(npow, ppow):
            total = Fraction(0)
            for (a, b), c in agg.items():
                if b == ppow:
                    total += c * falling_factorial_poly(a).coeff(npow)
            return total

        ok = (
            monomial(4, 2) == Fraction(-1, 4)
            and monomial(3, 2) == Fraction(3, 2)
            and monomial(5, 3) == Fraction(2, 3)
            and monomial(6, 4) == Fraction(-55, 24)
        )
        assert report("criterion 1b: leading-power collapse", ok)

    def test_split_pair_p4_subtotal_frozen_target(self):
        """Frozen target -(1/4)[n]_5 p^4 for the split-pair (two adjacent
        singleton polymers) subtotal.

        The cross-validated engines give -(3/4)[n]_5 - (1/2)[n]_4 for this
        subtotal, and the cumulant-cluster identity (criterion 4) forces
        that value: at n=5 it requires the p^4 coefficient of the order-2
        term to be -150, not -30.  The frozen target is therefore expected
        to fail; it is kept as stated rather than adjusted to the engines.
        """
        grouped = structural_series_grouped(4)
        got_n5 = subtotal(grouped, 5, 4, [2])
        ok = got_n5 == Fraction(-1, 4)
        report(
            "criterion 1c: split-pair p^4 subtotal at frozen target -(1/4)[n]_5",
            ok,
            f"engines give {got_n5} for [n]_5 (and "
            f"{subtotal(grouped, 4, 4, [2])} for [n]_4)",
        )
        assert ok, (
            "split-pair p^4 subtotal: frozen target -(1/4)[n]_5, engines give "
            f"{got_n5}*[n]_5 + {subtotal(grouped, 4, 4, [2])}*[n]_4; the "
            "cumulant-cluster identity forces the engine value, so the frozen "
            "target is inconsistent with criterion 4"
        )


class TestCriterion2StrategyCrossCheck:
    @pytest.mark.parametrize("b_max", [2, 3, 4])
    def test_structural_equals_interpolated(self, b_max):
        started = time.monotonic()
        a = structural_series_grouped(b_max)
        b = interpolated_series_grouped(b_max)
        ok = a == b
        assert report(
            f"criterion 2: strategy cross-check b_max={b_max}",
            ok,
            f"{time.monotonic() - started:.1f}s",
        )


class TestCriterion3OracleEquivalence:
    @pytest.mark.parametrize("n", [4, 5])
    def test_polynomial_equality(self, n):
        oracle = exact_linearity_polynomial(n, 3)
        ok = (
            inclusion_exclusion_polynomial(n, 3) == oracle
            and hard_core_polynomial(n, 3) == oracle
        )
        assert report(f"criterion 3: oracle equivalence n={n}", ok)

    def test_n6_at_random_rationals(self):
        started = time.monotonic()
        import random

        rnd = random.Random(SEED)
        oracle = exact_linearity_polynomial(6, 3)
        alt = inclusion_exclusion_polynomial(6, 3)
        points = [Fraction(rnd.randint(1, 9999), 10000) for _ in range(10)]
        ok = all(oracle(q) == alt(q) for q in points)
        elapsed = time.monotonic() - started
        assert report(
            "criterion 3: oracle equivalence n=6 at 10 rational points",
            ok,
            f"{elapsed:.1f}s, cap 120s",
        )
        assert elapsed < 120


class TestCriterion4CumulantClusterIdentity:
    @pytest.mark.parametrize("n", [5, 6])
    def test_identity(self, n):
        d = dependency_graph_for(n, 3)
        ok = all(
            truncated_expansion(d, k + 1) == cumulant_sum(d, k) for k in (1, 2, 3)
        )
        assert report(f"criterion 4: cumulant-cluster identity n={n}, k<=3", ok)


class TestCriterion5IdentitySuite:
    def test_ursell_complete_graphs(self):
        ok = all(
            ursell_direct(SimpleGraph.complete(m)) == complete_graph_ursell(m)
            for m in range(1, 8)
        )
        assert report("criterion 5: complete-graph Ursell values m<=7", ok)

    def test_partition_identity_connected_up_to_5(self):
        ok = all(
            independent_partition_identity(g)
            for v in range(1, 6)
            for g in connected_graphs(v)
        )
        assert report("criterion 5: independent-partition identity v<=5", ok)

    def test_chromatic_triple_agreement_up_to_6(self):
        started = time.monotonic()
        ok = True
        for v in range(1, 7):
            for g in all_graphs(v):
                a = chromatic_polynomial(g)
                if a != chromatic_via_whitney(g) or a != chromatic_via_partitions(g):
                    ok = False
                    break
            if not ok:
                break
        assert report(
            "criterion 5: chromatic triple agreement v<=6",
            ok,
            f"{time.monotonic() - started:.0f}s",
        )


class TestCriterion6TruncationConvergence:
    def test_gaps_shrink_and_tail_bound(self):
        p = Fraction(1, 1000)
        d = dependency_graph_for(6, 3)
        exact = log_fraction(exact_linearity_polynomial(6, 3)(p))
        gaps = {
            k: abs(exact - float(truncated_expansion(d, k)(p))) for k in (2, 3, 4)
        }
        tail_gauge = float(moment_sum(d, 5)(p))
        ok_monotone = gaps[2] >= gaps[3] >= gaps[4]
        ok_tail = gaps[4] < 10 * tail_gauge
        assert report(
            "criterion 6: truncation convergence n=6, p=1e-3",
            ok_monotone and ok_tail,
            f"gaps {gaps[2]:.3e} >= {gaps[3]:.3e} >= {gaps[4]:.3e}, "
            f"10*tail {10 * tail_gauge:.3e}",
        )


class TestCriterion7MonteCarloVsClosedForm:
    def test_statistical_agreement(self):
        """n=50, p=50^-1.6: the log of the seeded estimate must sit within
        3 delta-method standard errors of the closed form at 1e5 trials,
        with one escalation to 1e6 trials before declaring failure."""
        started = time.monotonic()
        p = Fraction(str(50**-1.6))
        closed = log_linearity_r3(50, p).log_prob

        def gap_and_tol(trials):
            rep = monte_carlo(50, 3, p, trials=trials, seed=SEED)
            log_mc = math.log(rep.estimate)
            se_log = rep.std_error / rep.estimate
            return abs(log_mc - closed), 3 * se_log

        gap, tol = gap_and_tol(10**5)
        stage = "1e5"
        if gap > tol:
            gap, tol = gap_and_tol(10**6)
            stage = "1e6 rerun"
        ok = gap <= tol
        elapsed = time.monotonic() - started
        assert report(
            "criterion 7: Monte Carlo vs closed form",
            ok,
            f"stage {stage}: gap {gap:.4f} vs tol {tol:.4f}, {elapsed:.0f}s, cap 120s",
        )
        assert elapsed < 120 or stage != "1e5"


class TestCriterion8Densities:
    def test_closed_forms(self):
        ok = all(
            family_densities(r) == (Fraction(1, r - 2), Fraction(1, r - 1))
            for r in (3, 4, 5)
        )
        assert report("criterion 8: density formulas r in {3,4,5}", ok)


class TestCriterion9Determinism:
    @staticmethod
    def _normalised(path):
        payload = json.loads(path.read_text())
        payload["config"].pop("workers")
        payload["config"].pop("output")
        payload.pop("repro_sha256")
        payload.pop("duration_seconds")
        return json.dumps(payload, sort_keys=True)

    def test_montecarlo_and_expand(self, tmp_path):
        mc = []
        for i, workers in enumerate((1, 1, 4, 8)):
            out = tmp_path / f"mc{i}.json"
            assert (
                main(
                    [
                        "montecarlo", "5", "3", "--p", "0.1", "--trials", "20000",
                        "--seed", str(SEED), "--workers", str(workers),
                        "--output", str(out),
                    ]
                )
                == 0
            )
            mc.append(self._normalised(out))
        ex = []
        for i, workers in enumerate((1, 1, 4, 8)):
            out = tmp_path / f"ex{i}.json"
            assert (
                main(
                    ["expand", "6", "3", "--k", "4", "--workers", str(workers),
                     "--output", str(out)]
                )
                == 0
            )
            ex.append(self._normalised(out))
        ok = len(set(mc)) == 1 and len(set(ex)) == 1
        assert report(
            "criterion 9: determinism across reruns and worker pools 1/4/8", ok
        )
