"""The benchmark's workloads: CLI argv from a seed, a reference from an
independent engine, the check of one operation's output, and layer probes.

Each workload is one CLI operation, run back to back by `run.py`.  The
reference never comes from the code path the operation runs:

* expand      orders and truncated sum against the cumulant form
              (`cumulant_sum`), which equals the cluster expansion term by
              term (criterion 4 of the test suite).
* sweep       `log_exact` against the alternating-sum polynomial
              (`inclusion_exclusion_polynomial`), T2..T4 and `cumulant_k3`
              against `cumulant_sum(d, 1..3)`, the Monte Carlo column
              statistically against the exact probability.
* series      the cross-checked series against strategy A alone.
* montecarlo  statistically against a long Monte Carlo run on a key that
              no benchmark seed reaches, so the streams are independent.

`FULL` are the benchmarked sizes, `TINY` the n = 5 sizes the benchmark's
own tests run.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Monte Carlo key of the references; run seeds stay below 2**31.
REFERENCE_MC_SEED = 2**40 + 1

#: A Monte Carlo estimate passes within this many standard errors.
MC_SIGMAS = 5.0


def derived_seed(seed: int, salt: str) -> int:
    """The seed a workload hands the CLI, from the benchmark's --seed."""
    return random.Random(f"{salt}:{seed}").randrange(1, 2**31)


def _polys(data: dict) -> dict:
    from linhyp.polynomial import Polynomial

    return {key: Polynomial.from_json(value) for key, value in data.items()}


def _mc_problem(hits: int, trials: int, q: float, ref_var: float) -> str | None:
    """Empty unless hits/trials is further than MC_SIGMAS from q.

    Six hits of slack keep near-certain and near-impossible outcomes, whose
    binomial spread is almost zero, from failing on a single rare draw.
    """
    allowed = MC_SIGMAS * math.sqrt(trials * q * (1 - q) + trials**2 * ref_var) + 6
    if abs(hits - trials * q) > allowed:
        return f"{hits}/{trials} hits, expected {trials * q:.1f} +- {allowed:.1f}"
    return None


def _stream_probe(tracer, n: int, r: int, orders) -> dict:
    """Polymer count and stream-plus-tally time per order (moment_sum)."""
    from linhyp.dependency import dependency_graph_for
    from linhyp.expansion import moment_sum

    with tracer.paused():
        d = dependency_graph_for(n, r)
    out = {}
    for k in orders:
        start = time.perf_counter()
        poly = moment_sum(d, k)
        out[f"dependency.stream_s.o{k}"] = time.perf_counter() - start
        out[f"dependency.polymers.o{k}"] = int(sum(poly.coeffs.values()))
    return out


def _mc_probe(n: int, r: int, p: str, trials: int, seed: int) -> None:
    """Serial Monte Carlo on the workload's inputs; its span is the probe."""
    from linhyp.oracle import monte_carlo

    monte_carlo(n, r, Fraction(p), trials=trials, seed=seed, workers=1)


class Workload:
    name = ""
    why = ""

    def spec(self) -> dict:
        """Inputs the reference depends on (not --workers, not the seed)."""
        raise NotImplementedError

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def reference(self) -> dict:
        raise NotImplementedError

    def check(self, payload: dict, ref: dict, seed: int) -> list[str]:
        """Problems with one operation's payload; empty when correct."""
        raise NotImplementedError

    def probe(self, tracer, seed: int) -> dict:
        """Layer probes on the workload's inputs, after the traced operation."""
        return {}

    def invariance_argv(self, seed: int) -> list[str] | None:
        """An untimed operation whose output must equal the timed ones'."""
        return None

    def invariance_problem(self, payload: dict, other: dict) -> str | None:
        return None

    def load_reference(self, refs_dir: Path = REFS_DIR) -> dict:
        path = refs_dir / f"{self.name}.json"
        stored = json.loads(path.read_text())
        if stored["spec"] != self.spec():
            raise ValueError(
                f"{path} was made for {stored['spec']}, the workload is "
                f"{self.spec()}; run perfbench/make_refs.py"
            )
        return stored["reference"]


class Expand(Workload):
    name = "expand"
    why = "order-4 cluster term: the partition/Ursell/Fraction stage does >99% of the work"

    def __init__(self, n: int, r: int, k: int, workers: int):
        self.n, self.r, self.k, self.workers = n, r, k, workers

    def spec(self) -> dict:
        return {"n": self.n, "r": self.r, "k": self.k}

    def argv(self, seed: int) -> list[str]:
        return ["expand", str(self.n), str(self.r), "--k", str(self.k),
                "--workers", str(self.workers)]

    def reference(self) -> dict:
        from linhyp.dependency import dependency_graph_for
        from linhyp.expansion import cumulant_sum

        d = dependency_graph_for(self.n, self.r)
        sums = [cumulant_sum(d, j) for j in range(1, self.k)]
        orders = {"1": sums[0]}
        for j in range(2, self.k):
            orders[str(j)] = sums[j - 1] - sums[j - 2]
        return {
            "orders": {key: poly.to_json() for key, poly in orders.items()},
            "truncated_sum": sums[-1].to_json(),
        }

    def check(self, payload: dict, ref: dict, seed: int) -> list[str]:
        problems = []
        got, want = _polys(payload["orders"]), _polys(ref["orders"])
        if sorted(got) != sorted(want):
            problems.append(f"orders {sorted(got)}, expected {sorted(want)}")
        for key in sorted(want):
            if key in got and got[key] != want[key]:
                problems.append(f"order {key} differs from the cumulant form")
        if _polys({"s": payload["truncated_sum"]}) != _polys({"s": ref["truncated_sum"]}):
            problems.append("truncated_sum differs from cumulant_sum")
        return problems

    def probe(self, tracer, seed: int) -> dict:
        return _stream_probe(tracer, self.n, self.r, range(1, self.k))


def sweep_points(sweep: str) -> list[Fraction]:
    """The p grid `linhyp compare --sweep lo,hi,count` evaluates."""
    lo_s, hi_s, count_s = sweep.split(",")
    lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [Fraction(str(round(lo * ratio**i, 12))) for i in range(count)]


class Sweep(Workload):
    name = "sweep"
    why = "compare sweep: orders 1-3, exact scan and cumulants recomputed at every p point"

    def __init__(self, n: int, r: int, sweep: str, trials: int, workers: int,
                 probe_trials: int):
        self.n, self.r, self.sweep = n, r, sweep
        self.trials, self.workers, self.probe_trials = trials, workers, probe_trials

    def spec(self) -> dict:
        return {"n": self.n, "r": self.r, "sweep": self.sweep}

    def argv(self, seed: int) -> list[str]:
        return ["compare", str(self.n), str(self.r), "--sweep", self.sweep,
                "--trials", str(self.trials), "--seed", str(derived_seed(seed, self.name)),
                "--workers", str(self.workers)]

    def reference(self) -> dict:
        from linhyp.dependency import dependency_graph_for
        from linhyp.expansion import cumulant_sum, inclusion_exclusion_polynomial

        d = dependency_graph_for(self.n, self.r)
        return {
            "exact": inclusion_exclusion_polynomial(self.n, self.r).to_json(),
            "cumulants": {str(k): cumulant_sum(d, k).to_json() for k in (1, 2, 3)},
        }

    def check(self, payload: dict, ref: dict, seed: int) -> list[str]:
        from linhyp.polynomial import log_fraction

        exact = _polys({"e": ref["exact"]})["e"]
        cumulants = _polys(ref["cumulants"])
        expected = {f"log_T{k + 1}": cumulants[str(k)] for k in (1, 2, 3)}
        expected["cumulant_k3"] = cumulants["3"]
        points = sweep_points(self.sweep)
        rows = payload["rows"]
        if len(rows) != len(points):
            return [f"{len(rows)} rows, expected {len(points)}"]
        problems = []
        for row, p in zip(rows, points):
            if row["p"] != float(p):
                problems.append(f"row p {row['p']}, expected {float(p)}")
                continue
            q = exact(p)
            if not math.isclose(row["log_exact"], log_fraction(q), rel_tol=1e-12):
                problems.append(f"log_exact at p={p}: {row['log_exact']} vs {log_fraction(q)}")
            for key, poly in expected.items():
                if not math.isclose(row[key], float(poly(p)), rel_tol=1e-12, abs_tol=1e-300):
                    problems.append(f"{key} at p={p}: {row[key]} vs {float(poly(p))}")
            hits = round(row["mc_estimate"] * self.trials)
            mc = _mc_problem(hits, self.trials, float(q), 0.0)
            if mc:
                problems.append(f"mc_estimate at p={p}: {mc}")
        return problems

    def probe(self, tracer, seed: int) -> dict:
        _mc_probe(self.n, self.r, self.sweep.split(",")[1], self.probe_trials,
                  derived_seed(seed, self.name))
        return _stream_probe(tracer, self.n, self.r, (1, 2, 3))


class Series(Workload):
    name = "series"
    why = "symbolic series: graph build, per-n samples in the pool and the interpolation solve"

    def __init__(self, r: int, max_p_power: int):
        self.r, self.max_p_power = r, max_p_power

    def spec(self) -> dict:
        return {"r": self.r, "max_p_power": self.max_p_power}

    def argv(self, seed: int) -> list[str]:
        return ["series", "--r", str(self.r), "--max-p-power", str(self.max_p_power)]

    def reference(self) -> dict:
        from linhyp.expansion import symbolic_series

        terms = symbolic_series(self.max_p_power, self.r, cross_check=False)
        return {"terms": [t.to_json() for t in terms]}

    def check(self, payload: dict, ref: dict, seed: int) -> list[str]:
        if payload["terms"] != ref["terms"]:
            return ["series terms differ from strategy A"]
        return []

    def probe(self, tracer, seed: int) -> dict:
        """Serial per-n samples over the n the interpolation uses."""
        from linhyp.expansion import per_n_power_sums

        degree = self.max_p_power * (self.r - 1) + 1
        for n in range(self.r, self.r + degree + 1):
            per_n_power_sums(n, self.max_p_power, self.r)
        return {}


class MonteCarlo(Workload):
    name = "montecarlo"
    why = "paper-regime Monte Carlo at n = 50: only the oracle sampler runs, no cluster layer"

    def __init__(self, n: int, r: int, p: str, trials: int, workers: int,
                 reference_trials: int, probe_trials: int):
        self.n, self.r, self.p, self.trials, self.workers = n, r, p, trials, workers
        self.reference_trials, self.probe_trials = reference_trials, probe_trials

    def spec(self) -> dict:
        return {"n": self.n, "r": self.r, "p": self.p,
                "reference_trials": self.reference_trials}

    def _argv(self, seed: int, workers: int) -> list[str]:
        return ["montecarlo", str(self.n), str(self.r), "--p", self.p,
                "--trials", str(self.trials), "--seed", str(derived_seed(seed, self.name)),
                "--workers", str(workers)]

    def argv(self, seed: int) -> list[str]:
        return self._argv(seed, self.workers)

    def invariance_argv(self, seed: int) -> list[str]:
        return self._argv(seed, 1)

    def invariance_problem(self, payload: dict, other: dict) -> str | None:
        a, b = payload["report"]["hits"], other["report"]["hits"]
        if a != b:
            return f"hits {a} at --workers {self.workers} but {b} at --workers 1"
        return None

    def reference(self) -> dict:
        from linhyp.asymptotics import log_linearity_r3
        from linhyp.oracle import monte_carlo

        rep = monte_carlo(self.n, self.r, Fraction(self.p), trials=self.reference_trials,
                          seed=REFERENCE_MC_SEED, workers=1)
        out = {"hits": rep.hits, "trials": rep.trials, "seed": REFERENCE_MC_SEED}
        if self.r == 3:
            out["log_closed_r3"] = log_linearity_r3(self.n, Fraction(self.p)).log_prob
        return out

    def check(self, payload: dict, ref: dict, seed: int) -> list[str]:
        rep = payload["report"]
        want = {"n": self.n, "r": self.r, "trials": self.trials,
                "seed": derived_seed(seed, self.name)}
        problems = [f"{key} {rep[key]}, expected {value}"
                    for key, value in want.items() if rep[key] != value]
        q = ref["hits"] / ref["trials"]
        mc = _mc_problem(rep["hits"], self.trials, q, q * (1 - q) / ref["trials"])
        if mc:
            problems.append(f"estimate against the reference run: {mc}")
        return problems

    def probe(self, tracer, seed: int) -> dict:
        _mc_probe(self.n, self.r, self.p, self.probe_trials, derived_seed(seed, self.name))
        return {}


FULL: dict[str, Workload] = {
    w.name: w
    for w in (
        Expand(n=6, r=3, k=5, workers=2),
        Sweep(n=6, r=3, sweep="0.0005,0.02,12", trials=2000, workers=2, probe_trials=20000),
        Series(r=3, max_p_power=3),
        MonteCarlo(n=50, r=3, p="0.0019", trials=50000, workers=2,
                   reference_trials=1_000_000, probe_trials=10000),
    )
}

TINY: dict[str, Workload] = {
    w.name: w
    for w in (
        Expand(n=5, r=3, k=4, workers=2),
        Sweep(n=5, r=3, sweep="0.001,0.05,3", trials=300, workers=2, probe_trials=1000),
        Series(r=3, max_p_power=2),
        MonteCarlo(n=5, r=3, p="0.05", trials=2000, workers=2,
                   reference_trials=20000, probe_trials=500),
    )
}

SIZES = {"full": FULL, "tiny": TINY}
