"""Ground-truth linearity probabilities: exact enumeration and Monte Carlo.

The exact oracle walks every edge subset of the complete host with an
incremental pair-conflict mask; feasible up to 2^24 states.  The Monte
Carlo estimator runs its trials serially, each on its own substream of the
philox4x64 counter-based generator (key = seed, counter = trial << 64), so
a report is reproducible bit for bit from the seed and the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import CapExceededError, ValidationError
from .polynomial import Polynomial

#: 2^24 subset states is the documented ceiling for the exact scan.
EXACT_STATE_CAP_BITS = 24

RNG_NAME = "philox4x64"


def exact_linearity_polynomial(n: int, r: int) -> Polynomial:
    """Exact probability of linearity as an expanded polynomial in p.

    Sums p^|E| (1-p)^(N-|E|) over every linear edge subset E of the
    complete r-graph.  Linearity counts per subset size come from a
    subset DP: a subset is linear iff the subset minus its lowest edge is
    linear and the lowest edge conflicts with nothing in the rest.
    """
    if r < 3:
        raise ValidationError(f"uniformity must be >= 3, got {r}")
    if n < r:
        raise ValidationError(f"need n >= r, got n={n}, r={r}")
    edges = list(combinations(range(1, n + 1), r))
    ne = len(edges)
    if ne > EXACT_STATE_CAP_BITS:
        raise CapExceededError(
            f"C({n},{r}) = {ne} edges exceeds the 2^{EXACT_STATE_CAP_BITS} state cap",
            edges=ne,
        )
    counts = _linear_subset_counts(edges)
    # expand sum_e a_e p^e (1-p)^(N-e) exactly
    one_minus = Polynomial({0: 1, 1: -1})
    tails = [Polynomial.one()]
    for _ in range(ne):
        tails.append(tails[-1] * one_minus)
    out = Polynomial.zero()
    for e in range(ne + 1):
        if counts[e]:
            out = out + Polynomial({e: int(counts[e])}) * tails[ne - e]
    return out


def _linear_subset_counts(edges: list[tuple[int, ...]]) -> np.ndarray:
    ne = len(edges)
    sets = [frozenset(e) for e in edges]
    conflict = np.zeros(ne, dtype=np.int64)
    for i in range(ne):
        for j in range(i + 1, ne):
            if len(sets[i] & sets[j]) >= 2:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    linear = np.zeros(1 << ne, dtype=bool)
    linear[0] = True
    # masks are filled by their lowest set bit, highest bit first, so the
    # `rest` lookups (whose lowest bits are larger) are always ready
    for v in range(ne - 1, -1, -1):
        rest = np.arange(1 << (ne - 1 - v), dtype=np.int64) << (v + 1)
        linear[rest | (1 << v)] = linear[rest] & ((rest & conflict[v]) == 0)
    pop = np.bitwise_count(np.arange(1 << ne, dtype=np.uint32)).astype(np.int64)
    return np.bincount(pop[linear], minlength=ne + 1)


@dataclass(frozen=True)
class McReport:
    """One Monte Carlo run, with everything needed to reproduce it."""

    n: int
    r: int
    p: Fraction
    trials: int
    hits: int
    estimate: float
    std_error: float
    seed: int
    rng_name: str = RNG_NAME

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "p_num": self.p.numerator,
            "p_den": self.p.denominator,
            "trials": self.trials,
            "hits": self.hits,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "seed": self.seed,
            "rng_name": self.rng_name,
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 64))


def _run_trials(pair_ids: np.ndarray, ne: int, p: float, seed: int, trials: int) -> int:
    """Count linear samples among trials 0 .. trials-1.

    Per trial: draw the binomial edge count, then that many distinct edges
    without replacement (sparse-regime sampling).  A sample is linear iff
    no vertex pair is covered by two chosen edges, i.e. the pair ids of
    the chosen edges are all distinct.
    """
    hits = 0
    width = pair_ids.shape[1]
    for t in range(trials):
        rng = _trial_rng(seed, t)
        m = rng.binomial(ne, p)
        if m <= 1:
            hits += 1
            continue
        idx = rng.choice(ne, size=m, replace=False, shuffle=False)
        ids = pair_ids[idx].ravel()
        if np.unique(ids).size == m * width:
            hits += 1
    return hits


def monte_carlo(
    n: int, r: int, p: Fraction, trials: int, seed: int, workers: int = 1
) -> McReport:
    """Seeded Monte Carlo estimate of the linearity probability.

    Identical (seed, parameters) give an identical report, because every
    trial owns its own counter-based substream.  `workers` has no effect:
    the trials run serially, and it is accepted so that existing callers
    keep working.
    """
    if r < 3:
        raise ValidationError(f"uniformity must be >= 3, got {r}")
    if n < r:
        raise ValidationError(f"need n >= r, got n={n}, r={r}")
    if trials < 1:
        raise ValidationError("need at least one trial")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must be in 0 .. 2^128 - 1, got {seed}")
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValidationError(f"p must be in (0,1), got {p}")
    edges = list(combinations(range(n), r))
    ne = len(edges)
    # pair ids: each edge covers C(r,2) vertex pairs; duplicates across
    # chosen edges are exactly the linearity violations
    pair_index = {}
    rows = []
    for e in edges:
        row = []
        for a, b in combinations(e, 2):
            key = a * n + b
            row.append(pair_index.setdefault(key, len(pair_index)))
        rows.append(row)
    pair_ids = np.array(rows, dtype=np.int32)
    hits = _run_trials(pair_ids, ne, float(p), seed, trials)
    estimate = hits / trials
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    return McReport(
        n=n,
        r=r,
        p=p,
        trials=trials,
        hits=hits,
        estimate=estimate,
        std_error=std_error,
        seed=seed,
    )
