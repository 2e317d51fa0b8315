"""Ground-truth linearity probabilities: exact enumeration and Monte Carlo.

The exact oracle walks every edge subset of the complete host with an
incremental pair-conflict mask; feasible up to 2^24 states.  The Monte
Carlo estimator runs its trials serially in blocks of BLOCK trials.  Block
b owns one substream of the philox4x64 counter-based generator (key =
seed, counter = b << 64) and checks its trials with vectorised sorts, so a
report is reproducible bit for bit from the seed and the parameters.  The
vertex-pair keys are int32, so the sampler caps the host (MC_PAIR_TABLE_CAP,
MC_MAX_N) before it allocates anything; the key dtype changes no report.
numpy loads on the first call of the exact scan or the sampler, not on
import, so the subcommands that use neither start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import TYPE_CHECKING

from .errors import CapExceededError, ValidationError
from .hypergraph import check_host
from .polynomial import Polynomial

if TYPE_CHECKING:
    import numpy as np

#: 2^24 subset states is the documented ceiling for the exact scan.
EXACT_STATE_CAP_BITS = 24

#: Monte Carlo trials per block; each block owns one Philox substream.
#: 512 keeps the peak RSS of an n = 50 run below the per-trial layout's.
BLOCK = 512

RNG_NAME = f"philox4x64-block{BLOCK}"

#: Ceiling on the sampler's pair table, C(n,r) * C(r,2) int32 entries
#: (256 MiB); a larger host is a CapExceededError before any allocation.
MC_PAIR_TABLE_CAP = 1 << 26

#: The largest n whose pair keys owner * n^2 + pair id (owner < BLOCK) fit
#: in int32, i.e. BLOCK * n^2 <= 2^31.
MC_MAX_N = math.isqrt(2**31 // BLOCK)


def exact_linearity_polynomial(n: int, r: int) -> Polynomial:
    """Exact probability of linearity as an expanded polynomial in p.

    Sums p^|E| (1-p)^(N-|E|) over every linear edge subset E of the
    complete r-graph.  Linearity counts per subset size come from a
    subset DP: a subset is linear iff the subset minus its lowest edge is
    linear and the lowest edge conflicts with nothing in the rest.
    """
    check_host(n, r)
    ne = math.comb(n, r)
    if ne > EXACT_STATE_CAP_BITS:
        raise CapExceededError(
            f"C({n},{r}) = {ne} edges exceeds the 2^{EXACT_STATE_CAP_BITS} state cap",
            edges=ne,
        )
    edges = list(combinations(range(1, n + 1), r))
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
    import numpy as np

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


def _pair_table(n: int, r: int) -> np.ndarray:
    """Pair ids a*n + b (a < b) of each host edge, one row per edge in
    lexicographic order, shape (C(n,r), C(r,2)), as int32 (monte_carlo
    caps n so that every pair key fits)."""
    import numpy as np

    ne = math.comb(n, r)
    flat = chain.from_iterable(combinations(range(n), r))
    verts = np.fromiter(flat, dtype=np.int32, count=ne * r).reshape(ne, r)
    # triu_indices lists the pairs in combinations(range(r), 2) order; take
    # keeps the table row-major (verts[:, ia] would not), which the row
    # gathers of _nonlinear need to stay fast
    ia, ib = np.triu_indices(r, 1)
    return np.take(verts, ia, axis=1) * n + np.take(verts, ib, axis=1)


def _repeated_owners(keys: np.ndarray, stride: int, owners: int) -> np.ndarray:
    """Mask of the owners whose keys (owner*stride + value) repeat a value."""
    import numpy as np

    keys = np.sort(keys, axis=None)
    bad = np.zeros(owners, dtype=bool)
    bad[keys[1:][keys[1:] == keys[:-1]] // stride] = True
    return bad


def _nonlinear(pair_ids: np.ndarray, n: int, idx: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of the non-linear trials, i.e. those in which some vertex pair
    repeats, among trials whose edges idx are laid out trial by trial,
    sizes[t] edges for trial t.  The keys owner*n^2 + pair id are int32:
    owner < BLOCK and monte_carlo caps BLOCK * n^2 at 2^31."""
    import numpy as np

    keys = np.take(pair_ids, idx, axis=0)
    offsets = np.arange(sizes.size, dtype=np.int32) * np.int32(n * n)
    keys += np.repeat(offsets, sizes)[:, None]
    return _repeated_owners(keys, n * n, sizes.size)


def _run_trials(pair_ids: np.ndarray, n: int, p: float, seed: int, trials: int) -> int:
    """Count linear samples among trials 0 .. trials-1, block by block
    (see monte_carlo)."""
    import numpy as np

    ne, width = pair_ids.shape
    m_max = math.comb(n, 2) // width  # more edges cannot be linear (pigeonhole)
    hits = 0
    for block in range(-(-trials // BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=block << 64))
        m = rng.binomial(ne, p, size=min(BLOCK, trials - block * BLOCK))
        hits += int(np.count_nonzero(m <= 1))
        drawn = m[(m > 1) & (m <= m_max)]
        if drawn.size == 0:
            continue
        idx = rng.integers(0, ne, size=int(drawn.sum()))
        owner = np.repeat(np.arange(drawn.size, dtype=np.int64), drawn)
        repeated = _repeated_owners(owner * ne + idx, ne, drawn.size)
        conflict = _nonlinear(pair_ids, n, idx, drawn)
        hits += int(np.count_nonzero(~repeated & ~conflict))
        redraw = drawn[repeated]
        if redraw.size:
            idx = np.concatenate(
                [rng.choice(ne, size=k, replace=False, shuffle=False) for k in redraw]
            )
            hits += int(np.count_nonzero(~_nonlinear(pair_ids, n, idx, redraw)))
    return hits


def check_seed(seed: int) -> None:
    """Rejects a seed outside Philox's key range, 0 .. 2^128 - 1."""
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must be in 0 .. 2^128 - 1, got {seed}")


def monte_carlo(
    n: int, r: int, p: Fraction, trials: int, seed: int, workers: int = 1
) -> McReport:
    """Seeded Monte Carlo estimate of the linearity probability.

    A trial draws m ~ Bin(N, p), N = C(n, r), and then a uniform m-subset
    of the host edges; it is a hit when the subset is linear, i.e. no
    vertex pair lies in two of its edges.  Trials run in blocks of BLOCK,
    block b on the substream Philox(key=seed, counter=b << 64).  A block
    draws its m values, then the edge indices of all its trials with
    replacement in one call, and settles them with two sorted-key checks:
    a repeated edge within a trial, and a repeated vertex pair (pair id
    a*n + b) within a trial, which is a linearity violation.

    * Trials with m <= 1 are hits.  A linear m-edge set covers m * C(r,2)
      distinct vertex pairs, so by pigeonhole a trial with
      m > C(n,2) // C(r,2) is a miss; it draws no edges, and a block's
      key array holds at most BLOCK * C(n,2) entries at any p.
    * The pair keys trial * n^2 + pair id are built with np.take and
      sorted as int32; the repeated-edge keys trial * N + edge index stay
      int64, since BLOCK * N can pass 2^31.  A host whose pair table would
      exceed MC_PAIR_TABLE_CAP entries, or with n > MC_MAX_N (where the
      int32 pair keys would overflow), raises CapExceededError with
      context {edges, cap} before any table is built.
    * A trial that drew some edge twice is redrawn with
      `choice(N, m, replace=False)` from the block's generator, after the
      vectorised pass, in trial order.  The sampler stays exact: given
      that the m draws with replacement are distinct, their set is a
      uniform m-subset (every ordered draw of m distinct edges has the
      same probability), and the redraw is a uniform m-subset as well, so
      the mixture of the two cases is one too.

    Identical (seed, parameters) give an identical report; the key dtypes
    are not part of RNG_NAME, because no check result depends on them.
    `workers` has no effect: the blocks run serially and their layout does
    not depend on it; it is accepted so that existing callers keep working.
    """
    check_host(n, r)
    if trials < 1:
        raise ValidationError("need at least one trial")
    check_seed(seed)
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValidationError(f"p must be in (0,1), got {p}")
    ne = math.comb(n, r)
    entries = ne * math.comb(r, 2)
    if entries > MC_PAIR_TABLE_CAP:
        raise CapExceededError(
            f"C({n},{r}) = {ne} edges need {entries} pair-table entries, over the "
            f"sampler's cap of {MC_PAIR_TABLE_CAP}",
            edges=ne,
            cap=MC_PAIR_TABLE_CAP,
        )
    if n > MC_MAX_N:
        raise CapExceededError(
            f"n = {n} is over the sampler's cap of {MC_MAX_N}: its int32 pair keys "
            f"need {BLOCK} * n^2 <= 2^31",
            edges=ne,
            cap=MC_MAX_N,
        )
    hits = _run_trials(_pair_table(n, r), n, float(p), seed, trials)
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
