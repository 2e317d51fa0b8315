"""Ground-truth linearity probabilities: exact enumeration and Monte Carlo.

The exact oracle counts linear edge sets by a sweep over the vertices
that tracks the vertex pairs in use, for hosts of up to EXACT_EDGE_CAP
edges.  The Monte Carlo estimator runs its trials serially in blocks of
BLOCK trials.  Block b owns one substream of the philox4x64 counter-based
generator (key = seed, counter = b << 64) and checks its trials with
vectorised sorts, so a report is reproducible bit for bit from the seed
and the parameters.  The vertex-pair keys are int32, so the sampler caps
the host (MC_PAIR_TABLE_CAP, MC_MAX_N) before it allocates anything; the
key dtype changes no report.  numpy loads on the first call of the
sampler, not on import, so the subcommands that do not sample start
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import TYPE_CHECKING

from .errors import CapExceededError, ValidationError
from .hypergraph import check_edge_cap, check_host, count_text, edge_count
from .polynomial import Polynomial

if TYPE_CHECKING:
    import numpy as np

#: Ceiling on the exact oracle's host edges, C(9,3): every host it admits
#: is swept in seconds, while (10,3) takes about 30 s.
EXACT_EDGE_CAP = 84

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

    Sums L_m p^m (1-p)^(N-m) over m, where N = C(n,r) and L_m counts the
    linear m-edge sets of the complete r-graph (`_linear_set_counts`).
    The binomial expansion of (1-p)^(N-m) keeps every coefficient an
    integer: L_m p^m (1-p)^(N-m) = sum_j (-1)^j C(N-m, j) L_m p^(m+j).
    """
    ne = check_edge_cap(n, r, EXACT_EDGE_CAP)
    coeffs = [0] * (ne + 1)
    for m, count in _linear_set_counts(n, r).items():
        for j in range(ne - m + 1):
            coeffs[m + j] += (-1) ** j * math.comb(ne - m, j) * count
    return Polynomial(dict(enumerate(coeffs)))


def _linear_set_counts(n: int, r: int) -> dict[int, int]:
    """{m: L_m} over L_m > 0, the linear m-edge sets of the host (n, r).

    Linear edges use pairwise distinct vertex pairs.  The state maps the
    used pairs among the unswept vertices (bit i*n + j for i < j) to
    {edge count: edge sets}.  Vertex a takes every set of disjoint
    (r-1)-subsets of its free neighbours (b > a, pair ab unused) whose
    inner pairs are unused, adds those pairs and drops the pairs at a.
    The host n = r has one edge and nothing to sweep, however large n is.
    """
    if n == r:
        return {0: 1, 1: 1}
    row = (1 << n) - 1
    tallies = {0: {0: 1}}
    for a in range(n):
        later = row & ~((2 << a) - 1)
        keep = ~(row << (a * n))
        swept: dict[int, dict[int, int]] = {}
        for used, counts in tallies.items():
            free = later & ~(used >> (a * n))
            for added, k in _packings(free, used, n, r - 1):
                slot = swept.setdefault((used | added) & keep, {})
                for m, count in counts.items():
                    slot[m + k] = slot.get(m + k, 0) + count
        tallies = swept
    (counts,) = tallies.values()
    return counts


def _packings(free: int, used: int, n: int, size: int):
    """(inner pairs, number of subsets) of each set of pairwise disjoint
    size-subsets of the vertex mask `free` whose inner pairs are unused."""
    if free.bit_count() < size:
        yield 0, 0
        return
    low = free & -free
    b = low.bit_length() - 1
    rest = free ^ low
    yield from _packings(rest, used, n, size)  # b in no subset
    for verts, pairs in _cliques(rest & ~(used >> (b * n)), used, n, size - 1):
        for more, k in _packings(rest & ~verts, used, n, size):
            yield pairs | (verts << (b * n)) | more, k + 1


def _cliques(cand: int, used: int, n: int, size: int):
    """(vertex mask, inner pairs) of each size-subset of `cand` whose inner
    pairs are unused."""
    if size == 0:
        yield 0, 0
        return
    while cand.bit_count() >= size:
        low = cand & -cand
        c = low.bit_length() - 1
        cand ^= low
        for verts, pairs in _cliques(cand & ~(used >> (c * n)), used, n, size - 1):
            yield verts | low, pairs | (verts << (c * n))


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
        if repeated.any():
            idx[repeated[owner]] = np.concatenate(
                [rng.choice(ne, size=k, replace=False, shuffle=False) for k in drawn[repeated]]
            )
        hits += int(np.count_nonzero(~_nonlinear(pair_ids, n, idx, drawn)))
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
      context {edges, cap} ({edges_log10, cap} or {edges_log10_at_least,
      cap} past EXACT_COUNT_DIGITS edge digits, see `hypergraph.edge_count`)
      before any table is built.
    * A trial that drew some edge twice is redrawn in place with
      `choice(N, m, replace=False)` from the block's generator, in trial
      order, before the block's one pair-key check.  The sampler stays
      exact: given that the m draws with replacement are distinct, their
      set is a uniform m-subset (every ordered draw of m distinct edges
      has the same probability), and the redraw is a uniform m-subset as
      well, so the mixture of the two cases is one too.

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
    ne = edge_count(n, r, MC_PAIR_TABLE_CAP, cap=MC_PAIR_TABLE_CAP)
    entries = ne * math.comb(r, 2)
    if entries > MC_PAIR_TABLE_CAP:
        raise CapExceededError(
            f"C({n},{r}) = {count_text(ne)} edges need {count_text(entries)} "
            f"pair-table entries, over the sampler's cap of {MC_PAIR_TABLE_CAP}",
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
