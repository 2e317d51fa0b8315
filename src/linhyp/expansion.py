"""Truncated expansion series over disjoint-polymer clusters.

Per-instance (fixed n) evaluation sums, over polymers and their partitions
into connected blocks, the weight

    phi(closeness graph) * (-1)^(total copies) * product of block moments,

grouped either by cluster size (the truncation axis of the log-probability
approximation) or by the p-power of the contribution (what the symbolic
series is organised around).

The symbolic-in-n series is produced two independent ways that must agree:

* Strategy A, structural enumeration: labelled spanning structures on a
  canonical vertex set [v] are counted directly, so a structure class
  contributes (labelled count / v!) * [n]_v, and automorphism factors
  never need to be computed.
* Strategy B, interpolation: the per-n sums are evaluated exactly at
  enough consecutive n and the coefficients are solved for in the
  falling-factorial basis, with the degree set by the proven vertex-span
  bound r + (b - 1)(r - 2) and one extra sample checked against the fit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .combinat import set_partitions
from .dependency import (
    DependencyGraph,
    _connected_set_masks,
    _mask_to_members,
    dependency_graph_for,
)
from .errors import CapExceededError, LinhypError, ValidationError
from .graphcalc import SimpleGraph, ursell
from .hypergraph import ForbiddenCopy, enumerate_forbidden_copies
from .polynomial import Polynomial, SeriesTerm, falling_factorial

#: Hyperedge-count cap for the alternating-sum and polymer-model forms.
INCLUSION_EXCLUSION_EDGE_CAP = 20
HARD_CORE_EDGE_CAP = 12

#: Symbolic-series budget.  Vertex spans reach max_p_power + 2, the
#: structural edge-set enumeration costs C(C(v,3), E), and the
#: interpolation needs max_p_power + 4 exact samples, up to n =
#: max_p_power + 6, whose cost grows like [n]_(max_p_power+2); 4 keeps
#: both strategies comfortably inside the cross-check contract.
MAX_SYMBOLIC_P_POWER = 4

_phi_cache: dict[tuple[int, int], Fraction] = {}


def _phi_of_blocks(d: DependencyGraph, blocks: Sequence[tuple[int, ...]]) -> Fraction:
    """Ursell weight of the closeness graph of disjoint connected blocks.

    For disjoint polymers, closeness is exactly a dependency edge across,
    so the graph is built from crossing adjacency.  One- and two-block
    clusters dominate; they short-circuit to +1 / -1.
    """
    m = len(blocks)
    if m == 1:
        return Fraction(1)
    masks = []
    nbrs = []
    for b in blocks:
        bm = 0
        am = 0
        for i in b:
            bm |= 1 << i
            am |= d.adj_masks[i]
        masks.append(bm)
        nbrs.append(am)
    if m == 2:
        if not (nbrs[0] & masks[1]):
            raise LinhypError("two-block partition of a connected set must be close")
        return Fraction(-1)
    key_mask = 0
    bit = 0
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            if nbrs[i] & masks[j]:
                key_mask |= 1 << bit
                edges.append((i + 1, j + 1))
            bit += 1
    key = (m, key_mask)
    cached = _phi_cache.get(key)
    if cached is None:
        cached = ursell(SimpleGraph.from_edges(m, edges))
        _phi_cache[key] = cached
    return cached


def _partition_contributions(
    d: DependencyGraph,
    members: tuple[int, ...],
    union_power: int,
    max_power: int | None,
) -> Iterable[tuple[int, Fraction]]:
    """(p-power, phi) for every admissible partition of one polymer.

    The trivial partition always qualifies.  Any finer partition repeats at
    least one shared hyperedge across blocks, so its power is at least
    union_power + 1; when a power ceiling is given this prunes almost all
    partition enumeration.
    """
    size = len(members)
    yield (union_power, Fraction(1))
    if size == 1:
        return
    if max_power is not None and union_power + 1 > max_power:
        return
    edge_masks = d.copy_edge_masks
    for part in set_partitions(members):
        nblocks = len(part)
        if nblocks == 1:
            continue
        power = 0
        for block in part:
            bm = 0
            for i in block:
                bm |= edge_masks[i]
            power += bm.bit_count()
        if max_power is not None and power > max_power:
            continue
        if not all(d.is_connected(block) for block in part):
            continue
        yield (power, _phi_of_blocks(d, part))


def expansion_term(d: DependencyGraph, order: int, cap: int | None = None) -> Polynomial:
    """Order-`order` term of the disjoint-cluster expansion, exact in p.

    Unordered cluster enumeration absorbs the 1/|cluster|! of the ordered
    formulation, because disjoint polymers are pairwise distinct.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    acc: dict[int, Fraction] = {}
    sign = -1 if order & 1 else 1
    count = 0
    for mask, size, emask in _connected_set_masks(
        d.adj_masks, order, edge_masks=d.copy_edge_masks
    ):
        if size != order:
            continue
        count += 1
        if cap is not None and count > cap:
            raise CapExceededError(
                f"cluster enumeration for order {order} exceeded cap {cap}",
                cap=cap,
                order=order,
            )
        members = _mask_to_members(mask)
        for power, phi in _partition_contributions(d, members, emask.bit_count(), None):
            val = acc.get(power)
            acc[power] = (val if val is not None else Fraction(0)) + sign * phi
    return Polynomial(acc)


def expansion_terms(
    d: DependencyGraph, k: int, cap: int | None = None
) -> Iterator[tuple[int, Polynomial]]:
    """(order, term) for the orders 1 .. k-1, lowest first.

    On a cap hit the error reports the orders that completed and the order
    that was cut short.
    """
    if k < 2:
        raise ValidationError(f"truncation index must be >= 2, got {k}")
    for i in range(1, k):
        try:
            term = expansion_term(d, i, cap=cap)
        except CapExceededError as exc:
            raise CapExceededError(
                f"truncated expansion stopped inside order {i}: {exc}",
                completed_orders=list(range(1, i)),
                partial_order=i,
                cap=cap,
            ) from exc
        yield i, term


def truncated_expansion(d: DependencyGraph, k: int, cap: int | None = None) -> Polynomial:
    """Sum of the expansion terms for orders 1 .. k-1."""
    return sum((term for _order, term in expansion_terms(d, k, cap)), Polynomial.zero())


def moment_sum(d: DependencyGraph, size: int, cap: int | None = None) -> Polynomial:
    """Sum of joint moments over polymers of exactly the given size."""
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    acc: dict[int, int] = {}
    count = 0
    for _mask, s, emask in _connected_set_masks(
        d.adj_masks, size, edge_masks=d.copy_edge_masks
    ):
        if s != size:
            continue
        count += 1
        if cap is not None and count > cap:
            raise CapExceededError(
                f"polymer enumeration for size {size} exceeded cap {cap}",
                cap=cap,
                size=size,
            )
        power = emask.bit_count()
        acc[power] = acc.get(power, 0) + 1
    return Polynomial(acc)


def cumulant_sum(d: DependencyGraph, k: int, cap: int | None = None) -> Polynomial:
    """Alternating sum of joint cumulants over polymers of size <= k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    acc: dict[int, Fraction] = {}
    edge_masks = d.copy_edge_masks
    count = 0
    for mask, size, _emask in _connected_set_masks(d.adj_masks, k):
        count += 1
        if cap is not None and count > cap:
            raise CapExceededError(
                f"polymer enumeration exceeded cap {cap}", cap=cap, max_size=k
            )
        members = _mask_to_members(mask)
        outer_sign = -1 if size & 1 else 1
        # kappa(C) = sum over all partitions of (-1)^(m-1) (m-1)! prod mu(P)
        for part in set_partitions(members):
            nblocks = len(part)
            coeff = (-1) ** (nblocks - 1) * math.factorial(nblocks - 1)
            power = 0
            for block in part:
                bm = 0
                for i in block:
                    bm |= edge_masks[i]
                power += bm.bit_count()
            val = acc.get(power)
            acc[power] = (val if val is not None else Fraction(0)) + outer_sign * coeff
    return Polynomial(acc)


# ---------------------------------------------------------------------------
# symbolic series, strategy A: structural enumeration on canonical vertex sets
# ---------------------------------------------------------------------------


def _conflict_connected(edge_sets: Sequence[frozenset[int]]) -> bool:
    m = len(edge_sets)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if len(edge_sets[i] & edge_sets[j]) >= 2:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    reach = 1
    full = (1 << m) - 1
    while True:
        new = reach
        mm = reach
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            new |= adj[v]
        if new == reach:
            return reach == full
        reach = new


_structural_memo: dict[tuple[int, int], dict] = {}
_interpolated_memo: dict[tuple[int, int], dict] = {}


def structural_series_grouped(
    max_p_power: int = 4, r: int = 3
) -> dict[tuple[int, int, int], Fraction]:
    """Strategy A: {(n_falling, p_power, cluster_size): coefficient}.

    Every labelled spanning structure on [v] is counted exactly once under
    its exact hyperedge union, so the coefficient of [n]_v is the weighted
    labelled count divided by v!.
    """
    if r != 3:
        raise ValidationError("symbolic closed forms are implemented for r = 3 only")
    if not 2 <= max_p_power <= MAX_SYMBOLIC_P_POWER:
        raise ValidationError(
            f"max_p_power must be in 2..{MAX_SYMBOLIC_P_POWER}, got {max_p_power}"
        )
    cached = _structural_memo.get((max_p_power, r))
    if cached is not None:
        return dict(cached)
    out: dict[tuple[int, int, int], Fraction] = {}
    for v in range(4, max_p_power + 3):
        vfact = math.factorial(v)
        triples = list(combinations(range(1, v + 1), 3))
        for n_edges in range(2, max_p_power + 1):
            for edge_set in combinations(triples, n_edges):
                union = set()
                for e in edge_set:
                    union.update(e)
                if len(union) != v:
                    continue
                sets = [frozenset(e) for e in edge_set]
                if not _conflict_connected(sets):
                    continue
                copies = [
                    ForbiddenCopy.from_edges(edge_set[i], edge_set[j])
                    for i in range(n_edges)
                    for j in range(i + 1, n_edges)
                    if len(sets[i] & sets[j]) >= 2
                ]
                local = DependencyGraph(copies)
                full_edges = (1 << n_edges) - 1
                assert len(local.edge_ids) == n_edges
                for mask, size, emask in _connected_set_masks(
                    local.adj_masks, len(copies), edge_masks=local.copy_edge_masks
                ):
                    if emask != full_edges:
                        continue
                    members = _mask_to_members(mask)
                    sign = -1 if size & 1 else 1
                    for power, phi in _partition_contributions(
                        local, members, n_edges, max_p_power
                    ):
                        key = (v, power, size)
                        out[key] = out.get(key, Fraction(0)) + Fraction(sign) * phi / vfact
    result = {k: c for k, c in out.items() if c != 0}
    _structural_memo[(max_p_power, r)] = dict(result)
    return result


# ---------------------------------------------------------------------------
# symbolic series, strategy B: exact per-n evaluation plus interpolation
# ---------------------------------------------------------------------------


def per_n_power_sums(n: int, max_p_power: int, r: int = 3) -> dict[tuple[int, int], Fraction]:
    """{(p_power, cluster_size): coefficient} of all cluster contributions
    with p-power at most max_p_power, at a concrete n.

    The polymer stream is pruned on the hyperedge budget, which keeps it
    polynomial in n.  Trivial partitions and the two-singleton split are
    tallied as integers; a finer partition can only fit the power budget
    when the polymer union is at least one hyperedge under it, so only
    that sliver of the stream reaches the partition machinery.
    """
    if n < r:
        return {}
    d = dependency_graph_for(n, r)
    max_size = max(max_p_power * (max_p_power - 1) // 2, 1)
    # counts[power][size]: signed integer tallies; rare finer partitions
    # with fractional phi go to `extras`
    counts = [[0] * (max_size + 1) for _ in range(max_p_power + 1)]
    extras: dict[tuple[int, int], Fraction] = {}
    split_two = max_p_power >= 4  # two singleton blocks cost p^4
    partition_floor = max_p_power - 1  # unions under this admit finer partitions
    for mask, size, emask in _connected_set_masks(
        d.adj_masks, max_size, edge_masks=d.copy_edge_masks, edge_budget=max_p_power
    ):
        m_u = emask.bit_count()
        sign = -1 if size & 1 else 1
        counts[m_u][size] += sign
        if size == 2:
            if split_two:
                counts[4][2] -= 1
        elif size > 2 and m_u <= partition_floor:
            for power, phi in _partition_contributions(
                d, _mask_to_members(mask), m_u, max_p_power
            ):
                if power == m_u:
                    continue  # trivial partition already counted
                key = (power, size)
                extras[key] = extras.get(key, Fraction(0)) + sign * phi
    out: dict[tuple[int, int], Fraction] = {}
    for power, row in enumerate(counts):
        for size, c in enumerate(row):
            if c:
                out[(power, size)] = Fraction(c)
    for k, v in extras.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: c for k, c in out.items() if c != 0}


def _solve_falling_basis(samples: list[tuple[int, Fraction]], degree: int) -> list[Fraction]:
    """Solve f(n) = sum_a c_a [n]_a from the first degree+1 exact samples;
    every further sample must agree with the fit."""
    size = degree + 1
    if len(samples) < size:
        raise ValidationError("not enough interpolation points")
    rows = []
    rhs = []
    for n, value in samples[:size]:
        rows.append([falling_factorial(n, a) for a in range(size)])
        rhs.append(Fraction(value))
    # Gaussian elimination, exact
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        rhs[col] = rhs[col] * inv
        for i in range(size):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
                rhs[i] = rhs[i] - factor * rhs[col]
    coeffs = rhs
    # verify against any extra samples
    for n, value in samples[size:]:
        predicted = sum(
            (c * falling_factorial(n, a) for a, c in enumerate(coeffs)), Fraction(0)
        )
        if predicted != value:
            raise LinhypError("interpolation inconsistent with extra sample")
    return coeffs


def interpolated_series_grouped(
    max_p_power: int = 4, r: int = 3
) -> dict[tuple[int, int, int], Fraction]:
    """Strategy B: same grouping as strategy A, from per-n interpolation.

    Each (p_power, cluster_size) group is sum_v a_v [n]_v over the vertex
    spans v of its clusters.  A cluster with p-power b has a hyperedge
    union of at most b hyperedges (every partition block pays for its own
    union), and that union is connected through its copies, each a pair of
    hyperedges sharing at least 2 vertices.  Adding the hyperedges in
    an order where each one meets an earlier one in 2 or more vertices,
    the first brings r vertices and every further one at most r - 2, so
    v <= r + (b - 1)(r - 2), which is b + 2 for r = 3.  That span bound is
    the degree: the coefficients are fitted on the consecutive samples
    from n = r, and one more sample is checked against the fit.
    """
    if r != 3:
        raise ValidationError("symbolic closed forms are implemented for r = 3 only")
    if not 2 <= max_p_power <= MAX_SYMBOLIC_P_POWER:
        raise ValidationError(
            f"max_p_power must be in 2..{MAX_SYMBOLIC_P_POWER}, got {max_p_power}"
        )
    cached = _interpolated_memo.get((max_p_power, r))
    if cached is not None:
        return dict(cached)
    degree = r + (max_p_power - 1) * (r - 2)
    ns = list(range(r, r + degree + 2))  # degree + 1 fitted, the last checked
    sampled = _sample_power_sums(ns, max_p_power, r)
    keys = sorted({k for s in sampled.values() for k in s})
    out: dict[tuple[int, int, int], Fraction] = {}
    for power, size in keys:
        samples = [(n, sampled[n].get((power, size), Fraction(0))) for n in ns]
        coeffs = _solve_falling_basis(samples, degree)
        for a, c in enumerate(coeffs):
            if c != 0:
                out[(a, power, size)] = c
    _interpolated_memo[(max_p_power, r)] = dict(out)
    return out


def _sample_power_sums(
    ns: list[int], max_p_power: int, r: int
) -> dict[int, dict[tuple[int, int], Fraction]]:
    return {n: per_n_power_sums(n, max_p_power, r) for n in ns}


def symbolic_series(
    max_p_power: int = 4, r: int = 3, cross_check: bool = True
) -> list[SeriesTerm]:
    """Symbolic expansion series: all cluster contributions with p-power at
    most max_p_power, as exact terms c * [n]_a * p^b.

    With cross_check (the default) the structural and interpolation
    strategies are both run and any disagreement is a hard failure.
    """
    grouped = structural_series_grouped(max_p_power, r)
    if cross_check:
        other = interpolated_series_grouped(max_p_power, r)
        if grouped != other:
            raise LinhypError(
                "symbolic series strategies disagree: "
                f"structural={_fmt_grouped(grouped)} interpolated={_fmt_grouped(other)}"
            )
    agg: dict[tuple[int, int], Fraction] = {}
    for (a, b, _s), c in grouped.items():
        agg[(a, b)] = agg.get((a, b), Fraction(0)) + c
    return [
        SeriesTerm(coeff=c, n_falling=a, p_power=b)
        for (a, b), c in sorted(agg.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        if c != 0
    ]


def _fmt_grouped(g: dict[tuple[int, int, int], Fraction]) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(g.items())) + "}"


# ---------------------------------------------------------------------------
# untruncated alternating-moment sum and polymer-model partition function
# ---------------------------------------------------------------------------


def inclusion_exclusion_polynomial(n: int, r: int) -> Polynomial:
    """Alternating sum of joint moments over all copy subsets, exact.

    Subsets are aggregated by their hyperedge union: one signed-count pass
    per copy updates a table indexed by union mask, walking targets in
    descending order so each source still holds its pre-pass value.  The
    table entries stay bounded by 2^(edge count), so int64 is safe and the
    passes vectorise.
    """
    import numpy as np

    edges = list(combinations(range(1, n + 1), r))
    ne = len(edges)
    if ne > INCLUSION_EXCLUSION_EDGE_CAP:
        raise CapExceededError(
            f"{ne} hyperedges exceeds the alternating-sum cap "
            f"{INCLUSION_EXCLUSION_EDGE_CAP}",
            edges=ne,
        )
    edge_id = {e: i for i, e in enumerate(edges)}
    copies = enumerate_forbidden_copies(n, r)
    table = np.zeros(1 << ne, dtype=np.int64)
    table[0] = 1
    for c in copies:
        mc = (1 << edge_id[c.e1]) | (1 << edge_id[c.e2])
        src = np.nonzero(table)[0]
        np.subtract.at(table, src | mc, table[src])
        # entries are signed sums of +-1 over the 2^|E| sub-unions, so the
        # int64 headroom is enormous; guard anyway in case the cap moves
        assert int(np.abs(table).max()) <= 1 << ne
    pop = _popcounts(ne)
    coeffs: dict[int, int] = {}
    for m in range(ne + 1):
        total = int(table[pop == m].sum())
        if total:
            coeffs[m] = total
    return Polynomial(coeffs)


def _popcounts(nbits: int):
    import numpy as np

    vals = np.arange(1 << nbits, dtype=np.uint32)
    return np.bitwise_count(vals).astype(np.int64)


def hard_core_polynomial(n: int, r: int) -> Polynomial:
    """Polymer-model partition function: sum over families of polymers with
    pairwise-disjoint hyperedge sets of the product of signed moments.

    Polymers are aggregated by support: g[E] is the signed count of
    connected copy sets whose hyperedge union is exactly E, obtained from
    the conflict-free sub-configurations of E by subset inversion, and
    families are assembled by a component-first recursion over supports.
    """
    edges = list(combinations(range(1, n + 1), r))
    ne = len(edges)
    if ne > HARD_CORE_EDGE_CAP:
        raise CapExceededError(
            f"{ne} hyperedges exceeds the polymer-model cap {HARD_CORE_EDGE_CAP}",
            edges=ne,
        )
    esets = [frozenset(e) for e in edges]
    conflict = [0] * ne
    for i in range(ne):
        for j in range(i + 1, ne):
            if len(esets[i] & esets[j]) >= 2:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    size = 1 << ne
    # conflict-free indicator per edge mask, incrementally over the low bit
    free = [0] * size
    free[0] = 1
    for m in range(1, size):
        low = m & -m
        rest = m ^ low
        i = low.bit_length() - 1
        free[m] = free[rest] and not (conflict[i] & rest)
    # t[E] = signed count of copy subsets with union exactly E
    t = [0] * size
    for m in range(size):
        pm = m.bit_count()
        sub = m
        while True:
            if free[sub]:
                t[m] += -1 if (pm - sub.bit_count()) & 1 else 1
            if sub == 0:
                break
            sub = (sub - 1) & m
    # connected inversion: g[E] restricted to conflict-connected supports
    g = [0] * size
    for m in sorted(range(1, size), key=lambda x: x.bit_count()):
        low = m & -m
        val = t[m]
        # subtract families whose component containing the lowest edge is E1
        sub = (m ^ low)
        e1 = sub
        while True:
            part = e1 | low
            if part != m:
                val -= g[part] * t[m ^ part]
            if e1 == 0:
                break
            e1 = (e1 - 1) & sub
        g[m] = val
    # assemble families of edge-disjoint supports
    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def family(avail: int) -> dict[int, int]:
        got = memo.get(avail)
        if got is not None:
            return got
        low = avail & -avail
        rest = avail ^ low
        acc = dict(family(rest))
        sub = rest
        while True:
            part = sub | low
            if g[part]:
                tail = family(avail ^ part)
                w = g[part]
                pw = part.bit_count()
                for power, cnt in tail.items():
                    key = power + pw
                    acc[key] = acc.get(key, 0) + w * cnt
            if sub == 0:
                break
            sub = (sub - 1) & rest
        memo[avail] = acc
        return acc

    return Polynomial(family(size - 1))


# ---------------------------------------------------------------------------
# independent-indicator reduction
# ---------------------------------------------------------------------------


def independent_truncated_series(order: int) -> Polynomial:
    """Cluster series of a single independent indicator, truncated.

    With an edgeless dependency graph every cluster is j copies of one
    vertex, the closeness graph is complete, and the order-j term is
    ursell(K_j) / j! * (-1)^j * q^j.  This must match the truncated
    logarithm series -sum q^j / j.
    """
    if order < 1:
        raise ValidationError("order must be >= 1")
    out = Polynomial.zero()
    for j in range(1, order + 1):
        phi = ursell(SimpleGraph.complete(j))
        coeff = phi * Fraction((-1) ** j, math.factorial(j))
        out = out + Polynomial({j: coeff})
    return out


def log_taylor_truncated(order: int) -> Polynomial:
    """Truncated series of log(1 - q): minus sum of q^j / j."""
    return Polynomial({j: Fraction(-1, j) for j in range(1, order + 1)})
