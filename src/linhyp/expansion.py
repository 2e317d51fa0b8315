"""Truncated expansion series over disjoint-polymer clusters.

Per-instance (fixed n) evaluation sums, over polymers and their partitions
into connected blocks, the weight

    phi(closeness graph) * (-1)^(total copies) * product of block moments,

grouped either by cluster size (the truncation axis of the log-probability
approximation) or by the p-power of the contribution (what the symbolic
series is organised around).

What `expand` and `series` output is this disjoint-cluster series.  It
equals the Taylor series of log P through p^3.  From p^4 on it differs:
its p^4 coefficient is (1/8)[n]_4 above log P's (-18 against -21 at
n = 4).  The missing term is the repeated-copy cluster, -1/2 w(c)^2 per
copy c with w(c) = p^2 its moment, which disjoint clusters leave out.

A polymer's contribution is a function of the isomorphism type of its
*copy graph*, whose vertices are the polymer's hyperedges and whose edges
are its copies (each a pair of hyperedges): copy adjacency, each block's
p-power and the closeness of blocks, hence phi, are all read off that
graph.  The connected-set walk keys each set by its walk-order key (see
`dependency._connected_set_masks`), `_cluster_sums` merges the keys into
types by a canonical form (`_copy_graph_type`), and each type's partition
sum is evaluated once per process (`_type_weight`).  `expansion_term` and
both symbolic-series strategies count polymers this way.

On the complete host the contribution is also unchanged by relabelling
the vertices, so `expansion_term`, `moment_sum`, the per-n samples and
strategy A walk only the polymers through one root per copy orbit and
weigh each by |orbit| / size (see `_orbit_tally`, the one walk under all
four); at n = 6, r = 3 that is 3,528 walked order-4 sets with 22 keys in
5 types instead of 79,380 polymers, and at n = 7 the order-5 sets have
104 keys in 12 types.  `cumulant_sum` walks every root, ignores the keys
and stays the independent check.

The symbolic-in-n series is produced two independent ways that must agree:

* Strategy A, structural enumeration: one budgeted orbit walk on the
  dependency graph of K_D (D the span bound below) counts the polymers
  within the budget, binned by the number v of vertices they span.  Bin
  v, divided by C(D, v), holds the labelled spanning counts on [v], so a
  class contributes (labelled count / v!) * [n]_v, and automorphism
  factors never need to be computed.
* Strategy B, interpolation: the per-n sums are the expansion terms cut
  at p^b (the type tally `expansion_term` runs, walked once for every
  order up to C(b, 2)), evaluated exactly at n = 0, 1, ..., D + 1, where
  D = r + (b - 1)(r - 2) is the proven vertex-span bound, and read off in
  the falling-factorial basis from their forward differences
  (`_solve_falling_basis`); the sample at n = D + 1 checks the fit.  The
  sums vanish for n <= r, so only n = r + 1..D + 1 cost anything.

Both strategies share the orbit walk, the type table and the partition
sums, so those are checked by `cumulant_sum` and by the all-roots walk on
a graph without orbits, not by the agreement.  What the agreement checks
is the step from a fixed host to a polynomial in n: span binning on K_D
against forward-difference interpolation over the samples at each n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import Counter
from functools import cache
from itertools import chain, permutations, product
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .combinat import (
    MAX_PARTITION_ITEMS,
    mask_connected,
    meeting_masks,
    members,
    set_partitions,
    subset_unions,
)
from .dependency import DependencyGraph, _connected_set_masks, dependency_graph_for
from .errors import CapExceededError, LinhypError, ValidationError
from .graphcalc import SimpleGraph, ursell
from .hypergraph import check_count, check_edge_cap
from .polynomial import Polynomial, SeriesTerm

#: Hyperedge-count cap for the alternating-sum and polymer-model forms.
INCLUSION_EXCLUSION_EDGE_CAP = 20
HARD_CORE_EDGE_CAP = 12

#: Symbolic-series budget.  Vertex spans reach D = max_p_power + 2, the
#: structural strategy walks the polymers whose union holds at most
#: max_p_power triples on K_D from one root per copy orbit, and the
#: interpolation samples n = 0..max_p_power + 3, of which only
#: n = 4..max_p_power + 3 hold any cluster.  A sample is the same walk on
#: K_n, covering the orders 1..C(max_p_power, 2) at once, and a set through
#: the root spans at most max_p_power - 2 vertices beyond the root's 4, so
#: its cost grows like n^(max_p_power-2); 4 keeps both strategies
#: comfortably inside the cross-check contract.
MAX_SYMBOLIC_P_POWER = 4


def _partition_contributions(masks: Sequence[int]) -> Iterable[tuple[int, Fraction]]:
    """(p-power, phi) for every admissible partition of one polymer, given
    the hyperedge masks of its copies.

    Two copies are adjacent exactly when their masks intersect, so the
    masks alone decide which blocks are connected, and each block's
    hyperedge union is read off the subset-union table.  Two blocks are
    close exactly when some copy of one shares a hyperedge with some copy
    of the other, i.e. when their unions intersect, and phi is the Ursell
    weight of that closeness graph.  The trivial partition always
    qualifies, with phi 1.
    """
    adj = meeting_masks(masks)
    unions = subset_unions(masks)
    for blocks in set_partitions(len(masks)):
        if all(mask_connected(adj, b) for b in blocks):
            block_unions = [unions[b] for b in blocks]
            power = sum(u.bit_count() for u in block_unions)
            yield power, ursell(SimpleGraph(meeting_masks(block_unions)))


def _copy_graph_type(key: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of the copy graph a walk key describes: the key's
    labels are its vertices and its members, each a two-bit mask, its edges.

    The form is the least sorted tuple of relabelled member masks over the
    relabellings that list the vertices in increasing degree, in any order
    within a degree.  An isomorphism keeps degrees, so isomorphic graphs
    have the same candidates and the same least one, and the form is a
    graph isomorphic to the key's.
    """
    ends = [((m & -m).bit_length() - 1, (m & m - 1).bit_length() - 1) for m in key]
    degree = Counter(chain.from_iterable(ends))
    classes = [[v for v in degree if degree[v] == d] for d in sorted(set(degree.values()))]
    orders = product(*(permutations(c) for c in classes))
    relabellings = ({v: 1 << i for i, v in enumerate(chain.from_iterable(o))} for o in orders)
    return min(tuple(sorted(bit[a] | bit[b] for a, b in ends)) for bit in relabellings)


@cache
def _type_weight(form: tuple[int, ...]) -> dict[int, Fraction]:
    """{p-power: sum of phi} over the admissible partitions of one polymer
    of the given copy-graph type, evaluated once per type per process."""
    weight: dict[int, Fraction] = {}
    for power, phi in _partition_contributions(form):
        weight[power] = weight.get(power, 0) + phi
    return weight


def _cluster_sums(
    keys: dict[tuple[int, ...], Fraction], max_power: int | None
) -> dict[tuple[int, int], Fraction]:
    """{(p-power, size): coefficient} of polymers counted by walk key.

    The keys are merged into copy-graph types, and each type's weight,
    signed by (-1)^size, is scaled by the number of polymers of that type.
    With `max_power` only the partitions of power at most the budget count.
    """
    types: dict[tuple[int, ...], Fraction] = {}
    for key, count in keys.items():
        form = _copy_graph_type(key)
        types[form] = types.get(form, 0) + count
    out: dict[tuple[int, int], Fraction] = {}
    for form, count in types.items():
        size = len(form)
        weight = -count if size & 1 else count
        for power, phi in _type_weight(form).items():
            if max_power is None or power <= max_power:
                out[(power, size)] = out.get((power, size), 0) + weight * phi
    return out


def _orbit_tally(
    d: DependencyGraph,
    sizes: range,
    cap: int | None = None,
    max_p_power: int | None = None,
    label: Callable[[int, tuple[int, ...]], Hashable] | None = None,
    cap_names: tuple[str, str] = ("cluster", "order"),
) -> dict[Hashable, Fraction]:
    """{label: number of polymers} over the polymers whose size is in
    `sizes`, from one walk up to the largest size.  A polymer's label is
    `label(union_edge_mask, walk_key)`, by default its walk-order key
    (`dependency._connected_set_masks`).  A lowest size above the copy
    count has no polymers and walks nothing.

    On the complete host (`d.orbits` set by `dependency_graph_for`) only
    one root per copy orbit is walked.  For a polymer function f that is
    unchanged by relabelling the vertices,

        sum_S f(S) = sum_c sum_{S containing c} f(S) / |S|
                   = sum_O |O| * sum_{S containing rep(O)} f(S) / |S|,

    because the symmetric group maps the sets through one copy of an orbit
    onto the sets through any other.  So a walked set of size k stands for
    exactly |O| / k polymers.  The tally is exact for every such f read off
    the labels, so a label must not change when the vertices are
    relabelled, up to what its reader reads: the copy-graph type of a walk
    key, the vertex span or the p-power of a hyperedge union.  Any other
    graph is walked from every root, and a walked set is one polymer.  The
    weights are tallied as integers over the common denominator `scale`,
    lcm(1..top).

    The cap counts every polymer the walk passes through, at every size up
    to the largest, as `cumulant_sum`'s does: it is hit when the walked
    weight exceeds cap * scale, exactly when that polymer count exceeds
    cap.  The error names the largest size by `cap_names`, (noun, unit):
    cluster terms report their order, moment sums their size.  With
    `max_p_power` the walk prunes the sets whose hyperedge union exceeds
    the budget, and the cap counts the polymers within it.
    """
    low, top = sizes[0], sizes[-1]
    if low > len(d):
        return {}
    if d.orbits is None:
        scale = 1
        groups = [(None, [1] * (top + 1))]
    else:
        scale = math.lcm(*range(1, top + 1))
        groups = [
            ((rep,), [0] + [orbit * scale // k for k in range(1, top + 1)])
            for rep, orbit in d.orbits
        ]
    limit = None if cap is None else cap * scale
    noun, unit = cap_names
    edge_masks = d.copy_edge_masks
    walked = 0
    tally: dict[Hashable, int] = {}
    for roots, weights in groups:
        for _mask, size, emask, key in _connected_set_masks(
            edge_masks, top, edge_budget=max_p_power, roots=roots
        ):
            weight = weights[size]
            walked += weight
            if limit is not None and walked > limit:
                raise CapExceededError(
                    f"{noun} enumeration for {unit} {top} exceeded cap {cap}",
                    cap=cap,
                    **{unit: top},
                )
            if size < low:
                continue
            if label is not None:
                key = label(emask, key)
            tally[key] = tally.get(key, 0) + weight
    return {key: Fraction(c, scale) for key, c in tally.items()}


def expansion_term(
    d: DependencyGraph, order: int, cap: int | None = None, max_p_power: int | None = None
) -> Polynomial:
    """Order-`order` term of the disjoint-cluster expansion, exact in p.

    Unordered cluster enumeration absorbs the 1/|cluster|! of the ordered
    formulation, because disjoint polymers are pairwise distinct.  Polymers
    are counted by copy-graph type, one root per copy orbit on the complete
    host (`_orbit_tally`), and the cap counts polymers.

    With `max_p_power` the term is cut at p^max_p_power.  Every partition
    of a polymer pays at least its hyperedge union, so the walk prunes the
    sets whose union exceeds the budget and only partitions of power at
    most the budget are summed.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    keys = _orbit_tally(d, range(order, order + 1), cap, max_p_power)
    sums = _cluster_sums(keys, max_p_power)
    return Polynomial({power: c for (power, _size), c in sums.items()})


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
    """Sum of joint moments over polymers of exactly the given size.

    Walked like `expansion_term` (`_orbit_tally`), and the cap counts
    polymers.
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    tally = _orbit_tally(
        d,
        range(size, size + 1),
        cap,
        label=lambda emask, _key: emask.bit_count(),
        cap_names=("polymer", "size"),
    )
    return Polynomial(tally)


def cumulant_sum(d: DependencyGraph, k: int, cap: int | None = None) -> Polynomial:
    """Alternating sum of joint cumulants over polymers of size <= k.

    The independent check on the cluster engines.  Every polymer is listed
    by the all-roots walk, even when the graph records orbits, and each
    one's cumulant

        kappa(C) = sum over all set partitions P of C of
                   (-1)^(m-1) (m-1)! prod_{B in P} p^|union of B's hyperedges|

    is summed over every set partition of its members, with no
    connectivity or closeness pruning and no grouping of polymers by type
    or orbit; those are what the cluster engines do, and what this checks.

    Each set partition of range(s), a tuple of block bitmasks
    (`set_partitions`), gets its integer coefficient
    (-1)^s (-1)^(m-1) (m-1)! once per size per call.  Per polymer, the
    subset-union table gives the popcount of each member subset's
    hyperedge union, so a partition's p-power is the sum of its blocks'
    entries.  Coefficients are tallied as integers and turned into
    Fractions once, at the end.  The cap counts polymers.  A polymer of
    more than MAX_PARTITION_ITEMS copies is refused before its size's
    partition row is built (`hypergraph.check_count`, context {size, cap}).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    edge_masks = d.copy_edge_masks
    # built for a size only when a polymer of that size turns up: a row has
    # Bell(size) entries, and k may exceed the largest polymer by far
    signed: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    acc: dict[int, int] = {}
    count = 0
    for mask, size, _emask, _key in _connected_set_masks(edge_masks, k):
        count += 1
        if cap is not None and count > cap:
            raise CapExceededError(
                f"polymer enumeration exceeded cap {cap}", cap=cap, max_size=k
            )
        rows = signed.get(size)
        if rows is None:
            what = "the size of a polymer whose set partitions cumulant_sum lists"
            check_count(size, MAX_PARTITION_ITEMS, "size", what)
            sign = -1 if size & 1 else 1
            rows = signed[size] = [
                (blocks, sign * (-1) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1))
                for blocks in set_partitions(size)
            ]
        unions = subset_unions(edge_masks[i] for i in members(mask))
        pops = [u.bit_count() for u in unions]
        for blocks, coeff in rows:
            power = 0
            for b in blocks:
                power += pops[b]
            acc[power] = acc.get(power, 0) + coeff
    return Polynomial(acc)


# ---------------------------------------------------------------------------
# symbolic series, strategy A: one walk on K_D, binned by vertex span
# ---------------------------------------------------------------------------


def _check_series_args(max_p_power: int, r: int) -> int:
    """The arguments both series strategies accept, r = 3 and a budget b in
    2..MAX_SYMBOLIC_P_POWER, and the vertex-span bound D = r + (b - 1)(r - 2)
    both read (see `interpolated_series_grouped`)."""
    if r != 3:
        raise ValidationError("symbolic closed forms are implemented for r = 3 only")
    if not 2 <= max_p_power <= MAX_SYMBOLIC_P_POWER:
        raise ValidationError(
            f"max_p_power must be in 2..{MAX_SYMBOLIC_P_POWER}, got {max_p_power}"
        )
    return r + (max_p_power - 1) * (r - 2)


def structural_series_grouped(
    max_p_power: int = 4, r: int = 3
) -> dict[tuple[int, int, int], Fraction]:
    """Strategy A: {(n_falling, p_power, cluster_size): coefficient}.

    One budgeted walk on the dependency graph of K_D, D = r + (b - 1)(r - 2)
    the vertex-span bound (see `interpolated_series_grouped`), counts every
    polymer whose hyperedge union is within the budget b; its copies are
    pairs of at most b hyperedges, so its size is at most C(b, 2).  The
    walk is `_orbit_tally`'s, from one root per copy orbit, and each walked
    set is labelled (v, walk key), v the number of vertices its hyperedges
    cover.  The span does not change when the vertices are relabelled, so
    the |O| / k orbit weights count the polymers of each bin exactly: at
    b = 5, 23,124 walked sets on K_7 stand for the 1,050,189 polymers.  A
    polymer on [n] that spans v vertices sits on one of C(n, v) = [n]_v / v!
    vertex sets, and K_D holds C(D, v) of those sets, so bin v's cluster
    sums, divided by C(D, v) * v!, are the coefficients of [n]_v: the
    labelled spanning counts on [v], cut at the budget, over v!.

    Strategy B (`interpolated_series_grouped`) runs the same walk and type
    table on the hosts n = 0..D + 1, so what keeps the two independent is
    span binning on K_D against forward-difference interpolation.
    """
    span = _check_series_args(max_p_power, r)
    d = dependency_graph_for(span, r)

    def spanned(emask: int, key: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return len(set().union(*(d.edges[e] for e in members(emask)))), key

    top = max_p_power * (max_p_power - 1) // 2
    tally = _orbit_tally(d, range(1, top + 1), max_p_power=max_p_power, label=spanned)
    bins: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for (v, key), c in tally.items():
        bins.setdefault(v, {})[key] = c
    out: dict[tuple[int, int, int], Fraction] = {}
    for v, keys in sorted(bins.items()):
        scale = math.comb(span, v) * math.factorial(v)
        for (power, size), c in _cluster_sums(keys, max_p_power).items():
            out[(v, power, size)] = c / scale
    return {k: c for k, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# symbolic series, strategy B: exact per-n evaluation plus interpolation
# ---------------------------------------------------------------------------


def per_n_power_sums(n: int, max_p_power: int, r: int = 3) -> dict[tuple[int, int], Fraction]:
    """{(p_power, cluster_size): coefficient} of all cluster contributions
    with p-power at most max_p_power, at a concrete n.

    These are the expansion terms cut at p^max_p_power, from the key
    tally and type sums `expansion_term` runs, so the samples run on the
    kernel that `expand` runs.  The k copies of a polymer within the
    budget are distinct pairs of the at most max_p_power hyperedges in its
    union, so one walk up to size C(max_p_power, 2) covers every order, and
    a key's length is its size.
    """
    if n < r:
        return {}
    d = dependency_graph_for(n, r)
    top = max(max_p_power * (max_p_power - 1) // 2, 1)
    keys = _orbit_tally(d, range(1, top + 1), max_p_power=max_p_power)
    return {key: c for key, c in _cluster_sums(keys, max_p_power).items() if c}


def _solve_falling_basis(samples: list[tuple[int, Fraction]], degree: int) -> list[Fraction]:
    """Coefficients c_a, a <= degree, of f(n) = sum_a c_a [n]_a from exact
    samples of f at n = 0, 1, 2, ...

    The forward difference of [n]_a is a [n]_(a-1), so c_a = Delta^a f(0) / a!:
    the leading column of the difference table, scaled.  Every sample past
    the first degree + 1 must leave its difference of order > degree at 0.
    """
    if [n for n, _ in samples] != list(range(len(samples))):
        raise ValidationError("interpolation samples must be at n = 0, 1, 2, ...")
    if len(samples) < degree + 1:
        raise ValidationError("not enough interpolation points")
    row = [Fraction(value) for _, value in samples]
    leading = []
    while row:
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if any(leading[degree + 1 :]):
        raise LinhypError("interpolation inconsistent with extra sample")
    return [d / math.factorial(a) for a, d in enumerate(leading[: degree + 1])]


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
    the degree D: the coefficients are fitted on the samples at n = 0..D
    and the one at n = D + 1 is checked against the fit.  The samples at
    n <= r are 0 (no copy fits), so they cost nothing.
    """
    degree = _check_series_args(max_p_power, r)
    ns = list(range(degree + 2))  # degree + 1 fitted, the last checked
    sampled = _sample_power_sums(ns, max_p_power, r)
    keys = sorted({k for s in sampled.values() for k in s})
    out: dict[tuple[int, int, int], Fraction] = {}
    for power, size in keys:
        samples = [(n, sampled[n].get((power, size), Fraction(0))) for n in ns]
        coeffs = _solve_falling_basis(samples, degree)
        for a, c in enumerate(coeffs):
            if c != 0:
                out[(a, power, size)] = c
    return out


def _sample_power_sums(
    ns: list[int], max_p_power: int, r: int
) -> dict[int, dict[tuple[int, int], Fraction]]:
    return {n: per_n_power_sums(n, max_p_power, r) for n in ns}


def symbolic_series(
    max_p_power: int = 4, r: int = 3, cross_check: bool = True
) -> list[SeriesTerm]:
    """Symbolic disjoint-cluster series: all cluster contributions with
    p-power at most max_p_power, as exact terms c * [n]_a * p^b.  It is
    log P's Taylor series through p^3; at p^4 it is (1/8)[n]_4 above it,
    as it has no repeated-copy cluster (-1/2 w(c)^2 per copy).

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
    per copy, on its hyperedge mask in `dependency_graph_for(n, r)`,
    updates a table indexed by union mask.  For n > r every host edge lies
    in some copy, so the mask bits are exactly 0..C(n, r) - 1; at n = r
    there are no copies and the sum is 1.  A pass is one
    `np.subtract.at` from the nonzero entries into their unions with the
    copy, and it reads a copied slice of those sources, so each one gives
    its pre-pass value.  The table entries stay bounded by 2^(edge count),
    so int64 is safe.
    """
    import numpy as np

    ne = check_edge_cap(n, r, INCLUSION_EXCLUSION_EDGE_CAP)
    table = np.zeros(1 << ne, dtype=np.int64)
    table[0] = 1
    for mc in dependency_graph_for(n, r).copy_edge_masks:
        src = np.nonzero(table)[0]
        np.subtract.at(table, src | mc, table[src])
        # entries are signed sums of +-1 over the 2^|E| sub-unions, so the
        # int64 headroom is enormous; guard anyway in case the cap moves
        assert int(np.abs(table).max()) <= 1 << ne
    pop = np.bitwise_count(np.arange(1 << ne, dtype=np.uint32))
    return Polynomial({m: int(table[pop == m].sum()) for m in range(ne + 1)})


def hard_core_polynomial(n: int, r: int) -> Polynomial:
    """Polymer-model partition function: the sum, over families of polymers
    with pairwise-disjoint supports, of the product of their weights times
    p^(edges the supports cover).

    Two host edges conflict when a copy holds both, i.e. when their holder
    masks meet: held[e] is the mask of the copies of
    `dependency_graph_for(n, r)` that hold host edge e (the copy masks'
    bits are the C(n, r) host edges, see `inclusion_exclusion_polynomial`).
    A polymer is a connected set of copies and its support the union of
    their hyperedges.  The copy sets with union exactly E are the spanning
    edge sets of the conflict graph induced on E, `meeting_masks` of E's
    holder masks, so the weight of E, the signed count of the connected
    ones, is the Ursell weight of that graph when it is connected and E
    holds at least two edges, and 0 otherwise (Scott & Sokal, J. Stat.
    Phys. 118, 2005).  z[E], the weight of the families covering exactly
    E, is filled bottom-up from z[{}] = 1 as the sum of weight[S] * z[E - S]
    over the supports S holding E's lowest edge, and Z is the sum of
    z[E] p^|E|.
    """
    ne = check_edge_cap(n, r, HARD_CORE_EDGE_CAP)
    held = [0] * ne
    for c, mask in enumerate(dependency_graph_for(n, r).copy_edge_masks):
        for e in members(mask):
            held[e] |= 1 << c
    size = 1 << ne
    weight = [0] * size
    for support in range(size):
        if support & (support - 1):
            conflict = SimpleGraph(meeting_masks([held[e] for e in members(support)]))
            if conflict.is_connected():
                weight[support] = int(ursell(conflict))
    z = [1] + [0] * (size - 1)
    coeffs = [1] + [0] * ne
    for covered in range(1, size):
        low = covered & -covered
        # the supports inside `covered` that hold its lowest edge, from the
        # largest down; the support of the lowest edge alone weighs 0
        support = covered
        while support != low:
            if weight[support]:
                z[covered] += weight[support] * z[covered ^ support]
            support = (support ^ low) - 1 & covered
        coeffs[covered.bit_count()] += z[covered]
    return Polynomial(dict(enumerate(coeffs)))


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
