"""Truncated expansion series over disjoint-polymer clusters.

Per-instance (fixed n) evaluation sums, over polymers and their partitions
into connected blocks, the weight

    phi(closeness graph) * (-1)^(total copies) * product of block moments,

grouped either by cluster size (the truncation axis of the log-probability
approximation) or by the p-power of the contribution (what the symbolic
series is organised around).

A polymer's contribution is a function of its *shape* (see `_shape`).
`expansion_term` and both symbolic-series strategies count polymers by
shape, and `_shape_sums` evaluates each distinct shape's partition sum
once (47 shapes for the 79,380 order-4 polymers at n = 6, r = 3).

On the complete host the contribution is also unchanged by relabelling
the vertices, so `expansion_term`, `moment_sum` and the per-n samples walk
only the polymers through one root per copy orbit and weigh each by
|orbit| / size (see `expansion_term`); at n = 6, r = 3 that is 3,528
walked order-4 sets in 26 shapes instead of 79,380 polymers in 47.
`cumulant_sum` walks every root and stays the independent check.

The symbolic-in-n series is produced two independent ways that must agree:

* Strategy A, structural enumeration: labelled spanning structures on a
  canonical vertex set [v], grown on the connected-set walk over the
  conflict graph of the triples on [v], are counted directly, so a class
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
    _mask_connected,
    _mask_to_members,
    _root_groups,
    _walk_scale,
    dependency_graph_for,
)
from .errors import CapExceededError, LinhypError, ValidationError
from .graphcalc import SimpleGraph, ursell
from .hypergraph import enumerate_forbidden_copies
from .polynomial import Polynomial, SeriesTerm, falling_factorial

#: Hyperedge-count cap for the alternating-sum and polymer-model forms.
INCLUSION_EXCLUSION_EDGE_CAP = 20
HARD_CORE_EDGE_CAP = 12

#: Symbolic-series budget.  Vertex spans reach max_p_power + 2, the
#: structural strategy walks the conflict-connected sets of at most
#: max_p_power triples on [v], and the interpolation needs max_p_power + 4
#: exact samples, up to n = max_p_power + 6.  A sample walks from one root
#: per copy orbit, and a set through the root spans at most
#: max_p_power - 2 vertices beyond the root's 4, so its cost grows like
#: n^(max_p_power-2); 4 keeps both strategies comfortably inside the
#: cross-check contract.
MAX_SYMBOLIC_P_POWER = 4

_phi_cache: dict[tuple[int, int], Fraction] = {}


def _phi_of_blocks(unions: Sequence[int]) -> Fraction:
    """Ursell weight of the closeness graph of disjoint connected blocks,
    given each block's hyperedge union.

    Disjoint blocks are close exactly when some copy of one shares a
    hyperedge with some copy of the other, i.e. when their unions
    intersect.  Two-block clusters dominate; they short-circuit to -1.
    """
    m = len(unions)
    if m == 2:
        if not unions[0] & unions[1]:
            raise LinhypError("two-block partition of a connected set must be close")
        return Fraction(-1)
    key_mask = 0
    bit = 0
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            if unions[i] & unions[j]:
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
    masks: Sequence[int],
    union_power: int,
    max_power: int | None,
) -> Iterable[tuple[int, Fraction]]:
    """(p-power, phi) for every admissible partition of one polymer, given
    the hyperedge masks of its copies.

    Two copies are adjacent exactly when their masks intersect, so the
    masks alone decide which blocks are connected.  The trivial partition
    always qualifies.  Any finer partition repeats at least one shared
    hyperedge across blocks, so its power is at least union_power + 1;
    when a power ceiling is given this prunes almost all partition
    enumeration.
    """
    size = len(masks)
    yield (union_power, Fraction(1))
    if size == 1:
        return
    if max_power is not None and union_power + 1 > max_power:
        return
    adj = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if masks[i] & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    for part in set_partitions(range(size)):
        if len(part) == 1:
            continue
        unions = []
        power = 0
        for block in part:
            bm = 0
            for i in block:
                bm |= masks[i]
            unions.append(bm)
            power += bm.bit_count()
        if max_power is not None and power > max_power:
            continue
        if not all(_mask_connected(adj, sum(1 << i for i in block)) for block in part):
            continue
        yield (power, _phi_of_blocks(unions))


def _shape(mask: int, copy_edges: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Shape of the copy set `mask`: its members' hyperedge masks, in
    member-index order, with hyperedge ids relabelled by first appearance.
    `copy_edges[i]` holds copy i's hyperedges as one-bit masks.

    A polymer's contribution is a function of its shape, because everything
    it is computed from is read off the masks and is unchanged by renaming
    hyperedges: copy adjacency (masks intersect), each block's p-power
    (popcount of the union of its members' masks) and the closeness of two
    blocks (their unions intersect), hence phi.
    """
    labels: dict[int, int] = {}
    shape = []
    while mask:
        low = mask & -mask
        mask ^= low
        relabelled = 0
        for e in copy_edges[low.bit_length() - 1]:
            relabelled |= labels.setdefault(e, 1 << len(labels))
        shape.append(relabelled)
    return tuple(shape)


def _edge_bits(edge_masks: Sequence[int]) -> list[tuple[int, ...]]:
    """Each copy's hyperedges as one-bit masks, the `copy_edges` of `_shape`."""
    return [tuple(1 << e for e in _mask_to_members(em)) for em in edge_masks]


def _shape_sums(
    shapes: dict[tuple[int, ...], int], max_power: int | None
) -> dict[tuple[int, int], Fraction]:
    """{(p-power, size): coefficient} of polymers counted by shape.

    Each distinct shape's admissible partitions are evaluated once, signed
    by (-1)^size and scaled by the number of polymers of that shape.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for shape, multiplicity in shapes.items():
        union = 0
        for em in shape:
            union |= em
        size = len(shape)
        weight = -multiplicity if size & 1 else multiplicity
        for power, phi in _partition_contributions(shape, union.bit_count(), max_power):
            key = (power, size)
            out[key] = out.get(key, 0) + weight * phi
    return out


def expansion_term(d: DependencyGraph, order: int, cap: int | None = None) -> Polynomial:
    """Order-`order` term of the disjoint-cluster expansion, exact in p.

    Unordered cluster enumeration absorbs the 1/|cluster|! of the ordered
    formulation, because disjoint polymers are pairwise distinct.  Polymers
    are counted by shape.

    On the complete host (`d.orbits` set by `dependency_graph_for`) only
    one root per copy orbit is walked.  For a polymer function f that is
    unchanged by relabelling the vertices, as the contribution is,

        sum_S f(S) = sum_c sum_{S containing c} f(S) / |S|
                   = sum_O |O| * sum_{S containing rep(O)} f(S) / |S|,

    because the symmetric group maps the sets through one copy of an orbit
    onto the sets through any other.  So a walked set of size k carries the
    exact weight |O| / k.  The cap still counts polymers: the walked
    weights sum to k times the polymer count, and the cap is hit when that
    sum exceeds cap * k, exactly when the polymer count exceeds cap.  Any
    other graph is walked from every root with weight 1.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    copy_edges = _edge_bits(d.copy_edge_masks)
    scale = _walk_scale(d, order)
    shapes: dict[tuple[int, ...], int] = {}
    walked = 0
    for roots, weight in _root_groups(d):
        for mask, size, _emask in _connected_set_masks(d.adj_masks, order, roots=roots):
            if size != order:
                continue
            walked += weight
            if cap is not None and walked > cap * scale:
                raise CapExceededError(
                    f"cluster enumeration for order {order} exceeded cap {cap}",
                    cap=cap,
                    order=order,
                )
            key = _shape(mask, copy_edges)
            shapes[key] = shapes.get(key, 0) + weight
    multiplicities = {key: Fraction(c, scale) for key, c in shapes.items()}
    sums = _shape_sums(multiplicities, None)
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

    Walked like `expansion_term`: one root per orbit on the complete host,
    and the cap counts polymers.
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    scale = _walk_scale(d, size)
    acc: dict[int, int] = {}
    walked = 0
    for roots, weight in _root_groups(d):
        for _mask, s, emask in _connected_set_masks(
            d.adj_masks, size, edge_masks=d.copy_edge_masks, roots=roots
        ):
            if s != size:
                continue
            walked += weight
            if cap is not None and walked > cap * scale:
                raise CapExceededError(
                    f"polymer enumeration for size {size} exceeded cap {cap}",
                    cap=cap,
                    size=size,
                )
            power = emask.bit_count()
            acc[power] = acc.get(power, 0) + weight
    return Polynomial({power: Fraction(c, scale) for power, c in acc.items()})


def cumulant_sum(d: DependencyGraph, k: int, cap: int | None = None) -> Polynomial:
    """Alternating sum of joint cumulants over polymers of size <= k.

    The independent check on the cluster engines: per polymer, over all set
    partitions, on the all-roots walk even when the graph records orbits.
    """
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


def _spanning_triple_sets(v: int, max_edges: int) -> Iterator[tuple[int, ...]]:
    """Vertex masks of every set of 2..max_edges triples on [v] that spans
    [v] and is connected under conflict (two triples sharing 2 vertices).

    The sets are the connected sets of the conflict graph on the triples,
    walked with each triple's vertex mask as its edge mask, so the union
    the walk reports is the set's vertex span.
    """
    triples = [sum(1 << u for u in t) for t in combinations(range(v), 3)]
    conflict = [
        sum(1 << j for j, b in enumerate(triples) if j != i and (a & b).bit_count() >= 2)
        for i, a in enumerate(triples)
    ]
    full = (1 << v) - 1
    for mask, size, span in _connected_set_masks(conflict, max_edges, edge_masks=triples):
        if size >= 2 and span == full:
            yield tuple(triples[i] for i in _mask_to_members(mask))


_structural_memo: dict[tuple[int, int], dict] = {}
_interpolated_memo: dict[tuple[int, int], dict] = {}


def structural_series_grouped(
    max_p_power: int = 4, r: int = 3
) -> dict[tuple[int, int, int], Fraction]:
    """Strategy A: {(n_falling, p_power, cluster_size): coefficient}.

    Every labelled spanning structure on [v] is counted exactly once under
    its exact hyperedge union, so the coefficient of [n]_v is the weighted
    labelled count divided by v!.  The unions are the sets from
    `_spanning_triple_sets`, and the structures over one union are its
    copy sets (conflicting pairs of its triples) that cover every triple.
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
        shapes: dict[tuple[int, ...], int] = {}
        for edge_set in _spanning_triple_sets(v, max_p_power):
            # the copies of the structure: conflicting pairs of its triples
            copy_edges = [
                (1 << i, 1 << j)
                for i, j in combinations(range(len(edge_set)), 2)
                if (edge_set[i] & edge_set[j]).bit_count() >= 2
            ]
            copy_masks = [a | b for a, b in copy_edges]
            adj = [
                sum(1 << j for j, b in enumerate(copy_masks) if j != i and a & b)
                for i, a in enumerate(copy_masks)
            ]
            full_edges = (1 << len(edge_set)) - 1
            for mask, _size, emask in _connected_set_masks(
                adj, len(copy_masks), edge_masks=copy_masks
            ):
                if emask == full_edges:
                    key = _shape(mask, copy_edges)
                    shapes[key] = shapes.get(key, 0) + 1
        vfact = math.factorial(v)
        for (power, size), c in _shape_sums(shapes, max_p_power).items():
            out[(v, power, size)] = c / vfact
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
    polynomial in n.  A finer partition costs at least one hyperedge more
    than the polymer's union, so only polymers of size > 1 whose union is
    under the budget can have one; those are counted by shape, and every
    other polymer adds its trivial partition to a signed integer tally.
    The complete host is walked from one root per copy orbit, as in
    `expansion_term`, and a walked set of size k weighs |orbit| / k.
    """
    if n < r:
        return {}
    d = dependency_graph_for(n, r)
    max_size = max(max_p_power * (max_p_power - 1) // 2, 1)
    copy_edges = _edge_bits(d.copy_edge_masks)
    tally: dict[tuple[int, int], int] = {}
    shapes: dict[tuple[int, ...], int] = {}
    for roots, weight in _root_groups(d):
        for mask, size, emask in _connected_set_masks(
            d.adj_masks,
            max_size,
            edge_masks=d.copy_edge_masks,
            edge_budget=max_p_power,
            roots=roots,
        ):
            m_u = emask.bit_count()
            if size > 1 and m_u < max_p_power:
                key = _shape(mask, copy_edges)
                shapes[key] = shapes.get(key, 0) + weight
            else:
                key = (m_u, size)
                tally[key] = tally.get(key, 0) + (-weight if size & 1 else weight)
    out = {key: Fraction(c, _walk_scale(d, key[1])) for key, c in tally.items()}
    multiplicities = {
        key: Fraction(c, _walk_scale(d, len(key))) for key, c in shapes.items()
    }
    for key, c in _shape_sums(multiplicities, max_p_power).items():
        out[key] = out.get(key, 0) + c
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
