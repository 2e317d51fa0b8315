"""Simple-graph calculus: Ursell weights and chromatic polynomials.

The Ursell weight of a connected graph is the alternating sum, over its
connected spanning subgraphs, of (-1)^(number of edges).  It equals the
coefficient of the linear term of the chromatic polynomial, which is how
the production path computes it; a direct spanning-subgraph summation is
kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .combinat import set_partitions
from .errors import ValidationError
from .polynomial import Polynomial


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless simple graph on vertices {1..v}; edges as sorted pairs."""

    v: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValidationError(f"loop at vertex {a}")
            if not (1 <= a <= self.v and 1 <= b <= self.v):
                raise ValidationError(f"edge ({a},{b}) outside 1..{self.v}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, v: int, edges) -> "SimpleGraph":
        return cls(v=v, edges=frozenset(tuple(e) for e in edges))

    @classmethod
    def complete(cls, v: int) -> "SimpleGraph":
        return cls(v=v, edges=frozenset(combinations(range(1, v + 1), 2)))

    def adjacency_masks(self) -> list[int]:
        """Bit v-1 of masks[u-1] set iff u ~ v."""
        masks = [0] * self.v
        for a, b in self.edges:
            masks[a - 1] |= 1 << (b - 1)
            masks[b - 1] |= 1 << (a - 1)
        return masks

    def is_connected(self) -> bool:
        if self.v <= 1:
            return True
        masks = self.adjacency_masks()
        reach = 1
        full = (1 << self.v) - 1
        while True:
            new = reach
            m = reach
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                new |= masks[i]
            if new == reach:
                return reach == full
            reach = new


# The memo table is keyed on the labelled minor (v, edge set).  The labelled
# key space for the graphs this package meets (<= 8 vertices) is tiny, and
# avoiding permutation canonicalisation keeps the exhaustive test suites
# and the expansion hot loops fast.
_chromatic_memo: dict[tuple[int, frozenset], Polynomial] = {}


def _pick_edge(v: int, edges: frozenset[tuple[int, int]]) -> tuple[int, int]:
    """An edge at a maximum-degree vertex; keeps minors small."""
    deg = [0] * (v + 1)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    hub = max(range(1, v + 1), key=lambda u: deg[u])
    for a, b in edges:
        if a == hub or b == hub:
            return (a, b)
    raise AssertionError("hub has degree > 0 but no incident edge found")


def _chromatic(v: int, edges: frozenset[tuple[int, int]]) -> Polynomial:
    if not edges:
        return Polynomial({v: 1})
    key = (v, edges)
    cached = _chromatic_memo.get(key)
    if cached is not None:
        return cached
    a, b = _pick_edge(v, edges)
    deleted = edges - {(a, b)}
    # contract b into a, merge multi-edges, relabel down to {1..v-1}
    relabel = {}
    nxt = 1
    for u in range(1, v + 1):
        if u == b:
            continue
        relabel[u] = nxt
        nxt += 1
    relabel[b] = relabel[a]
    contracted = set()
    for x, y in deleted:
        cx, cy = relabel[x], relabel[y]
        if cx != cy:
            contracted.add((min(cx, cy), max(cx, cy)))
    result = _chromatic(v, deleted) - _chromatic(v - 1, frozenset(contracted))
    _chromatic_memo[key] = result
    return result


def chromatic_polynomial(g: SimpleGraph) -> Polynomial:
    """Exact chromatic polynomial by deletion and contraction, memoised on
    labelled minors."""
    if g.v < 1:
        raise ValidationError("graph needs at least one vertex")
    return _chromatic(g.v, g.edges)


def chromatic_via_whitney(g: SimpleGraph) -> Polynomial:
    """Rank-sum form: sum over edge subsets of (-1)^|E| lambda^(components).

    Oracle implementation; exponential in the edge count, capped at 20.
    """
    edges = sorted(g.edges)
    e = len(edges)
    if e > 20:
        raise ValidationError(f"edge budget exceeded: {e} > 20")
    out: dict[int, int] = {}
    for sub in range(1 << e):
        masks = [0] * g.v
        m = sub
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            a, b = edges[i]
            masks[a - 1] |= 1 << (b - 1)
            masks[b - 1] |= 1 << (a - 1)
        comps = 0
        seen = 0
        for s in range(g.v):
            if seen >> s & 1:
                continue
            comps += 1
            reach = 1 << s
            while True:
                new = reach
                mm = reach
                while mm:
                    i = (mm & -mm).bit_length() - 1
                    mm &= mm - 1
                    new |= masks[i]
                if new == reach:
                    break
                reach = new
            seen |= reach
        out[comps] = out.get(comps, 0) + (-1 if sub.bit_count() & 1 else 1)
    return Polynomial(out)


def chromatic_via_partitions(g: SimpleGraph) -> Polynomial:
    """Factorial form: sum over k of (independent k-partitions) * [lambda]_k."""
    if g.v > 10:
        raise ValidationError(f"vertex budget exceeded: {g.v} > 10")
    masks = g.adjacency_masks()

    def independent(block: tuple[int, ...]) -> bool:
        bm = 0
        for u in block:
            bm |= 1 << (u - 1)
        return all(not (masks[u - 1] & bm) for u in block)

    alpha: dict[int, int] = {}
    for part in set_partitions(tuple(range(1, g.v + 1))):
        if all(independent(b) for b in part):
            alpha[len(part)] = alpha.get(len(part), 0) + 1
    out = Polynomial.zero()
    falling = Polynomial.one()
    prev_k = 0
    for k in sorted(alpha):
        for i in range(prev_k, k):
            falling = falling * Polynomial({1: 1, 0: -i})
        prev_k = k
        out = out + falling * alpha[k]
    return out


def ursell(g: SimpleGraph) -> Fraction:
    """Ursell weight of a connected graph, via the chromatic linear term.

    Disconnected input is an upstream bug and rejected rather than mapped
    to zero.
    """
    if not g.is_connected():
        raise ValidationError("Ursell weight is only used on connected graphs")
    return chromatic_polynomial(g).coeff(1)


def ursell_direct(g: SimpleGraph) -> Fraction:
    """Alternating sum over connected spanning edge subsets, enumerated one
    subset at a time.  Independent oracle for `ursell`; switches to a
    vectorised scan above 16 edges (still the same direct sum)."""
    if not g.is_connected():
        raise ValidationError("Ursell weight is only used on connected graphs")
    edges = sorted(g.edges)
    e = len(edges)
    if e > 24:
        raise ValidationError(f"edge budget exceeded: {e} > 24")
    if e > 16:
        return _ursell_direct_vectorised(g.v, edges)
    total = 0
    full = (1 << g.v) - 1
    for sub in range(1 << e):
        masks = [0] * g.v
        m = sub
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            a, b = edges[i]
            masks[a - 1] |= 1 << (b - 1)
            masks[b - 1] |= 1 << (a - 1)
        reach = 1
        while True:
            new = reach
            mm = reach
            while mm:
                i = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                new |= masks[i]
            if new == reach:
                break
            reach = new
        if reach == full:
            total += -1 if sub.bit_count() & 1 else 1
    return Fraction(total)


def _ursell_direct_vectorised(v: int, edges: list[tuple[int, int]]) -> Fraction:
    import numpy as np

    e = len(edges)
    subs = np.arange(1 << e, dtype=np.uint32)
    nbr = [np.zeros(1 << e, dtype=np.uint32) for _ in range(v)]
    for i, (a, b) in enumerate(edges):
        present = (subs >> np.uint32(i)) & np.uint32(1)
        nbr[a - 1] |= present << np.uint32(b - 1)
        nbr[b - 1] |= present << np.uint32(a - 1)
    reach = np.ones(1 << e, dtype=np.uint32)
    for _ in range(v - 1):
        acc = reach.copy()
        for u in range(v):
            has = (reach >> np.uint32(u)) & np.uint32(1)
            acc |= has * nbr[u]
        reach = acc
    full = np.uint32((1 << v) - 1)
    connected = reach == full
    signs = 1 - 2 * (np.bitwise_count(subs).astype(np.int64) & 1)
    return Fraction(int(signs[connected].sum()))


def complete_graph_ursell(m: int) -> Fraction:
    """Closed form (-1)^(m-1) (m-1)! for the complete graph on m vertices."""
    if m < 1:
        raise ValidationError("need at least one vertex")
    return Fraction((-1) ** (m - 1) * math.factorial(m - 1))


def independent_partition_identity(g: SimpleGraph) -> bool:
    """For a connected graph: summing complete-graph Ursell weights over
    partitions of the vertex set into independent sets reproduces the
    Ursell weight of the graph itself."""
    if g.v > 7:
        raise ValidationError("identity check capped at 7 vertices")
    if not g.is_connected():
        raise ValidationError("identity is stated for connected graphs")
    masks = g.adjacency_masks()

    def independent(block: tuple[int, ...]) -> bool:
        bm = 0
        for u in block:
            bm |= 1 << (u - 1)
        return all(not (masks[u - 1] & bm) for u in block)

    lhs = Fraction(0)
    for part in set_partitions(tuple(range(1, g.v + 1))):
        if all(independent(b) for b in part):
            lhs += complete_graph_ursell(len(part))
    return lhs == ursell(g)


def all_graphs(v: int):
    """Every labelled graph on {1..v}, streamed."""
    pairs = list(combinations(range(1, v + 1), 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(
            v, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def connected_graphs(v: int):
    """Every connected labelled graph on {1..v}, streamed."""
    for g in all_graphs(v):
        if g.is_connected():
            yield g
