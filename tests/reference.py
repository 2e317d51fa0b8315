"""Reference API that only the tests use: an explicit hypergraph value,
the linearity test on it, the brute-force count of linear edge subsets,
the brute-force density measures of the forbidden family, two readouts of
a symbolic series, strategy A's series by its two-level walk over the
triple sets of each vertex span, the pairwise adjacency of a dependency
graph, the connectivity of a copy set in it, the signed count of its
connected copy sets by hyperedge union, a forbidden copy built from its
two edges, the vertex span of a copy and the list-form set partitions of
any items.  No engine or CLI path calls these, so they live here,
outside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence, TypeVar

from linhyp.combinat import mask_connected
from linhyp.dependency import DependencyGraph, _connected_set_masks
from linhyp.errors import ValidationError
from linhyp.expansion import _cluster_sums
from linhyp.hypergraph import ForbiddenCopy
from linhyp.polynomial import Polynomial, SeriesTerm, falling_factorial, falling_factorial_poly

T = TypeVar("T")


@dataclass(frozen=True)
class Hypergraph:
    """r-uniform hypergraph on vertex set {1..n} with a canonical edge order."""

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"vertex count must be positive, got {self.n}")
        if self.r < 3:
            raise ValidationError(f"uniformity must be >= 3, got {self.r}")
        norm = []
        for e in self.edges:
            t = tuple(sorted(e))
            if len(t) != self.r or len(set(t)) != self.r:
                raise ValidationError(f"edge {e!r} does not have {self.r} distinct vertices")
            if t[0] < 1 or t[-1] > self.n:
                raise ValidationError(f"edge {e!r} has vertices outside 1..{self.n}")
            norm.append(t)
        canon = tuple(sorted(set(norm)))
        if len(canon) != len(norm):
            raise ValidationError("duplicate edges")
        object.__setattr__(self, "edges", canon)


def is_linear(h: Hypergraph) -> bool:
    """True iff every pair of distinct edges shares at most one vertex.

    Checked by counting coverage of vertex pairs: two edges overlap in >= 2
    vertices exactly when some vertex pair lies in both.
    """
    seen: set[tuple[int, int]] = set()
    for e in h.edges:
        for pair in combinations(e, 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def linear_subset_counts(n: int, r: int) -> list[int]:
    """L_m for m = 0..C(n,r): the linear m-edge subsets of the complete
    r-graph on [n], by a numpy scan of all 2^C(n,r) subsets.

    A subset is linear iff the subset minus its lowest edge is linear and
    the lowest edge conflicts with nothing in the rest.
    """
    import numpy as np

    sets = [frozenset(e) for e in combinations(range(1, n + 1), r)]
    ne = len(sets)
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
    return np.bincount(pop[linear], minlength=ne + 1).tolist()


def family_densities(r: int) -> tuple[Fraction, Fraction]:
    """Density measures of the forbidden family, by brute-force minimisation.

    Returns (m_star, d) where, for each member G (one per overlap size t),

        m_star(G) = min over subgraphs H of G with at least one edge and
                    fewer vertices than G of (e_G - e_H) / (v_G - v_H),
        d(G)      = e_G / v_G,

    and the family value is the minimum over members.  The closed forms
    1/(r-2) and 1/(r-1) are asserted against this in the tests.
    """
    if r < 3:
        raise ValidationError(f"uniformity must be >= 3, got {r}")
    m_star = None
    d_min = None
    for t in range(2, r):
        # canonical member: edges {1..r} and {1..t, r+1..2r-t}
        e_a = tuple(range(1, r + 1))
        e_b = tuple(range(1, t + 1)) + tuple(range(r + 1, 2 * r - t + 1))
        v_g = 2 * r - t
        e_g = 2
        d_g = Fraction(e_g, v_g)
        d_min = d_g if d_min is None else min(d_min, d_g)
        vertices = list(range(1, v_g + 1))
        for edge_subset in ((e_a,), (e_b,), (e_a, e_b)):
            covered = set()
            for e in edge_subset:
                covered.update(e)
            free = [v for v in vertices if v not in covered]
            # any vertex superset of the covered set is a valid subgraph
            for k in range(len(free) + 1):
                for extra in combinations(free, k):
                    v_h = len(covered) + len(extra)
                    if v_h == v_g:
                        continue
                    ratio = Fraction(e_g - len(edge_subset), v_g - v_h)
                    m_star = ratio if m_star is None else min(m_star, ratio)
    assert m_star is not None and d_min is not None
    return m_star, d_min


def evaluate_series(terms: Iterable[SeriesTerm], n: int) -> Polynomial:
    """Collapse SeriesTerms at a concrete n into a polynomial in p."""
    out = Polynomial.zero()
    for t in terms:
        out = out + Polynomial({t.p_power: t.coeff * falling_factorial(n, t.n_falling)})
    return out


def series_monomial_coeff(terms: Iterable[SeriesTerm], n_power: int, p_power: int) -> Fraction:
    """Coefficient of n^n_power p^p_power after expanding every [n]_a."""
    total = Fraction(0)
    for t in terms:
        if t.p_power == p_power:
            total += t.coeff * falling_factorial_poly(t.n_falling).coeff(n_power)
    return total


def structural_series_by_triple_sets(max_p_power: int) -> dict[tuple[int, int, int], Fraction]:
    """{(n_falling, p_power, cluster_size): coefficient} of the r = 3
    cluster series cut at p^max_p_power, by two walks per vertex span.

    On [v], v = 4..max_p_power + 2, every combination of 2..max_p_power
    triples is kept when the triples cover [v] and are connected under
    sharing 2 vertices.  The structures over one such triple set are the
    connected sets of its copies (the pairs of its triples that share 2
    vertices) that cover every triple, counted by walk key; the labelled
    count over v! is the coefficient of [n]_v.
    """
    out: dict[tuple[int, int, int], Fraction] = {}
    for v in range(4, max_p_power + 3):
        triples = [frozenset(t) for t in combinations(range(v), 3)]
        keys: dict[tuple[int, ...], int] = {}
        for k in range(2, max_p_power + 1):
            for edge_set in combinations(triples, k):
                if frozenset().union(*edge_set) != frozenset(range(v)):
                    continue
                copy_masks = [
                    (1 << i) | (1 << j)
                    for i, j in combinations(range(k), 2)
                    if len(edge_set[i] & edge_set[j]) >= 2
                ]
                adj = [sum(m ^ (1 << i) for m in copy_masks if m >> i & 1) for i in range(k)]
                if not mask_connected(adj, (1 << k) - 1):
                    continue
                for _mask, _size, emask, key in _connected_set_masks(copy_masks, len(copy_masks)):
                    if emask == (1 << k) - 1:
                        keys[key] = keys.get(key, 0) + 1
        for (power, size), c in _cluster_sums(keys, max_p_power).items():
            if c:
                out[(v, power, size)] = c / math.factorial(v)
    return out


def adjacent(d: DependencyGraph, i: int, j: int) -> bool:
    """True iff copies i and j of d are distinct and share a hyperedge."""
    return i != j and bool(set(d.copies[i].edge_pair) & set(d.copies[j].edge_pair))


def adjacency(d: DependencyGraph) -> list[int]:
    """Neighbour bitmask of every copy of d, pair by pair from the copies'
    hyperedges, independent of the package's walk and `dump_adjacency`."""
    return [sum(1 << j for j in range(len(d)) if adjacent(d, i, j)) for i in range(len(d))]


def is_connected(d: DependencyGraph, members: Sequence[int]) -> bool:
    """True iff the copies `members` induce a non-empty connected subgraph of d."""
    if not members:
        return False
    local = [sum(1 << b for b, y in enumerate(members) if adjacent(d, x, y)) for x in members]
    return mask_connected(local, (1 << len(members)) - 1)


def connected_copy_set_counts(d: DependencyGraph) -> dict[int, int]:
    """{hyperedge union mask: sum of (-1)^|C| over the connected copy sets C
    of d with exactly that union}, by listing all 2^len(d) copy sets, with
    adjacency from `adjacency(d)`."""
    adj = adjacency(d)
    unions = [0] * (1 << len(d))
    counts: dict[int, int] = {}
    for members in range(1, 1 << len(d)):
        low = members & -members
        unions[members] = unions[members ^ low] | d.copy_edge_masks[low.bit_length() - 1]
        if mask_connected(adj, members):
            sign = -1 if members.bit_count() % 2 else 1
            counts[unions[members]] = counts.get(unions[members], 0) + sign
    return counts


def forbidden_copy(a: Sequence[int], b: Sequence[int]) -> ForbiddenCopy:
    """The copy of two r-sets that share 2..r-1 vertices, stored in the
    canonical order e1 < e2; any other pair is a ValidationError."""
    a, b = tuple(sorted(a)), tuple(sorted(b))
    if a == b:
        raise ValidationError("a forbidden copy needs two distinct edges")
    if len(a) != len(b):
        raise ValidationError("edges of different sizes")
    t = len(set(a) & set(b))
    if not 2 <= t <= len(a) - 1:
        raise ValidationError(f"edges share {t} vertices, need 2..{len(a) - 1}")
    return ForbiddenCopy(e1=min(a, b), e2=max(a, b), t=t)


def span(c: ForbiddenCopy) -> tuple[int, ...]:
    """The sorted vertices of the copy's two hyperedges."""
    return tuple(sorted(set(c.e1) | set(c.e2)))


def set_partitions(items: Sequence[T]) -> Iterator[list[tuple[T, ...]]]:
    """All set partitions of `items`, as lists of blocks (tuples).

    Enumerated via restricted-growth strings in lexicographic order, the
    order of the package's block-mask table `linhyp.combinat.set_partitions`.
    The empty sequence has exactly one partition: the empty one.
    """
    n = len(items)
    if n == 0:
        yield []
        return
    # rgs[i] = block index of items[i]; rgs[0] = 0; rgs[i] <= max(rgs[:i]) + 1
    rgs = [0] * n
    maxes = [0] * n  # maxes[i] = max(rgs[:i+1])
    while True:
        nblocks = maxes[n - 1] + 1
        blocks: list[list[T]] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(items[i])
        yield [tuple(b) for b in blocks]
        # advance to the next restricted-growth string
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]
