"""The family of overlapping edge pairs in the complete r-uniform hypergraph.

A hypergraph is *linear* when every two hyperedges meet in at most one
vertex.  The obstructions are therefore pairs of r-edges sharing between 2
and r-1 vertices; we call such a pair a *forbidden copy*.  Everything
downstream (dependency graph, expansions) is built on the list of all
forbidden copies inside the complete r-graph on [n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceededError, ValidationError

#: The most digits of an edge count C(n, r) that is computed exactly; every
#: cap is far below a larger one (math.comb(10^6, 5 * 10^5), 301,027
#: digits, alone takes over 10 s), so `edge_count` refuses it at once.
EXACT_COUNT_DIGITS = 100_000

#: Ceiling on the forbidden copies of one host (r = 3 passes it at n = 25).
#: It bounds time, not memory: a DependencyGraph holds one hyperedge mask
#: per copy, but the copies come from a scan over all pairs of the C(n, r)
#: edges.  At n = 24, r = 3 (63,756 copies) the graph took 0.5-0.8 s to
#: build and `expand 24 3 --k 2` 0.9-1.4 s (8 runs on 2 shared cores).
COPY_CAP = 1 << 16


@dataclass(frozen=True, order=True)
class ForbiddenCopy:
    """Unordered pair of r-edges meeting in t vertices, 2 <= t <= r-1.

    Stored with e1 < e2 lexicographically so copy lists have one canonical
    order across runs.
    """

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    t: int

    @property
    def edge_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.e1, self.e2)


def check_host(n: int, r: int) -> None:
    """Raise ValidationError unless r >= 3 and n >= r, the complete hosts
    every engine accepts."""
    if r < 3:
        raise ValidationError(f"uniformity must be >= 3, got {r}")
    if n < r:
        raise ValidationError(f"need n >= r, got n={n}, r={r}")


def count_text(count: int) -> str:
    """str(count), or its size as a power of ten when it has more digits
    than the interpreter's int-to-str limit allows."""
    try:
        return str(count)
    except ValueError:
        return f"about 10^{math.log10(count):.1f}"


def log10_edges_at_least(n: int, r: int) -> int:
    """A lower bound on log10 C(n, r) from bit lengths alone, for any
    n >= r >= 0: with k = min(r, n - r), C(n, r) >= (n/k)^k, and n/k is at
    least 2 and at least 2^(len(n) - 1 - len(k)); 0.301 < log10 2."""
    k = min(r, n - r)
    return k * max(1, n.bit_length() - 1 - k.bit_length()) * 301 // 1000


def edge_count(n: int, r: int, cap: int, /, **context) -> int:
    """C(n, r) for a check against `cap`, computed only when it has at most
    EXACT_COUNT_DIGITS digits.  The judge is the larger of log10 C(n, r)
    from math.lgamma and `log10_edges_at_least`: past lgamma's float range
    there is no estimate, and near it lgamma(n + 1) and lgamma(n - r + 1)
    can round to the same float, so the estimate reads 0 for a count of
    any size (n = 10^300, r = 10^10).  A larger count raises
    CapExceededError at once, with context {edges_log10} when the estimate
    decides, {edges_log10_at_least} when the bound does, and `context`."""
    try:
        log10 = (math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)) / math.log(10)
        size, bound = f"about 10^{log10:.1f}", {"edges_log10": round(log10, 1)}
    except OverflowError:  # n is past lgamma's float range
        log10 = -math.inf
    at_least = log10_edges_at_least(n, r)
    if at_least > log10:
        log10 = at_least
        size, bound = f"at least 10^{count_text(log10)}", {"edges_log10_at_least": log10}
    if log10 >= EXACT_COUNT_DIGITS:
        raise CapExceededError(
            f"C({n},{r}) is {size}, too large to count, and over the cap of {cap}",
            **bound,
            **context,
        )
    return math.comb(n, r)


def check_edge_cap(n: int, r: int, cap: int) -> int:
    """C(n, r), the edges of a host that `check_host` accepts; a count
    over `cap` raises CapExceededError with context {edges} (or
    {edges_log10} or {edges_log10_at_least}, see `edge_count`), before any
    edge is listed."""
    check_host(n, r)
    edges = edge_count(n, r, cap)
    if edges > cap:
        raise CapExceededError(
            f"C({n},{r}) = {count_text(edges)} edges exceeds the {cap}-edge cap",
            edges=edges,
        )
    return edges


def _copy_count(n: int, r: int) -> int:
    """The number of forbidden copies on [n]: each of the C(n,r) edges
    meets the C(n,r) - 1 others in 2..r-1 vertices, except the C(n-r,r)
    disjoint from it and the r C(n-r,r-1) that meet it in one vertex, and
    each pair is counted from both of its edges."""
    edges = math.comb(n, r)
    overlaps = edges - math.comb(n - r, r) - r * math.comb(n - r, r - 1) - 1
    return edges * overlaps // 2


def enumerate_forbidden_copies(n: int, r: int) -> list[ForbiddenCopy]:
    """Every pair of r-subsets of {1..n} intersecting in 2..r-1 vertices.

    Canonical (sorted) output order: the pairs i < j of the
    lexicographically listed edges come out sorted.  For r=3 the count is
    [n]_4 / 4.  A host with more than COPY_CAP copies (`_copy_count`)
    raises CapExceededError with context {copies, cap} before any is
    listed; past EXACT_COUNT_DIGITS edge digits the context is
    {edges_log10, cap} or {edges_log10_at_least, cap} (`edge_count`).
    """
    check_host(n, r)
    edge_count(n, r, COPY_CAP, cap=COPY_CAP)
    count = _copy_count(n, r)
    if count > COPY_CAP:
        raise CapExceededError(
            f"({n}, {r}) has {count_text(count)} forbidden copies, "
            f"over the cap of {COPY_CAP}",
            copies=count,
            cap=COPY_CAP,
        )
    if not count:  # n = r: one edge, of r vertices however large r is
        return []
    copies = []
    edges = list(combinations(range(1, n + 1), r))
    edge_sets = [set(e) for e in edges]
    for i in range(len(edges)):
        si = edge_sets[i]
        for j in range(i + 1, len(edges)):
            t = len(si & edge_sets[j])
            if 2 <= t <= r - 1:
                copies.append(ForbiddenCopy(e1=edges[i], e2=edges[j], t=t))
    return copies
