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

#: CPython's default limit on the digits of an int printed as text (3.10.7
#: on).  No count of more digits is formed, so every count an error
#: reports prints under the default; `cli` reads decimals to it as well.
MAX_DIGITS = 4300

#: The largest count that is formed, the largest of MAX_DIGITS digits.
#: Every cap is far below it, so a count past it is over every cap.
COUNT_LIMIT = 10**MAX_DIGITS - 1

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
    every engine accepts.  An n or r of more than MAX_DIGITS digits is
    refused first, without printing it, so every later message prints."""
    if max(abs(n), abs(r)) > COUNT_LIMIT:
        raise ValidationError(f"n and r must have at most {MAX_DIGITS} digits")
    if r < 3:
        raise ValidationError(f"uniformity must be >= 3, got {r}")
    if n < r:
        raise ValidationError(f"need n >= r, got n={n}, r={r}")


def binomial_up_to(n: int, r: int, limit: int) -> int | None:
    """C(n, r) for 0 <= r <= n, or None when it exceeds `limit`.

    The running product C(n, i), i = 1 .. min(r, n - r), never decreases,
    so it stops at the first value past `limit` and never forms a larger
    binomial.  C(n, i) >= (n/i)^i >= 2^i there, so that takes at most
    log2(limit) + 1 steps, however large n is."""
    count = 1
    for i in range(min(r, n - r)):
        if count > limit:
            return None
        count = count * (n - i) // (i + 1)
    return count if count <= limit else None


def check_count(count: int | None, cap: int, name: str, what: str) -> int:
    """`count` when it is at most `cap`, the one size refusal of every
    engine.  Over the cap it raises CapExceededError with context
    {name: count, cap}, where `name` counts the cap's unit and `what`
    names the count in the message; a count that is None or past
    COUNT_LIMIT (not formed, or too long to print) gives {cap} alone."""
    if count is not None and count <= cap:
        return count
    if count is None or count > COUNT_LIMIT:
        raise CapExceededError(
            f"{what} has more than {MAX_DIGITS} digits, over the cap of {cap}", cap=cap
        )
    raise CapExceededError(f"{what} is {count}, over the cap of {cap}", cap=cap, **{name: count})


def check_edge_cap(n: int, r: int, cap: int) -> int:
    """C(n, r), the edges of a host that `check_host` accepts, checked
    against `cap` edges (`check_count`, context {edges, cap}) before any
    edge is listed."""
    check_host(n, r)
    edges = binomial_up_to(n, r, COUNT_LIMIT)
    return check_count(edges, cap, "edges", f"the edge count C({n},{r})")


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
    [n]_4 / 4.  The copy count (`_copy_count`) is checked against
    COPY_CAP copies (`check_count`, context {copies, cap}) before any copy
    is listed; it is not formed when C(n, r) is past COUNT_LIMIT.
    """
    check_host(n, r)
    count = None if binomial_up_to(n, r, COUNT_LIMIT) is None else _copy_count(n, r)
    check_count(count, COPY_CAP, "copies", f"the forbidden-copy count of ({n}, {r})")
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
