"""Uniform hypergraphs, the family of overlapping edge pairs, and linearity.

A hypergraph is *linear* when every two hyperedges meet in at most one
vertex.  The obstructions are therefore pairs of r-edges sharing between 2
and r-1 vertices; we call such a pair a *forbidden copy*.  Everything
downstream (dependency graph, expansions) is built on the list of all
forbidden copies inside the complete r-graph on [n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import CapExceededError, ValidationError

#: Ceiling on the forbidden copies of one host.  Every engine but `copies`
#: feeds the list to a DependencyGraph, whose adjacency is one m-bit mask
#: per copy, m^2 / 8 bytes in all: 512 MiB at this cap (r = 3 passes it
#: at n = 25).  The tests and the benchmark stop at 2,970 copies
#: (n = 12, r = 3).
COPY_CAP = 1 << 16


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


@dataclass(frozen=True, order=True)
class ForbiddenCopy:
    """Unordered pair of r-edges meeting in t vertices, 2 <= t <= r-1.

    Stored with e1 < e2 lexicographically so copy lists have one canonical
    order across runs.
    """

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    t: int

    @classmethod
    def from_edges(cls, a, b) -> "ForbiddenCopy":
        a, b = tuple(sorted(a)), tuple(sorted(b))
        if a == b:
            raise ValidationError("a forbidden copy needs two distinct edges")
        if len(a) != len(b):
            raise ValidationError("edges of different sizes")
        r = len(a)
        t = len(set(a) & set(b))
        if not 2 <= t <= r - 1:
            raise ValidationError(f"edges share {t} vertices, need 2..{r - 1}")
        if a > b:
            a, b = b, a
        return cls(e1=a, e2=b, t=t)

    @property
    def edge_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.e1, self.e2)

    def span(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.e1) | set(self.e2)))


def _copy_count(n: int, r: int) -> int:
    """The number of forbidden copies on [n]: each of the C(n,r) edges
    meets C(r,t) C(n-r,r-t) others in t vertices, summed over t = 2..r-1,
    and each pair is counted from both of its edges."""
    overlaps = sum(math.comb(r, t) * math.comb(n - r, r - t) for t in range(2, r))
    return math.comb(n, r) * overlaps // 2


def enumerate_forbidden_copies(n: int, r: int) -> list[ForbiddenCopy]:
    """Every pair of r-subsets of {1..n} intersecting in 2..r-1 vertices.

    Canonical (sorted) output order.  For r=3 the count is [n]_4 / 4.  A
    host with more than COPY_CAP copies (`_copy_count`) raises
    CapExceededError with context {copies, cap} before any is listed.
    """
    if r < 3:
        raise ValidationError(f"uniformity must be >= 3, got {r}")
    if n < r:
        raise ValidationError(f"need n >= r, got n={n}, r={r}")
    count = _copy_count(n, r)
    if count > COPY_CAP:
        raise CapExceededError(
            f"({n}, {r}) has {count} forbidden copies, over the cap of {COPY_CAP}",
            copies=count,
            cap=COPY_CAP,
        )
    copies = []
    edges = list(combinations(range(1, n + 1), r))
    edge_sets = [set(e) for e in edges]
    for i in range(len(edges)):
        si = edge_sets[i]
        for j in range(i + 1, len(edges)):
            t = len(si & edge_sets[j])
            if 2 <= t <= r - 1:
                copies.append(ForbiddenCopy(e1=edges[i], e2=edges[j], t=t))
    copies.sort()
    return copies


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


def family_densities(r: int) -> tuple[Fraction, Fraction]:
    """Density measures of the forbidden family, by brute-force minimisation.

    Returns (m_star, d) where, for each member G (one per overlap size t),

        m_star(G) = min over subgraphs H of G with at least one edge and
                    fewer vertices than G of (e_G - e_H) / (v_G - v_H),
        d(G)      = e_G / v_G,

    and the family value is the minimum over members.  The closed forms
    1/(r-2) and 1/(r-1) are asserted against this in the tests, not used
    here.
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
