"""Simple-graph calculus: Ursell weights and chromatic polynomials.

The Ursell weight of a connected graph is the alternating sum, over its
connected spanning subgraphs, of (-1)^(number of edges).  It equals the
coefficient of the linear term of the chromatic polynomial, which is how
the production path computes it; a direct spanning-subgraph summation is
kept as an independent oracle.  That sum and the rank-sum chromatic
polynomial both read one numpy scan, which finds the component count of
every edge subset at once (`_signed_component_counts`).

A `SimpleGraph` is its tuple of neighbour masks, bit b-1 of masks[a-1]
set iff a ~ b; its vertex count and sorted edge list are read off them.
Deletion-contraction, the independent-partition count, the connectivity
test and `ursell` all read the masks as they are, so a caller that holds a
graph as bitmasks (the expansion's closeness and conflict graphs, from
`combinat.meeting_masks`) builds no edge list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Sequence

from .combinat import mask_connected, members, set_partitions, subset_unions
from .errors import ValidationError
from .polynomial import Polynomial, falling_factorial_poly


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless simple graph on vertices {1..v}, stored as its neighbour
    masks: bit b-1 of masks[a-1] is set iff a ~ b."""

    masks: tuple[int, ...]

    def __post_init__(self):
        masks = tuple(self.masks)
        object.__setattr__(self, "masks", masks)
        v = len(masks)
        for a, m in enumerate(masks):
            if m >> a & 1:
                raise ValidationError(f"loop at vertex {a + 1}")
            if m >> v:
                raise ValidationError(f"vertex {a + 1} has a neighbour outside 1..{v}")
            for b in members(m):
                if not masks[b] >> a & 1:
                    raise ValidationError(f"{a + 1} ~ {b + 1} but not {b + 1} ~ {a + 1}")

    @property
    def v(self) -> int:
        return len(self.masks)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (a, b), a < b, in increasing order."""
        return tuple(
            (a + 1, b + 1)
            for a, m in enumerate(self.masks)
            for b in range(a + 1, len(self.masks))
            if m >> b & 1
        )

    @classmethod
    def from_edges(cls, v: int, edges) -> "SimpleGraph":
        masks = [0] * v
        for a, b in edges:
            if a == b:
                raise ValidationError(f"loop at vertex {a}")
            if not (1 <= a <= v and 1 <= b <= v):
                raise ValidationError(f"edge ({a},{b}) outside 1..{v}")
            masks[a - 1] |= 1 << (b - 1)
            masks[b - 1] |= 1 << (a - 1)
        return cls(tuple(masks))

    @classmethod
    def complete(cls, v: int) -> "SimpleGraph":
        full = (1 << v) - 1
        return cls(tuple(full ^ 1 << a for a in range(v)))

    def is_connected(self) -> bool:
        return mask_connected(self.masks, (1 << self.v) - 1)


def _drop_bit(mask: int, i: int) -> int:
    """`mask` with bit i removed and the bits above it moved down one."""
    return mask & ((1 << i) - 1) | (mask >> (i + 1)) << i


# Memoised on the labelled minor's neighbour masks (at the top, a graph's
# own `masks`), with no canonical form, for the exhaustive suites; the
# expansion needs one Ursell weight per admissible partition of each
# copy-graph type (75 in `expand 6 3 --k 5`, 17 distinct minors) and the
# polymer-model form one per conflict-connected support (958 at n = 5,
# r = 3; 4,083 at n = 12, r = 11, all complete graphs).  Chromatic
# polynomials are integral, so the recursion stays in ints: entry k of the
# tuple is the coefficient of lambda^k.
@cache
def _chromatic(masks: tuple[int, ...]) -> tuple[int, ...]:
    """Deletion and contraction of the edge from a maximum-degree vertex
    (the hub, which keeps minors small) to its lowest neighbour: the hub
    takes the neighbour's neighbours, and the neighbour's bit is dropped."""
    hub = max(range(len(masks)), key=lambda u: masks[u].bit_count())
    if not masks[hub]:
        return (0,) * len(masks) + (1,)
    nbr = (masks[hub] & -masks[hub]).bit_length() - 1
    deleted = list(masks)
    deleted[hub] ^= 1 << nbr
    deleted[nbr] ^= 1 << hub
    joined = deleted[hub] | deleted[nbr]
    contracted = tuple(
        _drop_bit(joined if u == hub else m | (m >> nbr & 1) << hub, nbr)
        for u, m in enumerate(deleted)
        if u != nbr
    )
    minus = _chromatic(contracted) + (0,)
    return tuple(a - b for a, b in zip(_chromatic(tuple(deleted)), minus))


def chromatic_polynomial(g: SimpleGraph) -> Polynomial:
    """Exact chromatic polynomial by deletion and contraction, memoised on
    labelled minors."""
    if g.v < 1:
        raise ValidationError("graph needs at least one vertex")
    return Polynomial(dict(enumerate(_chromatic(g.masks))))


def _signed_component_counts(v: int, edges: Sequence[tuple[int, int]]) -> dict[int, int]:
    """{k: sum of (-1)^|S| over the edge subsets S whose spanning subgraph
    has k components}.

    Subset S is the bitmask over `edges`, and every per-subset quantity is
    a numpy row over all 2^e of them.  Each of the t vertices that some
    edge touches holds a row of uint8 labels, starting at its own index; a
    sweep sets both ends of every edge to the smaller of their labels in
    the subsets holding that edge.  t - 1 sweeps spread each component's
    least label over all of it, so the components of S are counted by the
    vertices that keep their own label, plus the v - t untouched vertices.
    """
    import numpy as np

    def holding(row, i):
        """View of the entries of `row` for the subsets holding edge i:
        the odd rows of `row` reshaped to (-1, 2, 2^i), no presence mask."""
        return row.reshape(-1, 2, 1 << i)[:, 1]

    touched = sorted({u for edge in edges for u in edge})
    index = {u: j for j, u in enumerate(touched)}
    t = len(touched)
    size = 1 << len(edges)
    labels = np.repeat(np.arange(t, dtype=np.uint8), size).reshape(t, size)
    ends = [
        (holding(labels[index[a]], i), holding(labels[index[b]], i))
        for i, (a, b) in enumerate(edges)
    ]
    for _ in range(t - 1):
        for la, lb in ends:
            np.minimum(la, lb, out=la)
            lb[...] = la
    # key = 2 c(S) + |S| mod 2, with c(S) over the touched vertices only
    key = np.zeros(size, dtype=np.uint8)
    for j in range(t):
        key += labels[j] == j
    key <<= 1
    for i in range(len(edges)):
        holding(key, i)[...] ^= 1
    tally = np.bincount(key, minlength=2 * t + 2).tolist()
    return {v - t + c: tally[2 * c] - tally[2 * c + 1] for c in range(t + 1)}


def chromatic_via_whitney(g: SimpleGraph) -> Polynomial:
    """Rank-sum form: sum over edge subsets of (-1)^|E| lambda^(components).

    Oracle implementation; exponential in the edge count, capped at 20.
    """
    edges = g.edges
    if len(edges) > 20:
        raise ValidationError(f"edge budget exceeded: {len(edges)} > 20")
    return Polynomial(_signed_component_counts(g.v, edges))


@cache
def _falling_coeffs(k: int) -> tuple[tuple[int, int], ...]:
    """(exponent, coefficient) of each monomial of [lambda]_k."""
    return tuple((e, int(c)) for e, c in falling_factorial_poly(k).coeffs.items())


def _independent_partition_counts(g: SimpleGraph) -> dict[int, int]:
    """{m: number of partitions of the vertices into m independent sets}.

    Each set partition of the vertices is a tuple of block bitmasks
    (`set_partitions`, bit u - 1 for vertex u).  A vertex set S is
    independent exactly when the union of its members' neighbour masks
    misses S, read off the subset-union table (`subset_unions`), and a
    partition counts when all of its blocks are.
    """
    neighbours = subset_unions(g.masks)
    counts: dict[int, int] = {}
    for blocks in set_partitions(g.v):
        for b in blocks:
            if neighbours[b] & b:
                break
        else:
            counts[len(blocks)] = counts.get(len(blocks), 0) + 1
    return counts


def chromatic_via_partitions(g: SimpleGraph) -> Polynomial:
    """Factorial form: sum over k of (independent k-partitions) * [lambda]_k."""
    if g.v > 10:
        raise ValidationError(f"vertex budget exceeded: {g.v} > 10")
    out: dict[int, int] = {}
    for k, count in _independent_partition_counts(g).items():
        for e, c in _falling_coeffs(k):
            out[e] = out.get(e, 0) + count * c
    return Polynomial(out)


def ursell(g: SimpleGraph) -> Fraction:
    """Ursell weight of a connected graph, via the chromatic linear term.

    Disconnected input is an upstream bug and rejected rather than mapped
    to zero.
    """
    if not g.masks or not g.is_connected():
        raise ValidationError("Ursell weight is only used on connected graphs")
    return Fraction(_chromatic(g.masks)[1])


def ursell_direct(g: SimpleGraph) -> Fraction:
    """Alternating sum over connected spanning edge subsets, read off the
    same subset scan as `chromatic_via_whitney`.  Independent oracle for
    `ursell`; capped at 24 edges."""
    if not g.is_connected():
        raise ValidationError("Ursell weight is only used on connected graphs")
    e = len(g.edges)
    if e > 24:
        raise ValidationError(f"edge budget exceeded: {e} > 24")
    return Fraction(_signed_component_counts(g.v, g.edges).get(1, 0))


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
    lhs = sum(
        count * complete_graph_ursell(m)
        for m, count in _independent_partition_counts(g).items()
    )
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
