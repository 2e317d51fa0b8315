"""Dependency graph over forbidden copies, and the polymer stream.

Two copies are adjacent exactly when they share a hyperedge; indicators of
non-adjacent copy sets are independent.  A *polymer* is a vertex set of a
connected induced subgraph of this graph.  A *disjoint cluster* is a set of
pairwise disjoint polymers whose mutual-closeness graph is connected, which
is the same thing as a partition of some polymer into connected blocks.

Enumeration is streaming: polymers are produced one at a time by a rooted
exclusion-list growth that emits every connected set exactly once.  The
same walk has a pinned-root mode that lists every connected set through
each given root exactly once.  The complete host's graph records its copy
orbits under the symmetric group on the vertices (one per overlap size),
and the engines that sum a relabelling-invariant quantity walk from one
root per orbit instead of from every copy (see `expansion.expansion_term`).
The engines that consume the stream take an opt-in cap on what they count.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .hypergraph import ForbiddenCopy


class DependencyGraph:
    """Indexed copies plus shared-hyperedge adjacency and fast bitmask views.

    `orbits` is None unless `dependency_graph_for` built the graph over the
    complete host; there it holds one (representative index, orbit size)
    pair per copy orbit.  It is never inferred from the copies.
    """

    def __init__(self, copies: Sequence[ForbiddenCopy]):
        self.copies: list[ForbiddenCopy] = list(copies)
        self.orbits: tuple[tuple[int, int], ...] | None = None
        m = len(self.copies)
        # hyperedge -> integer id, used for moment exponents
        self.edge_ids: dict[tuple[int, ...], int] = {}
        for c in self.copies:
            for e in c.edge_pair:
                if e not in self.edge_ids:
                    self.edge_ids[e] = len(self.edge_ids)
        self.copy_edge_masks: list[int] = [
            (1 << self.edge_ids[c.e1]) | (1 << self.edge_ids[c.e2]) for c in self.copies
        ]
        # adjacency via the hyperedge -> copies index, not all-pairs scans
        by_edge: dict[int, list[int]] = {}
        for i, c in enumerate(self.copies):
            for e in c.edge_pair:
                by_edge.setdefault(self.edge_ids[e], []).append(i)
        masks = [0] * m
        for members in by_edge.values():
            for i in members:
                for j in members:
                    if i != j:
                        masks[i] |= 1 << j
        self.adj_masks: list[int] = masks

    def __len__(self) -> int:
        return len(self.copies)

    def is_connected(self, members: Sequence[int]) -> bool:
        if not members:
            return False
        target = 0
        for i in members:
            target |= 1 << i
        return _mask_connected(self.adj_masks, target)

    def dump_adjacency(self) -> str:
        """Adjacency-list text dump, one line per copy index."""
        lines = []
        for i, nbrs in enumerate(self.adj_masks):
            members = _mask_to_members(nbrs)
            lines.append(f"{i}: {' '.join(str(j) for j in members)}")
        return "\n".join(lines) + "\n"


def _mask_connected(adj_masks: Sequence[int], mask: int) -> bool:
    """Whether the nonempty vertex set `mask` induces a connected subgraph."""
    reach = mask & -mask
    while True:
        frontier = 0
        m = reach
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            frontier |= adj_masks[v]
        new = (reach | frontier) & mask
        if new == reach:
            return new == mask
        reach = new


def _connected_set_masks(
    adj_masks: Sequence[int],
    max_size: int,
    edge_masks: Sequence[int] | None = None,
    edge_budget: int | None = None,
    roots: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int]]:
    """Stream (member_mask, size, union_edge_mask) of every connected set.

    Rooted exclusion-list growth: sets are grown from their minimum element
    using only larger indices, and each extension candidate is handed to
    exactly one branch, so every connected set of size <= max_size appears
    exactly once and no visited table is needed.  When `edge_budget` is
    given, branches whose hyperedge union already exceeds the budget are
    pruned (the union only grows along a branch).  This is the one
    connected-set walk: every polymer stream in the package runs on it.

    Pinned mode: with `roots`, the same growth runs from each given root
    with every other index allowed, so each connected set of size
    <= max_size that contains the root appears exactly once per root.
    """
    n = len(adj_masks)
    if edge_masks is None:
        edge_masks = [0] * n
    pinned = roots is not None
    for root in roots if pinned else range(n):
        allowed = -1 if pinned else -1 << (root + 1)
        root_edges = edge_masks[root]
        if edge_budget is not None and root_edges.bit_count() > edge_budget:
            continue
        yield (1 << root, 1, root_edges)
        if max_size == 1:
            continue
        closed0 = (1 << root) | adj_masks[root]
        stack = [(1 << root, 1, adj_masks[root] & allowed, closed0, root_edges)]
        while stack:
            sub, size, ext, closed, emask = stack.pop()
            while ext:
                wbit = ext & -ext
                ext &= ext - 1
                w = wbit.bit_length() - 1
                new_emask = emask | edge_masks[w]
                if edge_budget is not None and new_emask.bit_count() > edge_budget:
                    continue
                new_sub = sub | wbit
                yield (new_sub, size + 1, new_emask)
                if size + 1 < max_size:
                    new_closed = closed | wbit | adj_masks[w]
                    ext_w = ext | (adj_masks[w] & allowed & ~closed)
                    stack.append((new_sub, size + 1, ext_w, new_closed, new_emask))


def _mask_to_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def dependency_graph_for(n: int, r: int) -> DependencyGraph:
    """Dependency graph of the full copy list for (n, r), with its orbits.

    The symmetric group on [n] maps copies to copies and keeps adjacency
    and hyperedge masks intact, and it is transitive on the copies of each
    overlap size |e1 & e2|, so those are the orbits.  The representative of
    an orbit is its first copy in the canonical order.
    """
    from .hypergraph import enumerate_forbidden_copies

    d = DependencyGraph(enumerate_forbidden_copies(n, r))
    reps: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for i, c in enumerate(d.copies):
        reps.setdefault(c.t, i)
        sizes[c.t] = sizes.get(c.t, 0) + 1
    d.orbits = tuple((reps[t], sizes[t]) for t in sorted(reps))
    return d


def _root_groups(d: DependencyGraph) -> list[tuple[tuple[int, ...] | None, int]]:
    """(roots, weight) pairs whose walks together cover every polymer of `d`.

    Without orbits: one all-roots walk, each polymer listed once with
    weight 1.  With orbits: one pinned walk per orbit representative,
    weighted by the orbit size.  Either way a walked set of size k stands
    for weight / `_walk_scale(d, k)` polymers.
    """
    if d.orbits is None:
        return [(None, 1)]
    return [((rep,), size) for rep, size in d.orbits]


def _walk_scale(d: DependencyGraph, size: int) -> int:
    """Walked weight that one polymer of the given size accounts for."""
    return 1 if d.orbits is None else size
