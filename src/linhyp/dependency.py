"""Dependency graph over forbidden copies, and the polymer stream.

Two copies are adjacent exactly when they share a hyperedge; indicators of
non-adjacent copy sets are independent.  A *polymer* is a vertex set of a
connected induced subgraph of this graph.  A *disjoint cluster* is a set of
pairwise disjoint polymers whose mutual-closeness graph is connected, which
is the same thing as a partition of some polymer into connected blocks.

Enumeration is streaming: polymers are produced one at a time by a rooted
exclusion-list growth that emits every connected set exactly once.  The
engines that consume the stream take an opt-in cap on what they count.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .hypergraph import ForbiddenCopy


class DependencyGraph:
    """Indexed copies plus shared-hyperedge adjacency and fast bitmask views."""

    def __init__(self, copies: Sequence[ForbiddenCopy]):
        self.copies: list[ForbiddenCopy] = list(copies)
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
) -> Iterator[tuple[int, int, int]]:
    """Stream (member_mask, size, union_edge_mask) of every connected set.

    Rooted exclusion-list growth: sets are grown from their minimum element
    using only larger indices, and each extension candidate is handed to
    exactly one branch, so every connected set of size <= max_size appears
    exactly once and no visited table is needed.  When `edge_budget` is
    given, branches whose hyperedge union already exceeds the budget are
    pruned (the union only grows along a branch).  This is the one
    connected-set walk: every polymer stream in the package runs on it.
    """
    n = len(adj_masks)
    if edge_masks is None:
        edge_masks = [0] * n
    for root in range(n):
        allowed = -1 << (root + 1)
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
    """Convenience: dependency graph of the full copy list for (n, r)."""
    from .hypergraph import enumerate_forbidden_copies

    return DependencyGraph(enumerate_forbidden_copies(n, r))
