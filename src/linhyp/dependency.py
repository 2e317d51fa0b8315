"""Dependency graph over forbidden copies, and the polymer stream.

Two copies are adjacent exactly when they share a hyperedge; indicators of
non-adjacent copy sets are independent.  The graph stores no adjacency:
the copies' hyperedge masks encode it, and the walk reads a copy's
neighbours off the holders of its two hyperedges.  A *polymer* is a vertex
set of a connected induced subgraph of this graph.  A *disjoint cluster* is
a set of pairwise disjoint polymers whose mutual-closeness graph is
connected, which is the same thing as a partition of some polymer into
connected blocks.

Enumeration is streaming: polymers are produced one at a time by a rooted
exclusion-list growth that emits every connected set exactly once.  The
same walk has a pinned-root mode that lists every connected set through
each given root exactly once.  The complete host's graph records its copy
orbits under the symmetric group on the vertices (one per overlap size),
and the engines that sum a relabelling-invariant quantity walk from one
root per orbit instead of from every copy (see `expansion._orbit_tally`).
The engines that consume the stream take an opt-in cap on what they count.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .hypergraph import ForbiddenCopy


class DependencyGraph:
    """Indexed copies and their hyperedge masks, one bit per hyperedge: two
    copies are adjacent exactly when their masks intersect.  Bit i stands
    for hyperedge `edges[i]`, numbered in the order the copies first list
    them.

    `orbits` is None unless `dependency_graph_for` built the graph over the
    complete host; there it holds one (representative index, orbit size)
    pair per copy orbit.  It is never inferred from the copies.
    """

    def __init__(self, copies: Sequence[ForbiddenCopy]):
        self.copies: list[ForbiddenCopy] = list(copies)
        self.orbits: tuple[tuple[int, int], ...] | None = None
        # hyperedge -> integer id, used for moment exponents
        edge_ids: dict[tuple[int, ...], int] = {}
        for c in self.copies:
            for e in c.edge_pair:
                edge_ids.setdefault(e, len(edge_ids))
        self.copy_edge_masks: list[int] = [
            (1 << edge_ids[c.e1]) | (1 << edge_ids[c.e2]) for c in self.copies
        ]
        self.edges: list[tuple[int, ...]] = list(edge_ids)

    def __len__(self) -> int:
        return len(self.copies)

    def dump_adjacency(self) -> str:
        """Adjacency-list text dump, one line per copy index: the sets of
        two through each copy, from the pinned walk."""
        lines: list[list[str]] = []
        pairs = _connected_set_masks(self.copy_edge_masks, 2, roots=range(len(self)))
        for mask, size, _emask, _key in pairs:
            if size == 1:
                root, nbrs = mask, []
                lines.append(nbrs)
            else:
                nbrs.append(str((mask ^ root).bit_length() - 1))
        return "".join(f"{i}: {' '.join(nbrs)}\n" for i, nbrs in enumerate(lines))


def _connected_set_masks(
    edge_masks: Sequence[int],
    max_size: int,
    edge_budget: int | None = None,
    roots: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Stream (member_mask, size, union_edge_mask, key) of every connected set.

    Two members are adjacent exactly when their edge masks share a bit, so
    a member's neighbours are the OR of the holders of its edges, read off
    one {edge: members} map built per call, linear in the input; no
    pairwise adjacency is built.

    Rooted exclusion-list growth: sets are grown from their minimum element
    using only larger indices, and each extension candidate is handed to
    exactly one branch, so every connected set of size <= max_size appears
    exactly once and no visited table is needed.  When `edge_budget` is
    given, branches whose edge union already exceeds the budget are pruned
    (the union only grows along a branch).  This is the one connected-set
    walk: every polymer stream in the package runs on it.

    Pinned mode: with `roots`, the same growth runs from each given root
    with every other index allowed, so each connected set of size
    <= max_size that contains the root appears exactly once per root.

    The key is the set's walk-order form: its members' edge masks in the
    order the walk added them, with the edge bits relabelled in the order
    the walk first met them (a member's own bits lowest first), so label i
    is bit i.  Each extension appends one relabelled mask.  Sets with equal
    keys are equal up to renaming edges, so anything read off their masks
    alone is a function of the key.
    """
    holders: dict[int, int] = {}
    ends = [_mask_to_members(em) for em in edge_masks]
    for i, es in enumerate(ends):
        for e in es:
            holders[e] = holders.get(e, 0) | 1 << i
    pinned = roots is not None
    for root in roots if pinned else range(len(edge_masks)):
        allowed = -1 if pinned else -1 << (root + 1)
        # the root is the one candidate of the empty set
        stack = [(0, 0, 0, (), 1 << root, 1 << root, ())]
        while stack:
            sub, size, emask, key, ext, closed, met = stack.pop()
            while ext:
                wbit = ext & -ext
                ext &= ext - 1
                w = wbit.bit_length() - 1
                union = emask | edge_masks[w]
                if edge_budget is not None and union.bit_count() > edge_budget:
                    continue
                # met lists the set's edges in the order the walk first met
                # them, so edge met[i] has label i; grown adds w's new edges
                grown, label = met, 0
                for e in ends[w]:
                    if emask >> e & 1:
                        label |= 1 << met.index(e)
                    else:
                        label |= 1 << len(grown)
                        grown += (e,)
                item = (sub | wbit, size + 1, union, key + (label,))
                yield item
                if size + 1 < max_size:
                    nbrs = 0
                    for e in ends[w]:
                        nbrs |= holders[e]
                    fresh = nbrs & allowed & ~closed
                    stack.append((*item, ext | fresh, closed | nbrs, grown))


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

