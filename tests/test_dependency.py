"""Dependency graph construction and polymer/cluster enumeration.

The brute-force enumerators at the end of this file (a visited-set
frontier growth and a disjoint-cluster stream) are independent oracles for
the package's one connected-set walk.  `polymers_up_to` there is the
capped polymer stream that only the tests consume.
"""

from dataclasses import dataclass
from typing import Iterator, Sequence

import pytest

from linhyp.combinat import set_partitions
from linhyp.dependency import (
    DependencyGraph,
    _connected_set_masks,
    _mask_to_members,
    dependency_graph_for,
)
from linhyp.errors import CapExceededError, ValidationError
from linhyp.hypergraph import ForbiddenCopy, enumerate_forbidden_copies


def path_graph(k):
    """A real dependency graph whose adjacency is a path 0-1-...-k-1.

    Copy i pairs the triples {i,i+1,i+2} and {i+1,i+2,i+3}; consecutive
    copies share a triple, others do not.
    """
    copies = [
        ForbiddenCopy.from_edges((i, i + 1, i + 2), (i + 1, i + 2, i + 3))
        for i in range(1, k + 1)
    ]
    d = DependencyGraph(copies)
    expect = [
        ((1 << (i - 1)) if i > 0 else 0) | ((1 << (i + 1)) if i + 1 < k else 0)
        for i in range(k)
    ]
    assert d.adj_masks == expect
    return d


def triangle_graph():
    """Three copies pairwise sharing a triple."""
    copies = [
        ForbiddenCopy.from_edges((1, 2, 3), (2, 3, 4)),
        ForbiddenCopy.from_edges((1, 2, 3), (2, 3, 5)),
        ForbiddenCopy.from_edges((2, 3, 4), (2, 3, 5)),
    ]
    d = DependencyGraph(copies)
    assert d.adj_masks == [0b110, 0b101, 0b011]
    return d


class TestBuild:
    def test_shared_edge_adjacency_matches_bruteforce(self):
        for n in (4, 5, 6):
            copies = enumerate_forbidden_copies(n, 3)
            d = DependencyGraph(copies)
            for i in range(len(copies)):
                for j in range(i + 1, len(copies)):
                    shared = bool(
                        set(copies[i].edge_pair) & set(copies[j].edge_pair)
                    )
                    assert bool(d.adj_masks[i] >> j & 1) == shared
                    assert bool(d.adj_masks[j] >> i & 1) == shared

    def test_n4_degrees(self):
        d = dependency_graph_for(4, 3)
        assert [m.bit_count() for m in d.adj_masks] == [4] * 6

    def test_single_copy(self):
        d = DependencyGraph([ForbiddenCopy.from_edges((1, 2, 3), (2, 3, 4))])
        assert len(d) == 1 and d.adj_masks == [0]
        assert d.dump_adjacency() == "0: \n"

    def test_disjoint_edge_sets_not_adjacent(self):
        a = ForbiddenCopy.from_edges((1, 2, 3), (2, 3, 4))
        b = ForbiddenCopy.from_edges((1, 5, 6), (5, 6, 7))
        d = DependencyGraph([a, b])
        assert d.adj_masks == [0, 0]
        assert d.dump_adjacency() == "0: \n1: \n"

    def test_symmetric_irreflexive(self):
        d = dependency_graph_for(5, 3)
        adjacency = _parse_dump(d.dump_adjacency())
        assert len(adjacency) == len(d)
        for i, nbrs in enumerate(adjacency):
            assert nbrs == [j for j in range(len(d)) if d.adj_masks[i] >> j & 1]
            assert i not in nbrs
            for j in nbrs:
                assert i in adjacency[j]


def _parse_dump(text):
    """Neighbour lists from the `index: j k ...` lines of dump_adjacency."""
    out = []
    for line in text.splitlines():
        index, _, rest = line.partition(":")
        assert int(index) == len(out)
        out.append([int(j) for j in rest.split()])
    return out


class TestPolymers:
    def test_path_k2(self):
        d = path_graph(3)
        got = {p.members for p in _as_polymers(d, 2)}
        assert got == {(0,), (1,), (2,), (0, 1), (1, 2)}

    def test_triangle_all(self):
        got = {p.members for p in _as_polymers(triangle_graph(), 3)}
        assert len(got) == 7  # 3 singletons + 3 pairs + 1 triple

    def test_singleton_count_n5(self):
        d = dependency_graph_for(5, 3)
        assert sum(1 for _ in polymers_up_to(d, 1)) == 30

    def test_all_members_connected(self):
        d = dependency_graph_for(4, 3)
        for p in polymers_up_to(d, 4):
            assert d.is_connected(p.members)

    def test_matches_reference_enumerator(self):
        # frontier growth with a visited set, on real and synthetic graphs
        for d in (dependency_graph_for(4, 3), path_graph(6)):
            for k in (1, 2, 3, 4):
                fast = {(m, s) for m, s, _ in _connected_set_masks(d.adj_masks, k)}
                ref = connected_sets_reference(d.adj_masks, k)
                assert fast == ref

    def test_stream_is_duplicate_free(self):
        d = dependency_graph_for(5, 3)
        seen = set()
        for mask, _s, _e in _connected_set_masks(d.adj_masks, 3):
            assert mask not in seen
            seen.add(mask)

    def test_cap(self):
        d = dependency_graph_for(5, 3)
        with pytest.raises(CapExceededError):
            list(polymers_up_to(d, 3, cap=10))

    @pytest.mark.parametrize(
        "graph", ["host-5-3", "host-6-3", "host-6-4", "irregular-6-3"]
    )
    def test_pinned_walk_lists_each_set_through_its_root_once(self, graph):
        # the pinned mode, against the visited-set frontier growth, for
        # every root; the irregular graph keeps every third n = 6 copy
        kind, n, r = graph.split("-")
        copies = enumerate_forbidden_copies(int(n), int(r))
        d = DependencyGraph(copies[::3] if kind == "irregular" else copies)
        ref = connected_sets_reference(d.adj_masks, 3)
        for root in range(len(d)):
            walked = [
                (m, s) for m, s, _ in _connected_set_masks(d.adj_masks, 3, roots=[root])
            ]
            assert len(walked) == len(set(walked))
            assert set(walked) == {(m, s) for m, s in ref if m >> root & 1}

    def test_pinned_walk_prunes_on_the_edge_budget(self):
        d = dependency_graph_for(6, 3)
        em = d.copy_edge_masks
        ref = connected_sets_reference(d.adj_masks, 3)
        for root in (0, 17, 89):
            walked = {
                (m, s, u)
                for m, s, u in _connected_set_masks(
                    d.adj_masks, 3, edge_masks=em, edge_budget=4, roots=[root]
                )
            }
            expect = set()
            for m, s in ref:
                union = 0
                for i in _mask_to_members(m):
                    union |= em[i]
                if m >> root & 1 and union.bit_count() <= 4:
                    expect.add((m, s, union))
            assert walked == expect

    def test_orbits_only_on_the_complete_host(self):
        # one orbit per overlap size, representative first in the copy order
        for n, r in ((5, 3), (7, 4), (8, 5)):
            d = dependency_graph_for(n, r)
            assert [d.copies[rep].t for rep, _size in d.orbits] == list(range(2, r))
            for rep, size in d.orbits:
                same = [i for i, c in enumerate(d.copies) if c.t == d.copies[rep].t]
                assert (rep, size) == (same[0], len(same))
            assert DependencyGraph(d.copies).orbits is None
        assert dependency_graph_for(3, 3).orbits == ()

    def test_bad_k(self):
        d = dependency_graph_for(4, 3)
        with pytest.raises(ValidationError):
            list(polymers_up_to(d, 0))


def _as_polymers(d, k):
    return polymers_up_to(d, k)


class TestClusters:
    def test_single_vertex(self):
        d = DependencyGraph(
            [ForbiddenCopy.from_edges((1, 2, 3), (2, 3, 4))]
        )
        got = list(clusters_disjoint(d, 1))
        assert len(got) == 1
        assert got[0].polymers[0].members == (0,)

    def test_single_edge_k2(self):
        got = list(clusters_disjoint(path_graph(2), 2))
        shapes = sorted(tuple(p.members for p in c.polymers) for c in got)
        assert shapes == [((0,),), ((0,), (1,)), ((0, 1),), ((1,),)]

    def test_triangle_k2(self):
        got = list(clusters_disjoint(triangle_graph(), 2))
        assert len(got) == 9  # 3 singles + 3 singleton pairs + 3 two-polymers

    def test_partition_count_crosscheck(self):
        # cluster count equals, over connected sets, the number of
        # partitions into connected blocks; brute force on small graphs
        for d, k in ((dependency_graph_for(4, 3), 3), (path_graph(5), 4)):
            expect = 0
            nverts = len(d.adj_masks)
            for mask in range(1, 1 << nverts):
                members = tuple(i for i in range(nverts) if mask >> i & 1)
                if len(members) > k or not _is_conn(d, members):
                    continue
                for part in set_partitions(members):
                    if all(_is_conn(d, b) for b in part):
                        expect += 1
            got = sum(1 for _ in clusters_disjoint(d, k))
            assert got == expect

    def test_total_size_and_union(self):
        d = dependency_graph_for(4, 3)
        for c in clusters_disjoint(d, 3):
            union = sorted(i for p in c.polymers for i in p.members)
            assert len(union) == len(set(union)) == c.total_size()
            assert d.is_connected(union)

    def test_closeness_of_disjoint_polymers_is_crossing_edge(self):
        # for disjoint polymers: union connected iff some copy of one is
        # adjacent to some copy of the other
        d = dependency_graph_for(5, 3)
        polymers = [p.members for p in polymers_up_to(d, 2)]
        checked = 0
        for i in range(0, len(polymers), 7):
            for j in range(i + 1, len(polymers), 11):
                a, b = polymers[i], polymers[j]
                if set(a) & set(b):
                    continue
                crossing = any(
                    d.adj_masks[x] >> y & 1 for x in a for y in b
                )
                assert d.is_connected(tuple(set(a) | set(b))) == crossing
                checked += 1
        assert checked > 100


def _is_conn(d, members):
    if not members:
        return False
    reach = {members[0]}
    frontier = [members[0]]
    mset = set(members)
    while frontier:
        v = frontier.pop()
        for u in mset:
            if u not in reach and d.adj_masks[v] >> u & 1:
                reach.add(u)
                frontier.append(u)
    return reach == mset


# ---------------------------------------------------------------------------
# test-only polymer stream and brute-force oracles
# ---------------------------------------------------------------------------

#: Default ceiling on the number of enumerated polymers/clusters per call.
DEFAULT_ENUM_CAP = 50_000_000


@dataclass(frozen=True)
class Polymer:
    """Sorted tuple of copy indices inducing a connected subgraph."""

    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def polymers_up_to(
    d: DependencyGraph, k: int, cap: int | None = DEFAULT_ENUM_CAP
) -> Iterator[Polymer]:
    """Stream every polymer of size <= k exactly once."""
    if k < 1:
        raise ValidationError(f"max polymer size must be >= 1, got {k}")
    count = 0
    for mask, _size, _em in _connected_set_masks(d.adj_masks, k):
        count += 1
        if cap is not None and count > cap:
            raise CapExceededError(
                f"polymer enumeration exceeded cap {cap}", cap=cap, max_size=k
            )
        yield Polymer(members=_mask_to_members(mask))


def connected_sets_reference(adj_masks: Sequence[int], max_size: int) -> set[tuple[int, int]]:
    """Frontier growth with a visited-set guard; oracle for the stream."""
    out: set[tuple[int, int]] = set()
    n = len(adj_masks)
    for v in range(n):
        out.add((1 << v, 1))
    current = set(1 << v for v in range(n))
    size = 1
    while size < max_size and current:
        nxt = set()
        for mask in current:
            nbrs = 0
            m = mask
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nbrs |= adj_masks[v]
            nbrs &= ~mask
            while nbrs:
                bit = nbrs & -nbrs
                nbrs &= nbrs - 1
                nxt.add(mask | bit)
        size += 1
        for mask in nxt:
            out.add((mask, size))
        current = nxt
    return out


@dataclass(frozen=True)
class ClusterDisjoint:
    """Pairwise-disjoint polymers with a connected closeness graph.

    `adjacency` holds the edges of that graph as (i, j) index pairs into
    `polymers`, i < j.
    """

    polymers: tuple[Polymer, ...]
    adjacency: frozenset[tuple[int, int]]

    def total_size(self) -> int:
        return sum(len(p) for p in self.polymers)


def connected_partitions(
    d: DependencyGraph, members: Sequence[int]
) -> Iterator[list[tuple[int, ...]]]:
    """Partitions of a copy set into blocks each connected in the graph."""
    for part in set_partitions(tuple(members)):
        if all(d.is_connected(block) for block in part):
            yield part


def closeness_edges(
    d: DependencyGraph, blocks: Sequence[tuple[int, ...]]
) -> frozenset[tuple[int, int]]:
    """Edges between disjoint blocks that are within distance one."""
    masks = []
    nbrs = []
    for b in blocks:
        m = 0
        a = 0
        for i in b:
            m |= 1 << i
            a |= d.adj_masks[i]
        masks.append(m)
        nbrs.append(a)
    edges = set()
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if nbrs[i] & masks[j]:
                edges.add((i, j))
    return frozenset(edges)


def edges_connected(n_blocks: int, edges: frozenset[tuple[int, int]]) -> bool:
    if n_blocks <= 1:
        return True
    adj = [0] * n_blocks
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    reach = 1
    full = (1 << n_blocks) - 1
    while True:
        new = reach
        m = reach
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            new |= adj[v]
        if new == reach:
            return reach == full
        reach = new


def clusters_disjoint(
    d: DependencyGraph, k: int, cap: int | None = DEFAULT_ENUM_CAP
) -> Iterator[ClusterDisjoint]:
    """Stream every disjoint-polymer cluster with total size <= k exactly once.

    Every polymer of size <= k, partitioned into connected blocks.  Because
    the union of the blocks is itself connected, the closeness graph on
    blocks is always connected; this is asserted.
    """
    if k < 1:
        raise ValidationError(f"max cluster size must be >= 1, got {k}")
    count = 0
    for mask, _size, _em in _connected_set_masks(d.adj_masks, k):
        for part in connected_partitions(d, _mask_to_members(mask)):
            count += 1
            if cap is not None and count > cap:
                raise CapExceededError(
                    f"cluster enumeration exceeded cap {cap}", cap=cap, max_size=k
                )
            blocks = sorted(tuple(sorted(b)) for b in part)
            edges = closeness_edges(d, blocks)
            assert edges_connected(len(blocks), edges), (
                "closeness graph of a connected-union partition must be connected"
            )
            yield ClusterDisjoint(
                polymers=tuple(Polymer(members=b) for b in blocks),
                adjacency=edges,
            )
