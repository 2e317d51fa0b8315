"""Dependency graph construction and polymer/cluster enumeration.

The brute-force enumerators at the end of this file (a visited-set
frontier growth and a disjoint-cluster stream) are independent oracles for
the package's one connected-set walk.  `polymers_up_to` there is the
capped polymer stream that only the tests consume.
"""

import tracemalloc
from dataclasses import dataclass
from typing import Iterator, Sequence

import pytest

from linhyp.dependency import (
    DependencyGraph,
    _connected_set_masks,
    _mask_to_members,
    dependency_graph_for,
)
from linhyp.errors import CapExceededError, ValidationError
from linhyp.hypergraph import enumerate_forbidden_copies
from reference import adjacency, adjacent, forbidden_copy, is_connected, set_partitions


def path_graph(k):
    """A real dependency graph whose adjacency is a path 0-1-...-k-1.

    Copy i pairs the triples {i,i+1,i+2} and {i+1,i+2,i+3}; consecutive
    copies share a triple, others do not.
    """
    copies = [
        forbidden_copy((i, i + 1, i + 2), (i + 1, i + 2, i + 3))
        for i in range(1, k + 1)
    ]
    d = DependencyGraph(copies)
    expect = [
        ((1 << (i - 1)) if i > 0 else 0) | ((1 << (i + 1)) if i + 1 < k else 0)
        for i in range(k)
    ]
    assert adjacency(d) == expect
    return d


def triangle_graph():
    """Three copies pairwise sharing a triple."""
    copies = [
        forbidden_copy((1, 2, 3), (2, 3, 4)),
        forbidden_copy((1, 2, 3), (2, 3, 5)),
        forbidden_copy((2, 3, 4), (2, 3, 5)),
    ]
    d = DependencyGraph(copies)
    assert adjacency(d) == [0b110, 0b101, 0b011]
    return d


class TestBuild:
    def test_shared_edge_adjacency_matches_bruteforce(self):
        # the dumped neighbour lists, read off the walk, against the pairs
        # of copies that share a hyperedge
        for n in (4, 5, 6):
            copies = enumerate_forbidden_copies(n, 3)
            dumped = _parse_dump(DependencyGraph(copies).dump_adjacency())
            for i in range(len(copies)):
                for j in range(i + 1, len(copies)):
                    shared = bool(
                        set(copies[i].edge_pair) & set(copies[j].edge_pair)
                    )
                    assert (j in dumped[i]) == shared
                    assert (i in dumped[j]) == shared

    def test_graph_holds_no_pairwise_adjacency(self):
        # one two-bit hyperedge mask per copy: the 10,920 copies at n = 16
        # hold 1.9 MiB, where an m-bit adjacency mask per copy held 12.6 MiB
        tracemalloc.start()
        try:
            d = dependency_graph_for(16, 3)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d) == 10920
        assert held < 4 * 2**20

    def test_n4_degrees(self):
        d = dependency_graph_for(4, 3)
        assert [len(nbrs) for nbrs in _parse_dump(d.dump_adjacency())] == [4] * 6

    def test_single_copy(self):
        d = DependencyGraph([forbidden_copy((1, 2, 3), (2, 3, 4))])
        assert len(d) == 1 and adjacency(d) == [0]
        assert d.dump_adjacency() == "0: \n"

    def test_disjoint_edge_sets_not_adjacent(self):
        a = forbidden_copy((1, 2, 3), (2, 3, 4))
        b = forbidden_copy((1, 5, 6), (5, 6, 7))
        d = DependencyGraph([a, b])
        assert adjacency(d) == [0, 0]
        assert d.dump_adjacency() == "0: \n1: \n"

    def test_symmetric_irreflexive(self):
        d = dependency_graph_for(5, 3)
        dumped = _parse_dump(d.dump_adjacency())
        assert len(dumped) == len(d)
        for i, (nbrs, expect) in enumerate(zip(dumped, adjacency(d))):
            assert nbrs == [j for j in range(len(d)) if expect >> j & 1]
            assert i not in nbrs
            for j in nbrs:
                assert i in dumped[j]


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
            assert is_connected(d, p.members)

    def test_matches_reference_enumerator(self):
        # frontier growth with a visited set, on real and synthetic graphs
        for d in (dependency_graph_for(4, 3), path_graph(6)):
            for k in (1, 2, 3, 4):
                fast = {(m, s) for m, s, _, _ in _connected_set_masks(d.copy_edge_masks, k)}
                ref = connected_sets_reference(adjacency(d), k)
                assert fast == ref

    def test_stream_is_duplicate_free(self):
        d = dependency_graph_for(5, 3)
        seen = set()
        for mask, _s, _e, _key in _connected_set_masks(d.copy_edge_masks, 3):
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
        ref = connected_sets_reference(adjacency(d), 3)
        for root in range(len(d)):
            walked = [
                (m, s)
                for m, s, _, _ in _connected_set_masks(d.copy_edge_masks, 3, roots=[root])
            ]
            assert len(walked) == len(set(walked))
            assert set(walked) == {(m, s) for m, s in ref if m >> root & 1}

    def test_pinned_walk_prunes_on_the_edge_budget(self):
        d = dependency_graph_for(6, 3)
        em = d.copy_edge_masks
        ref = connected_sets_reference(adjacency(d), 3)
        for root in (0, 17, 89):
            walked = {
                (m, s, u)
                for m, s, u, _ in _connected_set_masks(em, 3, edge_budget=4, roots=[root])
            }
            expect = set()
            for m, s in ref:
                union = 0
                for i in _mask_to_members(m):
                    union |= em[i]
                if m >> root & 1 and union.bit_count() <= 4:
                    expect.add((m, s, union))
            assert walked == expect

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("mode", ["all-roots", "pinned", "budgeted"])
    def test_walk_key_decodes_to_the_members_masks(self, n, mode):
        # the key is the members' masks in walk order, hyperedges labelled
        # by first meeting; rebuilding that order member by member and
        # decoding the key with it gives back exactly the members' masks
        d = dependency_graph_for(n, 3)
        em = d.copy_edge_masks
        roots = [0, len(d) - 1] if mode != "all-roots" else None
        budget = 4 if mode == "budgeted" else None
        walked = 0
        for root in roots or [None]:
            pinned = None if root is None else [root]
            for m, s, u, key in _connected_set_masks(em, 4, edge_budget=budget, roots=pinned):
                members = [em[i] for i in _mask_to_members(m)]
                # the walk starts from its root, or from the lowest member
                first = em[root] if root is not None else members[0]
                assert key[0] == (1 << first.bit_count()) - 1
                rest = [x for x in members if x != first]
                found = walk_order(key, rest, (first,), _mask_to_members(first))
                assert found is not None, (m, key)
                order, met = found
                decoded = [sum(1 << met[i] for i in _mask_to_members(k)) for k in key]
                assert decoded == order and sorted(decoded) == sorted(members)
                assert len(key) == s and sum(1 << e for e in met) == u
                walked += 1
        assert walked > 0

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
            [forbidden_copy((1, 2, 3), (2, 3, 4))]
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
            adj = adjacency(d)
            for mask in range(1, 1 << len(d)):
                members = tuple(i for i in range(len(d)) if mask >> i & 1)
                if len(members) > k or not _is_conn(adj, members):
                    continue
                for part in set_partitions(members):
                    if all(_is_conn(adj, b) for b in part):
                        expect += 1
            got = sum(1 for _ in clusters_disjoint(d, k))
            assert got == expect

    def test_total_size_and_union(self):
        d = dependency_graph_for(4, 3)
        for c in clusters_disjoint(d, 3):
            union = sorted(i for p in c.polymers for i in p.members)
            assert len(union) == len(set(union)) == c.total_size()
            assert is_connected(d, union)

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
                crossing = any(adjacent(d, x, y) for x in a for y in b)
                assert is_connected(d, tuple(set(a) | set(b))) == crossing
                checked += 1
        assert checked > 100


def _is_conn(adj, members):
    if not members:
        return False
    reach = {members[0]}
    frontier = [members[0]]
    mset = set(members)
    while frontier:
        v = frontier.pop()
        for u in mset:
            if u not in reach and adj[v] >> u & 1:
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
    for mask, _size, _em, _key in _connected_set_masks(d.copy_edge_masks, k):
        count += 1
        if cap is not None and count > cap:
            raise CapExceededError(
                f"polymer enumeration exceeded cap {cap}", cap=cap, max_size=k
            )
        yield Polymer(members=_mask_to_members(mask))


def walk_order(key, candidates, order, met):
    """(masks, hyperedges): `order` extended by every mask of `candidates`,
    in an order whose masks, relabelled by first meeting, are `key`, and
    its hyperedges in that first-meeting order (`met` holds those of
    `order`); None when no order fits.  This is the walk's order, up to
    members that relabel alike."""
    if len(order) == len(key):
        return None if candidates else (list(order), list(met))
    for c in candidates:
        new_met = list(met)
        label = 0
        for e in _mask_to_members(c):
            if e not in new_met:
                new_met.append(e)
            label |= 1 << new_met.index(e)
        if label == key[len(order)]:
            rest = [x for x in candidates if x != c]
            found = walk_order(key, rest, order + (c,), new_met)
            if found is not None:
                return found
    return None


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
        if all(is_connected(d, block) for block in part):
            yield part


def closeness_edges(
    d: DependencyGraph, blocks: Sequence[tuple[int, ...]]
) -> frozenset[tuple[int, int]]:
    """Edges between disjoint blocks that are within distance one."""
    edges = set()
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if any(adjacent(d, x, y) for x in blocks[i] for y in blocks[j]):
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
    for mask, _size, _em, _key in _connected_set_masks(d.copy_edge_masks, k):
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
