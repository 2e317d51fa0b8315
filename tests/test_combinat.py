"""The shared set operations on bitmasks, against their brute-force
definitions on random masks."""

from functools import reduce
from operator import or_

from hypothesis import given, settings
from hypothesis import strategies as st

from linhyp.combinat import mask_connected, meeting_masks, members, subset_unions

masks = st.lists(st.integers(0, 2**12 - 1), max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**200))
def test_members_are_the_set_bits(mask):
    assert members(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(masks)
def test_subset_unions_are_the_unions_of_the_subsets(ms):
    unions = subset_unions(ms)
    assert len(unions) == 1 << len(ms)
    for s, union in enumerate(unions):
        assert union == reduce(or_, (m for i, m in enumerate(ms) if s >> i & 1), 0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(masks)
def test_meeting_masks_join_the_items_whose_masks_meet(ms):
    adj = meeting_masks(ms)
    assert len(adj) == len(ms)
    for i, a in enumerate(ms):
        for j, b in enumerate(ms):
            assert (adj[i] >> j & 1) == (i != j and a & b != 0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(masks.filter(bool), st.data())
def test_mask_connected_is_reachability_in_the_meeting_graph(ms, data):
    adj = meeting_masks(ms)
    subset = data.draw(st.integers(1, 2 ** len(ms) - 1))
    start = members(subset)[0]
    reach, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for u in members(subset):
            if u not in reach and adj[v] >> u & 1:
                reach.add(u)
                frontier.append(u)
    assert mask_connected(adj, subset) == (len(reach) == len(members(subset)))
