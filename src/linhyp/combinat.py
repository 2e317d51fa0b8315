"""Set operations on bitmasks shared across the package: the set bits of
a mask, the unions over all subsets, the meeting graph (two items meet
when their masks intersect: copies that share a hyperedge, blocks whose
unions meet, host edges that one copy holds), the set-partition table and
the connectivity test."""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence


#: The most items whose set-partition row `expansion.cumulant_sum` builds:
#: Bell(8) = 4,140 partitions, each summed once per polymer of that size.
#: Rows grow about fivefold per item (Bell(10) = 115,975), and Bell(15),
#: about 1.4e9, no longer fits in memory, so a larger polymer size is
#: refused before its row is built.
MAX_PARTITION_ITEMS = 8


@cache
def set_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """The set partitions of range(n), each a tuple of block bitmasks (bit i
    set when item i is in the block), built once per n and kept.

    The order is the lexicographic order of restricted-growth strings:
    item n - 1 joins each block of each partition of range(n - 1) in turn,
    then opens a block of its own, and blocks are listed by their least
    item.  range(0) has exactly one partition, the empty one.
    """
    if n == 0:
        return ((),)
    bit = 1 << (n - 1)
    grown: list[tuple[int, ...]] = []
    for part in set_partitions(n - 1):
        grown += [part[:b] + (part[b] | bit,) + part[b + 1 :] for b in range(len(part))]
        grown.append(part + (bit,))
    return tuple(grown)


def members(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_unions(masks: Iterable[int]) -> list[int]:
    """unions[S] = the union of the masks whose positions are the bits of S."""
    unions = [0]
    for m in masks:
        unions += [u | m for u in unions]
    return unions


def meeting_masks(masks: Sequence[int]) -> tuple[int, ...]:
    """Neighbour masks of the graph on the items of `masks` in which two
    items are adjacent when their masks intersect.  Quadratic in the
    number of items, so it serves short lists."""
    return tuple(
        sum(1 << j for j, other in enumerate(masks) if j != i and m & other)
        for i, m in enumerate(masks)
    )


def mask_connected(adj: Sequence[int], mask: int) -> bool:
    """Whether the nonempty vertex set `mask` induces a connected subgraph."""
    reach = mask & -mask
    while True:
        frontier = 0
        for v in members(reach):
            frontier |= adj[v]
        new = (reach | frontier) & mask
        if new == reach:
            return new == mask
        reach = new
