"""The set-partition table, the independent-set table and the bitmask
connectivity test shared across the package."""

from __future__ import annotations

from functools import cache
from typing import Sequence


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


def independent_set_table(adj: Sequence[int]) -> list[bool]:
    """independent[S] for every vertex mask S below 2^len(adj): whether no
    two vertices of S are adjacent, built up over the low bit of S."""
    independent = [True] * (1 << len(adj))
    for s in range(1, len(independent)):
        low = s & -s
        independent[s] = independent[s ^ low] and not adj[low.bit_length() - 1] & s
    return independent


def mask_connected(adj: Sequence[int], mask: int) -> bool:
    """Whether the nonempty vertex set `mask` induces a connected subgraph."""
    reach = mask & -mask
    while True:
        frontier = 0
        m = reach
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            frontier |= adj[v]
        new = (reach | frontier) & mask
        if new == reach:
            return new == mask
        reach = new
