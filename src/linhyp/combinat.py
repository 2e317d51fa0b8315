"""Small combinatorial generators and the bitmask connectivity test shared
across the package."""

from __future__ import annotations

from functools import cache
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def set_partitions(items: Sequence[T]) -> Iterator[list[tuple[T, ...]]]:
    """All set partitions of `items`, as lists of blocks (tuples).

    Enumerated via restricted-growth strings in lexicographic order, so the
    output order is deterministic and allocation stays modest.  The empty
    sequence has exactly one partition: the empty one.
    """
    n = len(items)
    if n == 0:
        yield []
        return
    # rgs[i] = block index of items[i]; rgs[0] = 0; rgs[i] <= max(rgs[:i]) + 1
    rgs = [0] * n
    maxes = [0] * n  # maxes[i] = max(rgs[:i+1])
    while True:
        nblocks = maxes[n - 1] + 1
        blocks: list[list[T]] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(items[i])
        yield [tuple(b) for b in blocks]
        # advance to the next restricted-growth string
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


@cache
def set_partition_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """The set partitions of range(n) in `set_partitions` order, each as a
    tuple of block bitmasks (bit i set when item i is in the block).

    Built once per n and kept: a bitmask table lets a caller score every
    partition of many equal-sized sets by table lookups instead of
    regenerating the partitions for each set.
    """
    return tuple(
        tuple(sum(1 << i for i in block) for block in part)
        for part in set_partitions(range(n))
    )


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
