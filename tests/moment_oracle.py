"""Exact joint moments and joint cumulants of forbidden-copy indicators.

A test oracle: the package's engines inline their moments, and these
per-copy-set forms check them independently.  Each hyperedge of the host
is present independently with probability p, so the joint moment of a set
of copy indicators is p raised to the number of distinct hyperedges those
copies use.  Joint cumulants follow from the partition-lattice
alternating sum over moments.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from linhyp.combinat import set_partitions
from linhyp.errors import ValidationError
from linhyp.hypergraph import ForbiddenCopy
from linhyp.polynomial import Polynomial

class FactorisationPreconditionError(ValidationError):
    """The polymer family handed to the factorisation check is not pairwise
    separated in the dependency graph (distance <= 1 somewhere)."""


#: Cumulants enumerate all set partitions, which grows like the Bell numbers.
CUMULANT_SIZE_CAP = 10


def moment_exponent(indices: Iterable[int], copies: Sequence[ForbiddenCopy]) -> int:
    edges: set[tuple[int, ...]] = set()
    for i in indices:
        edges.add(copies[i].e1)
        edges.add(copies[i].e2)
    return len(edges)


def joint_moment(indices: Iterable[int], copies: Sequence[ForbiddenCopy]) -> Polynomial:
    """E[product of indicators] = p^(distinct hyperedges); 1 for the empty set."""
    idx = tuple(indices)
    if not idx:
        return Polynomial.one()
    return Polynomial({moment_exponent(idx, copies): 1})


def joint_cumulant(indices: Iterable[int], copies: Sequence[ForbiddenCopy]) -> Polynomial:
    """Partition-lattice cumulant: sum over partitions of
    (-1)^(blocks-1) (blocks-1)! times the product of block moments."""
    idx = tuple(indices)
    if not idx:
        raise ValidationError("cumulant of the empty set is not used")
    if len(idx) > CUMULANT_SIZE_CAP:
        raise ValidationError(
            f"cumulant size {len(idx)} exceeds cap {CUMULANT_SIZE_CAP}"
        )
    out = Polynomial.zero()
    for part in set_partitions(idx):
        blocks = len(part)
        coeff = (-1) ** (blocks - 1) * math.factorial(blocks - 1)
        power = sum(moment_exponent(block, copies) for block in part)
        out = out + Polynomial({power: coeff})
    return out


def factorisation_check(
    polymer_family: Sequence[Sequence[int]],
    copies: Sequence[ForbiddenCopy],
    *,
    require_separated: bool = True,
) -> bool:
    """Does the moment of the union factor into the per-polymer moments?

    The factorisation is guaranteed when the polymers are pairwise at
    distance greater than one in the dependency graph; violating that
    precondition is reported as its own error type unless the caller opts
    out (tests use that to exhibit the failure mode).
    """
    family = [tuple(p) for p in polymer_family]
    if require_separated:
        for i in range(len(family)):
            set_i = set(family[i])
            edges_i = {e for c in family[i] for e in (copies[c].e1, copies[c].e2)}
            for j in range(i + 1, len(family)):
                if set_i & set(family[j]):
                    raise FactorisationPreconditionError(
                        f"polymers {i} and {j} share copies"
                    )
                edges_j = {e for c in family[j] for e in (copies[c].e1, copies[c].e2)}
                if edges_i & edges_j:
                    raise FactorisationPreconditionError(
                        f"polymers {i} and {j} are at dependency distance <= 1"
                    )
    union: list[int] = []
    for p in family:
        union.extend(p)
    lhs = joint_moment(union, copies)
    rhs = Polynomial.one()
    for p in family:
        rhs = rhs * joint_moment(p, copies)
    return lhs == rhs
