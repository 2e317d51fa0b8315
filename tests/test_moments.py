"""Joint moments, joint cumulants, and the factorisation property."""

from fractions import Fraction

import pytest

from linhyp.dependency import _connected_set_masks, _mask_to_members, dependency_graph_for
from linhyp.errors import ValidationError
from linhyp.hypergraph import enumerate_forbidden_copies
from linhyp.polynomial import Polynomial
from moment_oracle import (
    FactorisationPreconditionError,
    factorisation_check,
    joint_cumulant,
    joint_moment,
)
from reference import forbidden_copy as copy, is_connected, set_partitions, span


SHARING = [copy((1, 2, 3), (2, 3, 4)), copy((2, 3, 4), (3, 4, 5))]
DISJOINT = [copy((1, 2, 3), (2, 3, 4)), copy((1, 5, 6), (5, 6, 7))]


class TestJointMoment:
    def test_single_copy(self):
        assert joint_moment([0], SHARING) == Polynomial({2: 1})

    def test_pair_sharing_an_edge(self):
        assert joint_moment([0, 1], SHARING) == Polynomial({3: 1})

    def test_pair_edge_disjoint(self):
        assert joint_moment([0, 1], DISJOINT) == Polynomial({4: 1})

    def test_empty_set_is_one(self):
        assert joint_moment([], SHARING) == Polynomial.one()

    def test_exponent_bounds_over_polymers(self):
        d = dependency_graph_for(5, 3)
        for mask, size, _em, _key in _connected_set_masks(d.copy_edge_masks, 3):
            m = joint_moment(_mask_to_members(mask), d.copies).degree()
            assert 2 <= m <= 2 * size
            if size >= 2:
                assert m < 2 * size


class TestJointCumulant:
    def test_singleton(self):
        assert joint_cumulant([0], SHARING) == Polynomial({2: 1})

    def test_non_adjacent_pair_vanishes(self):
        assert joint_cumulant([0, 1], DISJOINT) == Polynomial.zero()

    def test_sharing_pair(self):
        assert joint_cumulant([0, 1], SHARING) == Polynomial({3: 1, 4: -1})

    def test_vanishes_on_disconnected_probes(self):
        d = dependency_graph_for(6, 3)
        import random

        rnd = random.Random(99)
        found = 0
        while found < 20:
            picks = rnd.sample(range(len(d.copies)), 3)
            if is_connected(d, picks):
                continue
            found += 1
            assert joint_cumulant(picks, d.copies) == Polynomial.zero()

    def test_moebius_inverse_recovers_moment(self):
        # sum over partitions of products of cumulants gives the moment
        d = dependency_graph_for(6, 3)
        checked = 0
        for mask, size, _em, _key in _connected_set_masks(d.copy_edge_masks, 4):
            if size < 2:
                continue
            members = _mask_to_members(mask)
            total = Polynomial.zero()
            for part in set_partitions(members):
                prod = Polynomial.one()
                for block in part:
                    prod = prod * joint_cumulant(block, d.copies)
                total = total + prod
            assert total == joint_moment(members, d.copies)
            checked += 1
            if checked >= 40:
                break
        assert checked == 40

    def test_size_cap(self):
        copies = enumerate_forbidden_copies(6, 3)
        with pytest.raises(ValidationError):
            joint_cumulant(range(11), copies)


class TestFactorisation:
    def test_two_edge_disjoint_copies(self):
        assert factorisation_check([[0], [1]], DISJOINT)

    def test_three_pairwise_disjoint(self):
        copies = [
            copy((1, 2, 3), (2, 3, 4)),
            copy((5, 6, 7), (6, 7, 8)),
            copy((9, 10, 11), (10, 11, 12)),
        ]
        assert factorisation_check([[0], [1], [2]], copies)

    def test_violated_precondition_raises(self):
        with pytest.raises(FactorisationPreconditionError):
            factorisation_check([[0], [1]], SHARING)

    def test_negative_control_shows_failure(self):
        # with the guard off, edge-sharing copies break the factorisation
        assert not factorisation_check([[0], [1]], SHARING, require_separated=False)
        lhs = joint_moment([0, 1], SHARING)
        assert lhs == Polynomial({3: 1})
        assert joint_moment([0], SHARING) * joint_moment([1], SHARING) == Polynomial(
            {4: 1}
        )

    def test_polymer_families(self):
        d = dependency_graph_for(8, 3)
        # two polymers far apart: copies supported on disjoint vertex sets
        left = [i for i, c in enumerate(d.copies) if set(span(c)) <= {1, 2, 3, 4}]
        right = [i for i, c in enumerate(d.copies) if set(span(c)) <= {5, 6, 7, 8}]
        assert left and right
        assert factorisation_check([left[:2], right[:1]], d.copies)


class TestFractions:
    def test_exactness(self):
        k = joint_cumulant([0, 1], SHARING)
        assert k(Fraction(1, 3)) == Fraction(1, 27) - Fraction(1, 81)
