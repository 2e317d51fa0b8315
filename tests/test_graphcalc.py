"""Chromatic polynomials, Ursell weights, and the partition identity."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from linhyp.errors import ValidationError
from linhyp.graphcalc import (
    SimpleGraph,
    all_graphs,
    chromatic_polynomial,
    chromatic_via_partitions,
    chromatic_via_whitney,
    complete_graph_ursell,
    connected_graphs,
    independent_partition_identity,
    ursell,
    ursell_direct,
)
from linhyp.polynomial import Polynomial


def canonical_key(v, edges):
    """Lexicographically-least relabelling of the edge set of a graph on [v]."""
    return min(
        tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in edges))
        for perm in permutations(range(1, v + 1))
    )


def poly(d):
    return Polynomial(d)


class TestChromatic:
    def test_triangle(self):
        g = SimpleGraph.complete(3)
        assert chromatic_polynomial(g) == poly({3: 1, 2: -3, 1: 2})

    def test_path3(self):
        g = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        assert chromatic_polynomial(g) == poly({3: 1, 2: -2, 1: 1})

    def test_single_vertex(self):
        assert chromatic_polynomial(SimpleGraph(v=1, edges=frozenset())) == poly({1: 1})

    def test_whitney_examples(self):
        assert chromatic_via_whitney(SimpleGraph.complete(3)) == poly({3: 1, 2: -3, 1: 2})
        assert chromatic_via_whitney(SimpleGraph(v=4, edges=frozenset())) == poly({4: 1})
        assert chromatic_via_whitney(SimpleGraph.complete(2)) == poly({2: 1, 1: -1})

    def test_partition_form_examples(self):
        assert chromatic_via_partitions(SimpleGraph.complete(3)) == poly(
            {3: 1, 2: -3, 1: 2}
        )
        assert chromatic_via_partitions(SimpleGraph(v=2, edges=frozenset())) == poly({2: 1})
        # path on 3 vertices: [x]_3 + [x]_2
        assert chromatic_via_partitions(
            SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        ) == poly({3: 1, 2: -2, 1: 1})

    def test_three_ways_agree_exhaustive_small(self):
        for v in range(1, 6):
            for g in all_graphs(v):
                a = chromatic_polynomial(g)
                assert a == chromatic_via_whitney(g)
                assert a == chromatic_via_partitions(g)

    def test_three_ways_agree_random_v_up_to_9(self):
        rnd = random.Random(20260808)
        for _ in range(200):
            v = rnd.randint(2, 9)
            pairs = list(combinations(range(1, v + 1), 2))
            # keep the 2^e oracle affordable
            e = rnd.randint(0, min(13, len(pairs)))
            edges = rnd.sample(pairs, e)
            g = SimpleGraph.from_edges(v, edges)
            a = chromatic_polynomial(g)
            assert a == chromatic_via_whitney(g)
            assert a == chromatic_via_partitions(g)

    def test_label_invariance(self):
        rnd = random.Random(5)
        g = SimpleGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)])
        perm = list(range(1, 7))
        rnd.shuffle(perm)
        relabeled = SimpleGraph.from_edges(
            6, [(perm[a - 1], perm[b - 1]) for a, b in g.edges]
        )
        assert canonical_key(6, g.edges) == canonical_key(6, relabeled.edges)
        assert chromatic_polynomial(g) == chromatic_polynomial(relabeled)

    def test_degree_and_leading_coeff(self):
        for g in all_graphs(4):
            c = chromatic_polynomial(g)
            assert c.degree() == 4
            assert c.coeff(4) == 1

    def test_whitney_edge_cap(self):
        with pytest.raises(ValidationError):
            chromatic_via_whitney(SimpleGraph.complete(7))

    def test_partitions_vertex_cap(self):
        with pytest.raises(ValidationError):
            chromatic_via_partitions(SimpleGraph(v=11, edges=frozenset()))


class TestUrsell:
    def test_base_cases(self):
        assert ursell(SimpleGraph.complete(1)) == 1
        assert ursell(SimpleGraph.complete(2)) == -1

    @pytest.mark.parametrize("m", range(1, 8))
    def test_complete_graphs_direct(self, m):
        assert ursell_direct(SimpleGraph.complete(m)) == complete_graph_ursell(m)

    def test_chromatic_route_equals_direct_v_up_to_5(self):
        for v in range(1, 6):
            for g in connected_graphs(v):
                assert ursell(g) == ursell_direct(g)

    def test_equals_linear_chromatic_coefficient(self):
        for g in connected_graphs(4):
            assert ursell(g) == chromatic_polynomial(g).coeff(1)

    def test_rejects_disconnected(self):
        g = SimpleGraph(v=3, edges=frozenset({(1, 2)}))
        with pytest.raises(ValidationError):
            ursell(g)
        with pytest.raises(ValidationError):
            ursell_direct(g)


class TestPartitionIdentity:
    def test_k2_and_k3(self):
        assert independent_partition_identity(SimpleGraph.complete(2))
        assert independent_partition_identity(SimpleGraph.complete(3))

    def test_all_connected_up_to_5(self):
        for v in range(1, 6):
            for g in connected_graphs(v):
                assert independent_partition_identity(g)

    def test_complete_graph_values(self):
        assert complete_graph_ursell(3) == Fraction(2)
        assert complete_graph_ursell(4) == Fraction(-6)
