"""Expansion terms, symbolic series, and the consistency identities.

The per-order values asserted here were computed two independent ways
before being frozen: by the partition-lattice cumulant identity (the
truncated expansion through order k equals the alternating cumulant sum
through size k-1) and by direct brute-force enumeration of polymers and
their partitions on the small instances.
"""

from fractions import Fraction

import pytest

from linhyp.combinat import set_partitions
from linhyp.dependency import DependencyGraph, dependency_graph_for
from linhyp import expansion
from linhyp.errors import CapExceededError, LinhypError, ValidationError
from linhyp.expansion import (
    _sample_power_sums,
    _solve_falling_basis,
    cumulant_sum,
    expansion_term,
    hard_core_polynomial,
    inclusion_exclusion_polynomial,
    independent_truncated_series,
    interpolated_series_grouped,
    log_taylor_truncated,
    moment_sum,
    per_n_power_sums,
    structural_series_grouped,
    symbolic_series,
    truncated_expansion,
)
from linhyp.graphcalc import SimpleGraph, ursell
from linhyp.hypergraph import enumerate_forbidden_copies
from linhyp.oracle import exact_linearity_polynomial
from linhyp.polynomial import Polynomial, SeriesTerm, evaluate_series, falling_factorial
from moment_oracle import joint_moment


def brute_force_term(d, order):
    """Independent oracle: enumerate copy sets of the exact size directly,
    keep the connected ones, partition them into connected blocks, and
    weigh by hand."""
    from itertools import combinations

    total = Polynomial.zero()
    for members in combinations(range(len(d)), order):
        if not d.is_connected(members):
            continue
        for part in set_partitions(members):
            if not all(d.is_connected(b) for b in part):
                continue
            blocks = [tuple(b) for b in part]
            phi = _phi_brute(d, blocks)
            power = sum(joint_moment(b, d.copies).degree() for b in blocks)
            total = total + Polynomial({power: phi * (-1) ** order})
    return total


def _phi_brute(d, blocks):
    if len(blocks) == 1:
        return Fraction(1)
    edges = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if any(d.adj_masks[a] >> b & 1 for a in blocks[i] for b in blocks[j]):
                edges.append((i + 1, j + 1))
    return ursell(SimpleGraph.from_edges(len(blocks), edges))


class TestExpansionTerms:
    def test_order1_n6(self):
        d = dependency_graph_for(6, 3)
        assert expansion_term(d, 1) == Polynomial({2: -90})

    def test_order1_is_minus_singleton_moments(self):
        d = dependency_graph_for(5, 3)
        expect = Polynomial.zero()
        for i in range(len(d)):
            expect = expect - joint_moment([i], d.copies)
        assert expansion_term(d, 1) == expect

    def test_order2_n6(self):
        # size-2 polymers contribute +p^3 each; the same index pairs split
        # into two adjacent singletons contribute -p^4 each.  720 of each.
        d = dependency_graph_for(6, 3)
        assert expansion_term(d, 2) == Polynomial({3: 720, 4: -720})

    def test_order4_n6_and_cap_counts_polymers(self):
        # frozen from cumulant_sum(d6, 4) - cumulant_sum(d6, 3), the
        # independent per-polymer engine over all set partitions; 79380
        # polymers of size 4 share 47 shapes, and the cap counts polymers
        d = dependency_graph_for(6, 3)
        expect = Polynomial({4: 3060, 5: 73800, 6: -290160, 7: 349200, 8: -135900})
        with pytest.raises(CapExceededError) as err:
            expansion_term(d, 4, cap=79379)
        assert err.value.context["order"] == 4
        assert expansion_term(d, 4, cap=79380) == expect

    def test_orders_match_bruteforce_n4(self):
        d = dependency_graph_for(4, 3)
        for order in (1, 2, 3, 4):
            assert expansion_term(d, order) == brute_force_term(d, order)

    def test_orders_match_bruteforce_n5(self):
        d = dependency_graph_for(5, 3)
        for order in (1, 2, 3, 4):
            assert expansion_term(d, order) == brute_force_term(d, order)

    def test_truncation_sums_orders(self):
        d = dependency_graph_for(5, 3)
        assert truncated_expansion(d, 2) == expansion_term(d, 1)
        assert truncated_expansion(d, 4) == (
            expansion_term(d, 1) + expansion_term(d, 2) + expansion_term(d, 3)
        )

    def test_cap_reports_partial_order(self):
        d = dependency_graph_for(6, 3)
        with pytest.raises(CapExceededError) as err:
            truncated_expansion(d, 4, cap=100)
        assert err.value.context["partial_order"] >= 2
        assert err.value.context["completed_orders"] == [1]

    def test_validation(self):
        d = dependency_graph_for(4, 3)
        with pytest.raises(ValidationError):
            expansion_term(d, 0)
        with pytest.raises(ValidationError):
            truncated_expansion(d, 1)


class TestCumulantClusterIdentity:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identity(self, n, k):
        d = dependency_graph_for(n, 3)
        assert truncated_expansion(d, k + 1) == cumulant_sum(d, k)

    def test_base_case(self):
        d = dependency_graph_for(5, 3)
        assert cumulant_sum(d, 1) == Polynomial({2: -30})


class TestMomentSum:
    def test_singletons(self):
        d = dependency_graph_for(6, 3)
        assert moment_sum(d, 1) == Polynomial({2: 90})

    def test_size2_n5_matches_pair_scan(self):
        d = dependency_graph_for(5, 3)
        expect = Polynomial.zero()
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d.adj_masks[i] >> j & 1:
                    expect = expect + joint_moment([i, j], d.copies)
        assert moment_sum(d, 2) == expect

    def test_matches_polymer_stream(self):
        # every connected 3-set of copies, found by brute force
        from itertools import combinations

        d = dependency_graph_for(5, 3)
        expect = Polynomial.zero()
        for members in combinations(range(len(d)), 3):
            if d.is_connected(members):
                expect = expect + joint_moment(members, d.copies)
        assert moment_sum(d, 3) == expect


def all_roots_graph(n, r):
    """The complete host's graph without its orbits: walked from every root."""
    return DependencyGraph(enumerate_forbidden_copies(n, r))


#: (n, r, highest order): (3, 3) has no copies, r = 4 has two copy orbits
#: and r = 5 three.  The all-roots side bounds the order: at (7, 4) order 4
#: and (8, 5) order 3 it takes minutes.
ORBIT_CASES = [(3, 3, 4), (5, 3, 4), (6, 3, 4), (7, 3, 4), (6, 4, 4), (7, 4, 3), (8, 5, 2)]


class TestOrbitWalk:
    """One root per copy orbit against the all-roots walk, on equal inputs."""

    @pytest.mark.parametrize("n, r, top", ORBIT_CASES)
    def test_expansion_term(self, n, r, top):
        orbit, every = dependency_graph_for(n, r), all_roots_graph(n, r)
        assert every.orbits is None
        for order in range(1, top + 1):
            assert expansion_term(orbit, order) == expansion_term(every, order)

    def test_expansion_term_order5_n6(self):
        got = expansion_term(dependency_graph_for(6, 3), 5)
        assert got == expansion_term(all_roots_graph(6, 3), 5)

    @pytest.mark.parametrize("n, r, top", ORBIT_CASES)
    def test_moment_sum(self, n, r, top):
        orbit, every = dependency_graph_for(n, r), all_roots_graph(n, r)
        for size in range(1, top + 1):
            assert moment_sum(orbit, size) == moment_sum(every, size)

    @pytest.mark.parametrize(
        "n, r, b",
        [(n, r, b) for n, r, _top in ORBIT_CASES[:5] for b in (3, 4)] + [(7, 4, 3)],
    )
    def test_per_n_power_sums(self, monkeypatch, n, r, b):
        orbit = per_n_power_sums(n, b, r)
        monkeypatch.setattr(expansion, "dependency_graph_for", all_roots_graph)
        assert orbit == per_n_power_sums(n, b, r)

    def test_cap_counts_polymers_across_orbits(self):
        # two orbits at (7, 4); the polymer count comes from the all-roots walk
        d = dependency_graph_for(7, 4)
        count = int(sum(moment_sum(all_roots_graph(7, 4), 3).coeffs.values()))
        for engine, key in ((expansion_term, "order"), (moment_sum, "size")):
            with pytest.raises(CapExceededError) as err:
                engine(d, 3, cap=count - 1)
            assert err.value.context == {"cap": count - 1, key: 3}
            assert engine(d, 3, cap=count) == engine(d, 3)


class TestSymbolicSeries:
    def test_p2_only(self):
        terms = symbolic_series(max_p_power=2)
        assert terms == [SeriesTerm(coeff=Fraction(-1, 4), n_falling=4, p_power=2)]

    def test_p3_terms(self):
        terms = {(t.n_falling, t.p_power): t.coeff for t in symbolic_series(max_p_power=3)}
        assert terms[(5, 3)] == Fraction(3, 4) - Fraction(1, 12)
        assert terms[(4, 3)] == Fraction(1, 2) - Fraction(1, 6)

    def test_strategies_agree_small(self):
        for b in (2, 3):
            assert structural_series_grouped(b) == interpolated_series_grouped(b)

    @pytest.mark.parametrize("max_p_power", [3, 4])
    def test_grouped_matches_per_n_evaluation(self, max_p_power):
        # evaluating the structural series at a concrete n reproduces the
        # exact per-n power sums, for every (power, size) group; at b = 4
        # polymers with a union under the budget take the shape path
        grouped = structural_series_grouped(max_p_power)
        for n in (5, 6, 7):
            per_n = per_n_power_sums(n, max_p_power)
            expect: dict = {}
            for (a, b, s), c in grouped.items():
                v = c * falling_factorial(n, a)
                if v:
                    expect[(b, s)] = expect.get((b, s), Fraction(0)) + v
            expect = {k: v for k, v in expect.items() if v != 0}
            assert per_n == expect

    def test_spanning_triple_sets_match_combination_filter(self):
        # reference: every combination of E triples on [v], kept when the
        # triples cover [v] and are connected under sharing 2 vertices
        from itertools import combinations

        def conflict_connected(edge_sets):
            m = len(edge_sets)
            adj = [0] * m
            for i in range(m):
                for j in range(i + 1, m):
                    if len(edge_sets[i] & edge_sets[j]) >= 2:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            reach = 1
            while True:
                new = reach
                mm = reach
                while mm:
                    v = (mm & -mm).bit_length() - 1
                    mm &= mm - 1
                    new |= adj[v]
                if new == reach:
                    return reach == (1 << m) - 1
                reach = new

        for v in (4, 5, 6):
            triples = list(combinations(range(v), 3))
            expect = set()
            for n_edges in range(2, 5):
                for edge_set in combinations(triples, n_edges):
                    sets = [frozenset(e) for e in edge_set]
                    if frozenset().union(*sets) == frozenset(range(v)) and (
                        conflict_connected(sets)
                    ):
                        expect.add(frozenset(sum(1 << u for u in e) for e in edge_set))
            walked = list(expansion._spanning_triple_sets(v, 4))
            assert len(walked) == len(expect) > 0
            assert {frozenset(s) for s in walked} == expect

    def test_symbolic_consistent_with_exact_orders(self):
        # the series restricted to one cluster size, evaluated at n=6,
        # agrees with the exact order term up to the power truncation
        n, max_p_power = 6, 4
        d = dependency_graph_for(n, 3)
        grouped = structural_series_grouped(max_p_power)
        for order in (1, 2, 3):
            symbolic_at_n = Polynomial(
                {
                    b: sum(
                        (
                            c * falling_factorial(n, a)
                            for (a, bb, size), c in grouped.items()
                            if bb == b and size == order
                        ),
                        Fraction(0),
                    )
                    for b in range(max_p_power + 1)
                }
            )
            exact = expansion_term(d, order)
            truncated_exact = Polynomial(
                {e: c for e, c in exact.coeffs.items() if e <= max_p_power}
            )
            assert symbolic_at_n == truncated_exact

    def test_undersized_degree_is_caught(self):
        # b = 3 spans up to 5 vertices; a degree-4 fit on n = 3..7 must be
        # contradicted by the check samples at n = 8, 9 for some group
        ns = list(range(3, 10))
        sampled = _sample_power_sums(ns, 3, 3)
        keys = sorted({k for s in sampled.values() for k in s})
        caught = 0
        for key in keys:
            samples = [(n, sampled[n].get(key, Fraction(0))) for n in ns]
            try:
                _solve_falling_basis(samples, 4)
            except LinhypError as exc:
                assert "inconsistent with extra sample" in str(exc)
                caught += 1
        assert caught >= 1

    def test_interpolation_checks_one_sample_past_the_fit(self, monkeypatch):
        # strategy B samples n = 3..b+6 and a wrong last sample is rejected
        seen = []

        def corrupt_last(ns, max_p_power, r):
            seen.append(list(ns))
            sampled = _sample_power_sums(ns, max_p_power, r)
            last = sampled[ns[-1]]
            key = next(iter(last))
            last[key] += 1
            return sampled

        monkeypatch.setattr(expansion, "_interpolated_memo", {})
        monkeypatch.setattr(expansion, "_sample_power_sums", corrupt_last)
        with pytest.raises(LinhypError, match="inconsistent with extra sample"):
            interpolated_series_grouped(3)
        assert seen == [list(range(3, 10))]

    def test_validation(self):
        with pytest.raises(ValidationError):
            symbolic_series(max_p_power=1)
        with pytest.raises(ValidationError):
            symbolic_series(max_p_power=4, r=4)


class TestUntruncatedForms:
    @pytest.mark.parametrize("n", [4, 5])
    def test_all_three_forms_equal(self, n):
        oracle = exact_linearity_polynomial(n, 3)
        assert inclusion_exclusion_polynomial(n, 3) == oracle
        assert hard_core_polynomial(n, 3) == oracle

    def test_hard_core_cap(self):
        with pytest.raises(CapExceededError):
            hard_core_polynomial(6, 3)


class TestIndependentReduction:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_log_series(self, order):
        assert independent_truncated_series(order) == log_taylor_truncated(order)

    def test_sum_over_indicators(self):
        # additivity over independent indicators, at exact rational means
        qs = [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
        series = independent_truncated_series(5)
        taylor = log_taylor_truncated(5)
        assert sum(series(q) for q in qs) == sum(taylor(q) for q in qs)


class TestSeriesEvaluation:
    def test_series_at_n6_matches_budgeted_sum(self):
        terms = symbolic_series(max_p_power=3)
        at6 = evaluate_series(terms, 6)
        per_n = per_n_power_sums(6, 3)
        expect = Polynomial.zero()
        for (b, _s), c in per_n.items():
            expect = expect + Polynomial({b: c})
        assert at6 == expect
