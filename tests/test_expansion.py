"""Expansion terms, symbolic series, and the consistency identities.

The per-order values asserted here were computed two independent ways
before being frozen: by the partition-lattice cumulant identity (the
truncated expansion through order k equals the alternating cumulant sum
through size k-1) and by direct brute-force enumeration of polymers and
their partitions on the small instances.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from linhyp.combinat import MAX_PARTITION_ITEMS, mask_connected
from linhyp.dependency import (
    DependencyGraph,
    _connected_set_masks,
    _mask_to_members,
    dependency_graph_for,
)
from linhyp import expansion
from linhyp.errors import CapExceededError, LinhypError, ValidationError
from linhyp.expansion import (
    HARD_CORE_EDGE_CAP,
    INCLUSION_EXCLUSION_EDGE_CAP,
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
from linhyp.oracle import EXACT_EDGE_CAP, exact_linearity_polynomial
from linhyp.polynomial import Polynomial, SeriesTerm, falling_factorial
from moment_oracle import joint_cumulant, joint_moment
from reference import (
    adjacent,
    connected_copy_set_counts,
    evaluate_series,
    forbidden_copy,
    is_connected,
    set_partitions,
    structural_series_by_triple_sets,
)
from test_dependency import polymers_up_to


def brute_force_term(d, order):
    """Independent oracle: enumerate copy sets of the exact size directly,
    keep the connected ones, partition them into connected blocks, and
    weigh by hand."""
    total = Polynomial.zero()
    for members in combinations(range(len(d)), order):
        if not is_connected(d, members):
            continue
        for part in set_partitions(members):
            if not all(is_connected(d, b) for b in part):
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
            if any(adjacent(d, a, b) for a in blocks[i] for b in blocks[j]):
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

    def test_order4_n6_and_cap_counts_polymers(self, cumulants_d6):
        # the order-4 term is cumulant_sum(d6, 4) - cumulant_sum(d6, 3), the
        # independent per-polymer engine over all set partitions; 79380
        # polymers of size 4 fall into 5 copy-graph types, and the cap
        # counts every polymer the walk passes through on its way to them,
        # 90 + 720 + 7200 + 79380
        d = dependency_graph_for(6, 3)
        expect = Polynomial({4: 3060, 5: 73800, 6: -290160, 7: 349200, 8: -135900})
        assert cumulants_d6[4] - cumulants_d6[3] == expect
        with pytest.raises(CapExceededError) as err:
            expansion_term(d, 4, cap=87389)
        assert err.value.context["order"] == 4
        assert expansion_term(d, 4, cap=87390) == expect

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

    #: (n, b, highest order): the untruncated side bounds the order, since
    #: a budget of b hyperedges allows clusters of up to C(b, 2) copies and
    #: the untruncated order 6 at n = 6 or 7 takes minutes
    @pytest.mark.parametrize(
        "n, b, top", [(5, 3, 3), (6, 3, 3), (7, 3, 3), (5, 4, 6), (6, 4, 5), (7, 4, 4)]
    )
    def test_budget_cuts_the_untruncated_term(self, n, b, top):
        d = dependency_graph_for(n, 3)
        for order in range(1, top + 1):
            whole = expansion_term(d, order)
            cut = Polynomial({e: c for e, c in whole.coeffs.items() if e <= b})
            assert expansion_term(d, order, max_p_power=b) == cut

    def test_validation(self):
        d = dependency_graph_for(4, 3)
        with pytest.raises(ValidationError):
            expansion_term(d, 0)
        with pytest.raises(ValidationError):
            truncated_expansion(d, 1)


@pytest.fixture(scope="module")
def cumulants_d6():
    """cumulant_sum(d6, k) for k = 3, 4, computed once for the module."""
    d = dependency_graph_for(6, 3)
    return {k: cumulant_sum(d, k) for k in (3, 4)}


class TestCumulantClusterIdentity:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identity(self, n, k):
        d = dependency_graph_for(n, 3)
        assert truncated_expansion(d, k + 1) == cumulant_sum(d, k)

    def test_identity_n6_k4(self, cumulants_d6):
        d = dependency_graph_for(6, 3)
        assert truncated_expansion(d, 5) == cumulants_d6[4]

    def test_base_case(self):
        d = dependency_graph_for(5, 3)
        assert cumulant_sum(d, 1) == Polynomial({2: -30})

    def test_weights_build_no_edge_list(self, monkeypatch):
        # the closeness graphs of the cluster weights and the induced
        # conflict graphs of the polymer weights reach ursell as neighbour
        # masks: with the edge-list constructor broken, both still check
        def broken(*args, **kwargs):
            raise AssertionError("a weight path built an edge list")

        monkeypatch.setattr(SimpleGraph, "from_edges", broken)
        expansion._type_weight.cache_clear()
        d5 = dependency_graph_for(5, 3)
        for k in range(1, 5):
            assert truncated_expansion(d5, k + 1) == cumulant_sum(d5, k)
        for n in (4, 5):
            assert hard_core_polynomial(n, 3) == exact_linearity_polynomial(n, 3)


#: connected graphs with k = 1..6 edges (OEIS A002905)
CONNECTED_GRAPHS_BY_EDGES = [1, 1, 3, 5, 12, 30]


@pytest.fixture(scope="module")
def copy_graph_types():
    """{k: the copy-graph types with k copies}: every connected graph with k
    edges, grown one edge at a time and merged by `_copy_graph_type`.  A
    connected graph loses a non-bridge edge, or a leaf with its edge, and
    stays connected, so the growth reaches every one."""
    types = {1: {expansion._copy_graph_type((0b11,))}}
    for k in range(2, len(CONNECTED_GRAPHS_BY_EDGES) + 1):
        grown = set()
        for form in types[k - 1]:
            nv = max(form).bit_length()
            for a in range(nv):
                for b in range(a + 1, nv + 1):
                    if 1 << a | 1 << b not in form:
                        grown.add(expansion._copy_graph_type(form + (1 << a | 1 << b,)))
        types[k] = grown
    return types


def relabelled(form, perm):
    """The edge masks of `form` with vertex v renamed perm[v]."""
    return tuple(
        sum(1 << perm[v] for v in range(len(perm)) if m >> v & 1) for m in form
    )


def all_set_partitions(items):
    """Set partitions of the tuple `items`, by placing the first item."""
    if not items:
        yield []
        return
    for part in all_set_partitions(items[1:]):
        yield [(items[0],)] + part
        for i in range(len(part)):
            yield part[:i] + [(items[0],) + part[i]] + part[i + 1 :]


class TestCopyGraphTypes:
    def test_types_are_the_connected_graphs(self, copy_graph_types):
        counts = [len(copy_graph_types[k]) for k in sorted(copy_graph_types)]
        assert counts == CONNECTED_GRAPHS_BY_EDGES and sum(counts) == 52

    def test_types_are_pairwise_non_isomorphic(self, copy_graph_types):
        # brute force: the least form over every vertex order
        from itertools import permutations

        seen = set()
        for forms in copy_graph_types.values():
            for form in forms:
                nv = max(form).bit_length()
                brute = min(
                    tuple(sorted(relabelled(form, perm))) for perm in permutations(range(nv))
                )
                assert brute not in seen
                seen.add(brute)

    def test_form_ignores_labels_and_member_order(self, copy_graph_types):
        import random

        rng = random.Random(21)
        for forms in copy_graph_types.values():
            for form in forms:
                assert expansion._copy_graph_type(form) == form
                for _ in range(5):
                    perm = list(range(max(form).bit_length()))
                    rng.shuffle(perm)
                    key = list(relabelled(form, perm))
                    rng.shuffle(key)
                    assert expansion._copy_graph_type(tuple(key)) == form

    def test_weight_is_the_signed_joint_cumulant(self, copy_graph_types):
        # two independent formulas per type: phi over the partitions into
        # connected blocks (the table), against all set partitions with
        # Moebius coefficients (-1)^(m-1) (m-1)!, the joint cumulant kappa;
        # both carry the sign (-1)^k of the cluster weight, so kappa is the
        # table entry
        import math

        for forms in copy_graph_types.values():
            for form in forms:
                kappa = Polynomial.zero()
                for part in all_set_partitions(tuple(range(len(form)))):
                    m = len(part)
                    power = 0
                    for block in part:
                        union = 0
                        for i in block:
                            union |= form[i]
                        power += union.bit_count()
                    kappa = kappa + Polynomial({power: (-1) ** (m - 1) * math.factorial(m - 1)})
                assert Polynomial(expansion._type_weight(form)) == kappa, form

    def test_each_type_is_evaluated_once(self, monkeypatch):
        # the 22 walk keys of the order-4 sets at n = 6 fall into 5 types,
        # and a second term reads the table
        calls = []
        evaluate = expansion._partition_contributions

        def counted(form):
            calls.append(form)
            return evaluate(form)

        expansion._type_weight.cache_clear()
        monkeypatch.setattr(expansion, "_partition_contributions", counted)
        d = dependency_graph_for(6, 3)
        keys = expansion._orbit_tally(d, range(4, 5))
        assert len(keys) == 22
        term = expansion_term(d, 4)
        assert expansion_term(d, 4) == term and len(calls) == len(set(calls)) == 5


def cumulant_oracle(d, k):
    """Sum over the polymers of size <= k of (-1)^|C| times the joint
    cumulant of C, each cumulant from the moment oracle's own partition
    sum."""
    total = Polynomial.zero()
    for polymer in polymers_up_to(d, k):
        sign = -1 if len(polymer) & 1 else 1
        total = total + joint_cumulant(polymer.members, d.copies) * sign
    return total


class TestCumulantSum:
    @pytest.mark.parametrize(
        "n, k", [(4, k) for k in (1, 2, 3, 4)] + [(5, k) for k in (1, 2, 3)]
    )
    def test_matches_joint_cumulant_oracle(self, n, k):
        d = dependency_graph_for(n, 3)
        assert cumulant_sum(d, k) == cumulant_oracle(d, k)

    def test_cap_counts_polymers(self):
        d = dependency_graph_for(5, 3)
        count = sum(1 for _ in polymers_up_to(d, 3))
        with pytest.raises(CapExceededError) as err:
            cumulant_sum(d, 3, cap=count - 1)
        assert err.value.context == {"cap": count - 1, "max_size": 3}
        assert cumulant_sum(d, 3, cap=count) == cumulant_sum(d, 3)

    @staticmethod
    def copy_path(length: int) -> DependencyGraph:
        """`length` copies in a row: the triples {i, i+1, i+2} overlap their
        neighbours in two vertices and the triples two along in one."""
        edges = [(i, i + 1, i + 2) for i in range(1, length + 2)]
        return DependencyGraph([forbidden_copy(a, b) for a, b in zip(edges, edges[1:])])

    def test_partition_row_limit(self):
        # a polymer of MAX_PARTITION_ITEMS copies is summed, a larger one is
        # refused before its partition row is built, however large k is
        k = MAX_PARTITION_ITEMS
        d = self.copy_path(k)
        assert cumulant_sum(d, 10**400) == cumulant_sum(d, k) == cumulant_oracle(d, k)
        with pytest.raises(CapExceededError) as err:
            cumulant_sum(self.copy_path(k + 1), 10**400)
        assert err.value.context == {"size": k + 1, "cap": k}

    def test_reads_no_orbit_shape_or_ursell_helper(self, monkeypatch):
        # the cross-check must not share the kernel it checks: with every
        # orbit, shape and Ursell helper broken it still runs, and it gives
        # the same sum on the complete host with and without its orbits
        d = dependency_graph_for(5, 3)
        orbit_free = DependencyGraph(enumerate_forbidden_copies(5, 3))
        expect = cumulant_sum(orbit_free, 3)

        def broken(*args, **kwargs):
            raise AssertionError("cumulant_sum reached a cluster-engine helper")

        for name in (
            "_copy_graph_type",
            "_cluster_sums",
            "_type_weight",
            "_partition_contributions",
            "_meeting_masks",
            "_phi_of_blocks",
            "_orbit_tally",
            "ursell",
        ):
            monkeypatch.setattr(expansion, name, broken)
        monkeypatch.setattr(DependencyGraph, "orbits", property(broken), raising=False)
        assert cumulant_sum(d, 3) == expect


class TestMomentSum:
    def test_singletons(self):
        d = dependency_graph_for(6, 3)
        assert moment_sum(d, 1) == Polynomial({2: 90})

    def test_size2_n5_matches_pair_scan(self):
        d = dependency_graph_for(5, 3)
        expect = Polynomial.zero()
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if adjacent(d, i, j):
                    expect = expect + joint_moment([i, j], d.copies)
        assert moment_sum(d, 2) == expect

    def test_matches_polymer_stream(self):
        # every connected 3-set of copies, found by brute force
        d = dependency_graph_for(5, 3)
        expect = Polynomial.zero()
        for members in combinations(range(len(d)), 3):
            if is_connected(d, members):
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
            for budget in (None, 3):
                got = expansion_term(orbit, order, max_p_power=budget)
                assert got == expansion_term(every, order, max_p_power=budget)

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

    @pytest.mark.parametrize("graph", [dependency_graph_for, all_roots_graph])
    def test_cap_counts_polymers_across_orbits(self, graph):
        # two orbits at (7, 4); the polymer counts of sizes 1..3 come from
        # the all-roots walk, and the cap counts the polymers of every size
        # up to 3 on either walk: 525 + 15225 + 574735
        d = graph(7, 4)
        every = all_roots_graph(7, 4)
        count = sum(int(sum(moment_sum(every, k).coeffs.values())) for k in (1, 2, 3))
        for engine, key in ((expansion_term, "order"), (moment_sum, "size")):
            with pytest.raises(CapExceededError) as err:
                engine(d, 3, cap=count - 1)
            assert err.value.context == {"cap": count - 1, key: 3}
            assert engine(d, 3, cap=count) == engine(d, 3)

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_structural_series(self, monkeypatch, b):
        # strategy A's span bins from one root per orbit of K_D, against the
        # same bins from every root
        orbit = structural_series_grouped(b)
        monkeypatch.setattr(expansion, "dependency_graph_for", all_roots_graph)
        assert orbit == structural_series_grouped(b)

    @staticmethod
    def pinned_walks(monkeypatch, engine):
        """The roots of every walk `engine` starts."""
        walks = []

        def counted(*args, **kwargs):
            walks.append(kwargs["roots"])
            return _connected_set_masks(*args, **kwargs)

        monkeypatch.setattr(expansion, "_connected_set_masks", counted)
        engine()
        return sorted(walks)

    def test_per_n_power_sums_walks_each_orbit_once(self, monkeypatch):
        # one budgeted walk covers every order: one pinned walk per orbit
        walks = self.pinned_walks(monkeypatch, lambda: per_n_power_sums(6, 4))
        assert walks == [(rep,) for rep, _size in dependency_graph_for(6, 3).orbits]

    def test_structural_series_walks_each_orbit_once(self, monkeypatch):
        # strategy A at b = 4 walks K_6, whose copies form one orbit
        walks = self.pinned_walks(monkeypatch, lambda: structural_series_grouped(4))
        assert walks == [(rep,) for rep, _size in dependency_graph_for(6, 3).orbits] == [(0,)]


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

    def test_strategies_agree_at_p5(self, monkeypatch):
        # past today's budget: both strategies give the disjoint-cluster
        # series' p^5 coefficient, 3/2 [n]_4 + 563/20 [n]_5 + 197/5 [n]_6
        # + 91/10 [n]_7 (4-6 s with a cold type table)
        monkeypatch.setattr(expansion, "MAX_SYMBOLIC_P_POWER", 5)
        grouped = structural_series_grouped(5)
        assert grouped == interpolated_series_grouped(5)
        p5: dict = {}
        for (a, b, _s), c in grouped.items():
            if b == 5:
                p5[a] = p5.get(a, 0) + c
        assert p5 == {
            4: Fraction(3, 2),
            5: Fraction(563, 20),
            6: Fraction(197, 5),
            7: Fraction(91, 10),
        }

    def test_span_bins_match_triple_set_reference(self):
        # strategy A's per-span bins on K_D, against the two-level walk over
        # the covering, conflict-connected triple sets of each span [v]
        for b in (2, 3, 4):
            assert structural_series_grouped(b) == structural_series_by_triple_sets(b)

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

    def test_disjoint_cluster_series_leaves_log_p_at_p4(self):
        # the series is log P's Taylor series through p^3; at p^4 it lacks
        # the repeated-copy cluster, -w(c)^2 / 2 per copy, so log P's p^4
        # coefficient is lower by (1/8)[n]_4
        terms = symbolic_series(4)
        p4 = {}
        for n in range(4, 9):
            a = exact_linearity_polynomial(n, 3).coeff
            log_p = {}  # k b_k = k a_k - sum_{j<k} j b_j a_{k-j}, as a_0 = 1
            for k in range(1, 5):
                log_p[k] = a(k) - sum(j * log_p[j] * a(k - j) for j in range(1, k)) / k
            series = [sum(t.coeff * falling_factorial(n, t.n_falling) for t in terms
                          if t.p_power == k) for k in range(5)]
            gap = [log_p[k] - series[k] for k in range(1, 5)]
            assert gap == [0, 0, 0, -falling_factorial(n, 4) / 8]
            p4[n] = (log_p[4], series[4])
        assert p4[4] == (-21, -18) and p4[5] == (-660, -645) and p4[8] == (-78750, -78540)

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_series_slice_equals_budgeted_term_at_large_n(self, n):
        # the size-k slice of the grouped series, evaluated at n, is the
        # order-k term cut at p^4, on hosts of 2,970 to 29,070 copies
        grouped = structural_series_grouped(4)
        d = dependency_graph_for(n, 3)
        for order in (1, 2, 3):
            sliced = Polynomial.zero()
            for (a, b, size), c in grouped.items():
                if size == order:
                    sliced = sliced + Polynomial({b: c * falling_factorial(n, a)})
            assert expansion_term(d, order, max_p_power=4) == sliced

    def test_undersized_degree_is_caught(self):
        # b = 3 spans up to 5 vertices; a degree-4 fit on n = 0..4 must be
        # contradicted by the check samples at n = 5..9: the groups of
        # power 3, which reach [n]_5, are, and the p^2 group (only [n]_4)
        # is not
        ns = list(range(10))
        sampled = _sample_power_sums(ns, 3, 3)
        keys = sorted({k for s in sampled.values() for k in s})
        caught = []
        for key in keys:
            samples = [(n, sampled[n].get(key, Fraction(0))) for n in ns]
            try:
                _solve_falling_basis(samples, 4)
            except LinhypError as exc:
                assert "inconsistent with extra sample" in str(exc)
                caught.append(key)
        assert keys == [(2, 1), (3, 2), (3, 3)]
        assert caught == [(3, 2), (3, 3)]

    @pytest.mark.parametrize("max_p_power", [2, 3, 4])
    def test_interpolation_checks_one_sample_past_the_fit(self, monkeypatch, max_p_power):
        # strategy B samples n = 0..b+3 and a wrong last sample is rejected
        seen = []

        def corrupt_last(ns, max_p_power, r):
            seen.append(list(ns))
            sampled = _sample_power_sums(ns, max_p_power, r)
            last = sampled[ns[-1]]
            key = next(iter(last))
            last[key] += 1
            return sampled

        monkeypatch.setattr(expansion, "_sample_power_sums", corrupt_last)
        with pytest.raises(LinhypError, match="inconsistent with extra sample"):
            interpolated_series_grouped(max_p_power)
        assert seen == [list(range(max_p_power + 4))]

    def test_falling_basis_recovers_known_coefficients(self):
        # f = 3[n]_5 - 2[n]_4 + 7: degree 5 on n = 0..5, n = 6 checked
        samples = [
            (n, 3 * falling_factorial(n, 5) - 2 * falling_factorial(n, 4) + 7)
            for n in range(7)
        ]
        assert _solve_falling_basis(samples, 5) == [7, 0, 0, 0, -2, 3]
        # a larger degree fits the same samples with zero leading terms
        assert _solve_falling_basis(samples, 6) == [7, 0, 0, 0, -2, 3, 0]
        with pytest.raises(LinhypError, match="inconsistent with extra sample"):
            _solve_falling_basis(samples, 4)

    def test_falling_basis_needs_samples_from_zero_without_gaps(self):
        value = [Fraction(n * n) for n in range(8)]
        with pytest.raises(ValidationError):
            _solve_falling_basis([(n, value[n]) for n in range(3, 8)], 2)
        with pytest.raises(ValidationError):
            _solve_falling_basis([(n, value[n]) for n in (0, 1, 2, 4, 5)], 2)
        with pytest.raises(ValidationError, match="not enough interpolation points"):
            _solve_falling_basis([(n, value[n]) for n in range(3)], 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            symbolic_series(max_p_power=1)
        with pytest.raises(ValidationError):
            symbolic_series(max_p_power=4, r=4)


class TestUntruncatedForms:
    # every host within the 12-edge cap, (3, 3) to (13, 13): r = 3 at
    # n = 4, 5 (ids "4", "5"), and the r >= 4 hosts, where copies overlap
    # in up to r - 1 vertices; the hosts n = r have one edge and no copies
    @pytest.mark.parametrize(
        "n, r",
        [
            pytest.param(n, r, id=str(n) if r == 3 < n else f"{n}-{r}")
            for r in range(3, 14)
            for n in range(r, 14)
            if math.comb(n, r) <= expansion.HARD_CORE_EDGE_CAP
        ],
    )
    def test_all_three_forms_equal(self, n, r):
        oracle = exact_linearity_polynomial(n, r)
        assert inclusion_exclusion_polynomial(n, r) == oracle
        assert hard_core_polynomial(n, r) == oracle

    @pytest.mark.parametrize("n, r, copies", [(4, 3, 6), (5, 4, 10), (6, 5, 15)])
    def test_polymer_weight_is_ursell_of_induced_conflict_graph(self, n, r, copies):
        # the brute-force signed count of connected copy sets with union
        # exactly E against the weight the polymer-model form gives E
        d = dependency_graph_for(n, r)
        assert len(d) == copies
        counts = connected_copy_set_counts(d)
        # host edges adjacent when a copy holds both
        conflict = [0] * math.comb(n, r)
        for mask in d.copy_edge_masks:
            i, j = _mask_to_members(mask)
            conflict[i] |= 1 << j
            conflict[j] |= 1 << i
        for support in range(1 << len(conflict)):
            edges = _mask_to_members(support)
            weight = 0
            if len(edges) >= 2 and mask_connected(conflict, support):
                induced = [
                    (a + 1, b + 1)
                    for a, b in combinations(range(len(edges)), 2)
                    if conflict[edges[a]] >> edges[b] & 1
                ]
                weight = ursell(SimpleGraph.from_edges(len(edges), induced))
            assert counts.get(support, 0) == weight, support

    def test_weights_come_from_ursell(self, monkeypatch):
        # one more on every polymer weight must move the partition function
        true_ursell = expansion.ursell
        monkeypatch.setattr(expansion, "ursell", lambda g: true_ursell(g) + 1)
        for n, r in [(4, 3), (5, 3), (5, 4)]:
            assert hard_core_polynomial(n, r) != exact_linearity_polynomial(n, r)

    def test_hard_core_cap(self):
        with pytest.raises(CapExceededError):
            hard_core_polynomial(6, 3)

    @pytest.mark.parametrize(
        "form", [hard_core_polynomial, inclusion_exclusion_polynomial, exact_linearity_polynomial]
    )
    def test_edge_cap_fires_before_any_edge_is_listed(self, monkeypatch, form):
        # the edge count comes in closed form: listing C(300, 3) edges first
        # would hold hundreds of MiB before the cap is read
        def unreachable(*args):
            raise AssertionError("edges listed before the edge cap was checked")

        for module in ("linhyp.hypergraph", "linhyp.oracle"):
            monkeypatch.setattr(f"{module}.combinations", unreachable)
        caps = {
            hard_core_polynomial: HARD_CORE_EDGE_CAP,
            inclusion_exclusion_polynomial: INCLUSION_EXCLUSION_EDGE_CAP,
            exact_linearity_polynomial: EXACT_EDGE_CAP,
        }
        with pytest.raises(CapExceededError) as info:
            form(300, 3)
        assert info.value.context == {"edges": 4455100, "cap": caps[form]}

    @pytest.mark.parametrize(
        "form", [hard_core_polynomial, inclusion_exclusion_polynomial, exact_linearity_polynomial]
    )
    @pytest.mark.parametrize("n, r", [(4, 2), (2, 3), (9, 2)])
    def test_forms_reject_bad_hosts(self, form, n, r):
        # (9, 2) has 36 edges: the host is rejected before any edge cap
        with pytest.raises(ValidationError):
            form(n, r)


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
