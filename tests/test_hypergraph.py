"""Hypergraphs, forbidden copies, linearity, densities, fixture parsing."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linhyp import hypergraph
from linhyp.asymptotics import log_linearity_general, log_linearity_r3
from linhyp.dependency import dependency_graph_for
from linhyp.errors import CapExceededError, ValidationError
from linhyp.expansion import (
    HARD_CORE_EDGE_CAP,
    INCLUSION_EXCLUSION_EDGE_CAP,
    hard_core_polynomial,
    inclusion_exclusion_polynomial,
)
from linhyp.hypergraph import COUNT_LIMIT, check_count, enumerate_forbidden_copies
from linhyp.oracle import EXACT_EDGE_CAP, MC_PAIR_TABLE_CAP, exact_linearity_polynomial, monte_carlo

from hypergraph_text import format_hypergraph, parse_hypergraph
from reference import Hypergraph, family_densities, forbidden_copy, is_linear


def falling(n, t):
    out = 1
    for i in range(t):
        out *= n - i
    return out


class TestEnumerateCopies:
    def test_small_counts(self):
        assert len(enumerate_forbidden_copies(4, 3)) == 6
        assert len(enumerate_forbidden_copies(3, 3)) == 0
        assert len(enumerate_forbidden_copies(6, 3)) == 90 == falling(6, 4) // 4

    def test_count_identity_r3(self):
        for n in range(4, 13):
            assert len(enumerate_forbidden_copies(n, 3)) == falling(n, 4) // 4

    def test_matches_bruteforce_r4(self):
        n, r = 6, 4
        edges = list(combinations(range(1, n + 1), r))
        expect = sum(
            1
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if 2 <= len(set(edges[i]) & set(edges[j])) <= r - 1
        )
        assert len(enumerate_forbidden_copies(n, r)) == expect

    @pytest.mark.parametrize(
        "n, r", [(3, 3), (7, 3), (6, 4), (9, 4), (8, 5), (10, 6), (4, 4), (5, 4), (7, 6), (10, 5)]
    )
    def test_closed_form_count(self, n, r):
        assert hypergraph._copy_count(n, r) == len(enumerate_forbidden_copies(n, r))

    def test_copy_cap_fires_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "COPY_CAP", 90)
        assert len(enumerate_forbidden_copies(6, 3)) == 90

        def unreachable(*_):
            raise AssertionError("the copy scan started past the cap")

        monkeypatch.setattr(hypergraph, "combinations", unreachable)
        with pytest.raises(CapExceededError) as info:
            enumerate_forbidden_copies(7, 3)
        assert info.value.context == {"copies": falling(7, 4) // 4, "cap": 90}

    def test_canonical_order_and_invariants(self):
        copies = enumerate_forbidden_copies(5, 3)
        assert copies == sorted(copies)
        for c in copies:
            assert c.e1 < c.e2
            assert len(set(c.e1) & set(c.e2)) == c.t == 2
            assert len(set(c.e1) | set(c.e2)) == 4

    def test_domain_violations(self):
        with pytest.raises(ValidationError):
            enumerate_forbidden_copies(5, 2)
        with pytest.raises(ValidationError):
            enumerate_forbidden_copies(2, 3)

    def test_copy_constructor_rejects_bad_overlap(self):
        with pytest.raises(ValidationError):
            forbidden_copy((1, 2, 3), (4, 5, 6))
        with pytest.raises(ValidationError):
            forbidden_copy((1, 2, 3), (1, 2, 3))


class TestCountLimit:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_binomial_up_to_stops_past_the_limit(self, n_r):
        n, r = n_r
        count = math.comb(n, r)
        assert hypergraph.binomial_up_to(n, r, count) == count
        assert hypergraph.binomial_up_to(n, r, count - 1) is None

    def test_every_cap_is_below_the_count_limit(self):
        # so a count not formed (past COUNT_LIMIT) is over every cap
        caps = [
            hypergraph.COPY_CAP,
            EXACT_EDGE_CAP,
            INCLUSION_EXCLUSION_EDGE_CAP,
            HARD_CORE_EDGE_CAP,
            MC_PAIR_TABLE_CAP,
        ]
        assert max(caps) < hypergraph.COUNT_LIMIT == 10**hypergraph.MAX_DIGITS - 1


class TestCheckCount:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(st.integers(0, 2**20), st.integers(COUNT_LIMIT - 2, COUNT_LIMIT)),
        st.one_of(
            st.none(),
            st.integers(0, 2**21),
            st.integers(COUNT_LIMIT - 3, COUNT_LIMIT + 3),
            st.integers(COUNT_LIMIT, 10 * COUNT_LIMIT),
        ),
    )
    def test_refuses_exactly_the_counts_over_the_cap(self, cap, count):
        if count is not None and count <= cap:
            assert check_count(count, cap, "items", "the item count") == count
            return
        with pytest.raises(CapExceededError) as info:
            check_count(count, cap, "items", "the item count")
        # a count past COUNT_LIMIT is too long to print, so only the cap is given
        if count is not None and count <= COUNT_LIMIT:
            assert info.value.context == {"items": count, "cap": cap}
        else:
            assert info.value.context == {"cap": cap}
        assert str(info.value).startswith("the item count ")

    def test_a_cap_error_needs_its_cap(self):
        with pytest.raises(TypeError):
            CapExceededError("x")
        assert CapExceededError("x", cap=3, size=4).context == {"cap": 3, "size": 4}

    @pytest.mark.parametrize("n", [10**5000, -(10**5000)], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "call",
        [
            exact_linearity_polynomial,
            inclusion_exclusion_polynomial,
            hard_core_polynomial,
            enumerate_forbidden_copies,
            dependency_graph_for,
            lambda n, r: monte_carlo(n, r, Fraction(1, 2), trials=1, seed=0),
            lambda n, r: log_linearity_general(n, r, Fraction(1, 2)),
            lambda n, _r: log_linearity_r3(n, Fraction(1, 2)),
        ],
        ids=[
            "oracle",
            "inclusion-exclusion",
            "hard-core",
            "copies",
            "dependency-graph",
            "monte-carlo",
            "general-r",
            "refined-r3",
        ],
    )
    def test_a_host_too_long_to_print_is_a_validation_error(self, call, n):
        # not int-to-str's ValueError from a message that prints n
        with pytest.raises(ValidationError, match="at most 4300 digits"):
            call(n, 3)


class TestIsLinear:
    def test_examples(self):
        assert is_linear(Hypergraph(n=5, r=3, edges=((1, 2, 3), (1, 4, 5))))
        assert not is_linear(Hypergraph(n=4, r=3, edges=((1, 2, 3), (2, 3, 4))))
        assert is_linear(Hypergraph(n=4, r=3, edges=()))

    def test_equivalent_to_copy_scan_n5(self):
        # linear iff the hypergraph contains no forbidden copy as an edge pair
        edges = list(combinations(range(1, 6), 3))
        copy_pairs = {c.edge_pair for c in enumerate_forbidden_copies(5, 3)}
        for mask in range(1 << len(edges)):
            sub = tuple(edges[i] for i in range(len(edges)) if mask >> i & 1)
            h = Hypergraph(n=5, r=3, edges=sub)
            hit = any(
                (a, b) in copy_pairs for a, b in combinations(sorted(sub), 2)
            )
            assert is_linear(h) == (not hit)


class TestDensities:
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_closed_forms(self, r):
        m_star, d = family_densities(r)
        assert m_star == Fraction(1, r - 2)
        assert d == Fraction(1, r - 1)

    def test_rejects_small_r(self):
        with pytest.raises(ValidationError):
            family_densities(2)


class TestTextFormat:
    def test_roundtrip(self):
        h = Hypergraph(n=5, r=3, edges=((1, 2, 3), (1, 4, 5)))
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_fixture_files(self):
        from pathlib import Path

        fixtures = Path(__file__).parent / "fixtures"
        linear = parse_hypergraph((fixtures / "linear_n6.txt").read_text())
        assert linear.n == 6 and len(linear.edges) == 4
        assert is_linear(linear)
        tight = parse_hypergraph((fixtures / "nonlinear_n5.txt").read_text())
        assert not is_linear(tight)

    def test_malformed_lines_are_located(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_hypergraph("4 3\n1 2\n")
        with pytest.raises(ValidationError, match="line 3"):
            parse_hypergraph("4 3\n1 2 3\n1 2 x\n")
        with pytest.raises(ValidationError, match="line 2"):
            parse_hypergraph("4 3\n1 2 9\n")
        with pytest.raises(ValidationError, match="line 1"):
            parse_hypergraph("4\n")
