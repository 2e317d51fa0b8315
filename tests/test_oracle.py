"""Exact linearity oracle and the seeded Monte Carlo estimator."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linhyp import oracle
from linhyp.errors import CapExceededError, ValidationError
from linhyp.hypergraph import COPY_CAP, MAX_DIGITS, _copy_count, enumerate_forbidden_copies
from linhyp.oracle import (
    BLOCK,
    EXACT_EDGE_CAP,
    MC_PAIR_TABLE_CAP,
    _pair_table,
    exact_linearity_polynomial,
    monte_carlo,
)
from linhyp.polynomial import Polynomial
from reference import Hypergraph, is_linear, linear_subset_counts


def independent_scan(n, r):
    """Second, independently coded subset scan (itertools + is_linear)."""
    edges = list(combinations(range(1, n + 1), r))
    one_minus = Polynomial({0: 1, 1: -1})
    total = Polynomial.zero()
    for mask in range(1 << len(edges)):
        sub = tuple(edges[i] for i in range(len(edges)) if mask >> i & 1)
        if is_linear(Hypergraph(n=n, r=r, edges=sub)):
            e = len(sub)
            total = total + Polynomial({e: 1}) * one_minus ** (len(edges) - e)
    return total


def scan_polynomial(n, r):
    """sum_m L_m p^m (1-p)^(N-m) with L_m from the numpy subset scan."""
    counts = linear_subset_counts(n, r)
    ne = len(counts) - 1
    one_minus = Polynomial({0: 1, 1: -1})
    terms = (Polynomial({m: c}) * one_minus ** (ne - m) for m, c in enumerate(counts))
    return sum(terms, Polynomial.zero())


class TestExactOracle:
    @pytest.mark.parametrize(
        "n, r", [(3, 3), (4, 3), (5, 3), (6, 3), (4, 4), (5, 4), (6, 4)]
    )
    def test_sweep_equals_subset_scan(self, n, r):
        assert exact_linearity_polynomial(n, r) == scan_polynomial(n, r)

    @pytest.mark.parametrize("n, top, count", [(7, 7, 30), (9, 12, 840)])
    def test_steiner_triple_system_counts(self, n, top, count):
        # the largest linear 3-graphs on 7 and 9 vertices are the labelled
        # Fano planes and the labelled STS(9)s
        counts = oracle._linear_set_counts(n, 3)
        assert max(counts) == top and counts[top] == count

    @pytest.mark.parametrize("n, r", [(7, 3), (8, 4), (8, 5), (10, 8), (84, 83)])
    def test_edge_pairs_are_linear_unless_a_copy(self, n, r):
        counts = oracle._linear_set_counts(n, r)
        ne = math.comb(n, r)
        assert counts[1] == ne
        assert counts.get(2, 0) == math.comb(ne, 2) - _copy_count(n, r)

    def test_n3_always_linear(self):
        assert exact_linearity_polynomial(3, 3) == Polynomial.one()

    def test_n4_closed_form(self):
        one_minus = Polynomial({0: 1, 1: -1})
        expect = one_minus**4 + Polynomial({1: 4}) * one_minus**3
        assert exact_linearity_polynomial(4, 3) == expect
        assert exact_linearity_polynomial(4, 3)(Fraction(1, 2)) == Fraction(5, 16)

    def test_n5_matches_independent_scan(self):
        poly = exact_linearity_polynomial(5, 3)
        scan = independent_scan(5, 3)
        assert poly == scan
        assert poly(Fraction(1, 2)) == Fraction(26, 1024)

    def test_random_rational_evaluations_match_scan(self):
        poly = exact_linearity_polynomial(5, 3)
        scan = independent_scan(5, 3)
        rnd = random.Random(17)
        for _ in range(20):
            q = Fraction(rnd.randint(1, 999), 1000)
            assert poly(q) == scan(q)

    def test_r4_host(self):
        poly = exact_linearity_polynomial(5, 4)
        scan = independent_scan(5, 4)
        assert poly == scan

    def test_probabilities_are_probabilities(self):
        poly = exact_linearity_polynomial(5, 3)
        for q in (Fraction(1, 100), Fraction(1, 2), Fraction(99, 100)):
            assert 0 < poly(q) <= 1

    def test_state_cap(self):
        with pytest.raises(CapExceededError) as info:
            exact_linearity_polynomial(10, 3)  # C(10,3) = 120 edges
        assert info.value.context == {"edges": 120, "cap": EXACT_EDGE_CAP}

    def test_validation(self):
        with pytest.raises(ValidationError):
            exact_linearity_polynomial(2, 3)


def test_cap_errors_past_the_int_digit_limit():
    # C(100000, 50000) has 30,101 digits, and C(10^1100, 3) has 3,300 but
    # its copy count 4,400: past COUNT_LIMIT each library cap still raises
    # its own error, with the cap alone in its context and no count past
    # the interpreter's default int-to-str limit in its message
    calls = [
        (lambda: enumerate_forbidden_copies(100000, 50000), COPY_CAP),
        (lambda: enumerate_forbidden_copies(10**1100, 3), COPY_CAP),
        (lambda: exact_linearity_polynomial(100000, 50000), EXACT_EDGE_CAP),
        (lambda: monte_carlo(100000, 50000, Fraction(1, 2), trials=1, seed=0), MC_PAIR_TABLE_CAP),
    ]
    for call, cap in calls:
        with pytest.raises(CapExceededError) as info:
            call()
        assert info.value.context == {"cap": cap}
        assert f"more than {MAX_DIGITS} digits" in str(info.value)


@pytest.mark.parametrize("n, counted", [(10**1433, True), (10**1434, False)])
def test_edge_count_at_the_limit(n, counted):
    # C(10^1433, 3) has 4,298 digits and is reported in full; C(10^1434, 3)
    # has 4,301, so it is not formed
    with pytest.raises(CapExceededError) as info:
        exact_linearity_polynomial(n, 3)
    expect = {"edges": math.comb(n, 3)} if counted else {}
    assert info.value.context == {**expect, "cap": EXACT_EDGE_CAP}
    assert str(info.value)


def test_cap_errors_past_the_float_range():
    # C(10^400, 3), of 1,200 digits, is counted exactly and reported in full
    n = 10**400
    with pytest.raises(CapExceededError) as info:
        exact_linearity_polynomial(n, 3)
    assert info.value.context == {"edges": math.comb(n, 3), "cap": EXACT_EDGE_CAP}


@pytest.fixture
def no_pair_table(monkeypatch):
    """Fails the test if the sampler builds its pair table."""

    def unreachable(*_):
        raise AssertionError("the pair table was built")

    monkeypatch.setattr(oracle, "_pair_table", unreachable)


@st.composite
def owner_layouts(draw):
    """(dtype, stride, sizes, rows) for `_repeated_owners`: sizes[t] rows
    for owner t, at least one row in all, each a value below the stride
    or, in two dimensions, a list of `width` of them."""
    dtype = draw(st.sampled_from(["int32", "int64"]))
    stride = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=12).filter(any))
    width = draw(st.integers(0, 3))
    value = st.integers(0, stride - 1)
    row = value if width == 0 else st.lists(value, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=sum(sizes), max_size=sum(sizes)))
    return dtype, stride, sizes, rows


class TestMonteCarlo:
    def test_always_linear_instance(self):
        rep = monte_carlo(3, 3, Fraction(1, 2), trials=500, seed=1)
        assert rep.hits == rep.trials == 500
        assert rep.estimate == 1.0

    def test_determinism(self):
        a = monte_carlo(5, 3, Fraction(1, 10), trials=4000, seed=42)
        b = monte_carlo(5, 3, Fraction(1, 10), trials=4000, seed=42)
        assert a == b

    def test_worker_independence(self):
        base = monte_carlo(5, 3, Fraction(1, 10), trials=4000, seed=9)
        for w in (4, 8):
            assert monte_carlo(5, 3, Fraction(1, 10), trials=4000, seed=9, workers=w) == base

    def test_seed_changes_stream(self):
        a = monte_carlo(5, 3, Fraction(1, 10), trials=4000, seed=1)
        b = monte_carlo(5, 3, Fraction(1, 10), trials=4000, seed=2)
        assert a.hits != b.hits

    def test_agrees_with_exact_n4(self):
        exact = float(exact_linearity_polynomial(4, 3)(Fraction(1, 2)))
        rep = monte_carlo(4, 3, Fraction(1, 2), trials=1_000_000, seed=7)
        assert abs(rep.estimate - exact) <= 5 * rep.std_error

    def test_agrees_with_exact_n5_sparse(self):
        exact = float(exact_linearity_polynomial(5, 3)(Fraction(1, 10)))
        rep = monte_carlo(5, 3, Fraction(1, 10), trials=1_000_000, seed=11)
        assert abs(rep.estimate - exact) <= 5 * rep.std_error

    def test_agrees_with_exact_n5_dense(self):
        """p = 1/2 at n = 5: m ~ Bin(10, 1/2) and the pigeonhole bound is 3,
        so 83% of trials are skipped as misses, and among the m = 2 and
        m = 3 trials that draw edges, 10% and 28% take the redraw path."""
        exact = float(exact_linearity_polynomial(5, 3)(Fraction(1, 2)))
        rep = monte_carlo(5, 3, Fraction(1, 2), trials=1_000_000, seed=5)
        assert abs(rep.estimate - exact) <= 5 * rep.std_error

    def test_agrees_with_exact_n6_pigeonhole(self):
        """p = 3/10 at n = 6: the pigeonhole bound is 5 and the mean m is 6,
        so 58% of trials are misses that draw no edges; an m = 5 trial takes
        the redraw path with probability 0.42."""
        exact = float(exact_linearity_polynomial(6, 3)(Fraction(3, 10)))
        rep = monte_carlo(6, 3, Fraction(3, 10), trials=1_000_000, seed=6)
        assert abs(rep.estimate - exact) <= 5 * rep.std_error

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundaries(self, trials):
        base = monte_carlo(6, 3, Fraction(3, 10), trials=trials, seed=21)
        assert monte_carlo(6, 3, Fraction(3, 10), trials=trials, seed=21) == base
        assert monte_carlo(6, 3, Fraction(3, 10), trials=trials, seed=21, workers=4) == base
        assert base.trials == trials
        assert 0 <= base.hits <= trials

    def test_pair_table_matches_edge_pairs(self):
        n, r = 7, 4
        table = _pair_table(n, r)
        assert table.dtype == "int32"
        expect = [[a * n + b for a, b in combinations(e, 2)] for e in combinations(range(n), r)]
        assert table.tolist() == expect

    @pytest.mark.parametrize(
        "n, r", [(5, 3), (50, 3), (12, 5), (9, 9), (12, 4), (20, 5), (9, 8)]
    )
    def test_pair_table_equals_per_pair_columns(self, n, r):
        import numpy as np

        verts = np.array(list(combinations(range(n), r)), dtype=np.int32)
        columns = np.stack(
            [verts[:, a] * n + verts[:, b] for a, b in combinations(range(r), 2)], axis=1
        )
        table = _pair_table(n, r)
        assert table.dtype == columns.dtype == "int32"
        assert table.flags.c_contiguous
        assert np.array_equal(table, columns)

    @pytest.mark.parametrize("n, r", [(12, 4), (20, 5), (50, 3), (200, 3)])
    def test_pair_table_peaks_at_vertices_plus_table(self, n, r):
        """numpy reports its array data to tracemalloc, so the traced peak
        of the build is machine-independent: the int32 vertex array and the
        table, plus 16 KiB of slack (about 3 KiB is used).  Built through
        np.take and a*n + b temporaries it was 3x the table at (200, 3)."""
        tracemalloc.start()
        try:
            _pair_table(n, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= math.comb(n, r) * (r + math.comb(r, 2)) * 4 + 16 * 1024

    def test_block_peak_is_bounded_by_its_keys(self):
        """One full block at n = 50, p = 0.0019 holds about 19,000 drawn
        edges; its traced peak stays under 2.5x the bytes of its int32 pair
        keys (2.2x in place, 3.7x when the keys were copied to be sorted)."""
        import numpy as np

        n, r, p, seed = 50, 3, 0.0019, 3
        table = _pair_table(n, r)
        ne, width = table.shape
        oracle._run_trials(table, n, p, seed + 1, BLOCK)  # load numpy.random first
        rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
        m = rng.binomial(ne, p, size=BLOCK)
        drawn = m[(m > 1) & (m <= math.comb(n, 2) // width)]
        key_bytes = int(drawn.sum()) * width * 4
        tracemalloc.start()
        try:
            oracle._run_trials(table, n, p, seed, BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * key_bytes

    @pytest.mark.parametrize(
        "n, r, p, trials, seed, hits",
        [
            pytest.param(50, 3, Fraction("0.0019"), 50_000, 12345, 867, id="paper-regime"),
            pytest.param(6, 3, Fraction(3, 10), BLOCK + 1, 21, 20, id="pigeonhole-boundary"),
            pytest.param(5, 3, Fraction(1, 2), 4000, 5, 129, id="redraw"),
            pytest.param(7, 4, Fraction(1, 20), 3000, 3, 1499, id="r4"),
            pytest.param(12, 3, Fraction(1, 50), 5000, 1, 2180, id="n12"),
        ],
    )
    def test_pinned_hits(self, n, r, p, trials, seed, hits):
        """Hits of the philox4x64-block512 sampler, read before its pair keys
        became int32: any change to the stream layout, the redraw order or
        the conflict checks moves at least one of them."""
        rep = monte_carlo(n, r, p, trials=trials, seed=seed)
        assert rep.hits == hits
        assert rep.rng_name == "philox4x64-block512"

    @pytest.mark.parametrize("n, r", [pytest.param(2049, 3, id="pair-table")])
    def test_host_cap_fires_before_the_table(self, no_pair_table, n, r):
        with pytest.raises(CapExceededError) as info:
            monte_carlo(n, r, Fraction(1, 1000), trials=1, seed=0)
        # the context counts the cap's unit, pair-table entries, not edges
        entries = math.comb(n, r) * math.comb(r, 2)
        assert info.value.context == {"entries": entries, "cap": MC_PAIR_TABLE_CAP}

    @pytest.mark.parametrize("n", [2049, 10**4, 10**6])
    @pytest.mark.parametrize(
        "r_of_n",
        [lambda n: 3, lambda n: n // 2, lambda n: n - 2, lambda n: n - 1],
        ids=["3", "n//2", "n-2", "n-1"],
    )
    def test_table_cap_refuses_every_host_past_the_int32_keys(self, no_pair_table, n, r_of_n):
        """Every host with n >= 2049 and r < n is over the table cap, so the
        int32 pair keys (below BLOCK * n^2 <= 2^31 for n <= 2048) never
        overflow."""
        with pytest.raises(CapExceededError) as info:
            monte_carlo(n, r_of_n(n), Fraction(1, 1000), trials=1, seed=0)
        assert info.value.context["cap"] == MC_PAIR_TABLE_CAP

    @pytest.mark.parametrize("n", [3, 2049, 10**10])
    def test_one_edge_host_is_answered(self, no_pair_table, n):
        rep = monte_carlo(n, n, Fraction(1, 10), trials=7, seed=0)
        assert (rep.hits, rep.estimate, rep.std_error) == (7, 1.0, 0.0)

    def test_int32_keys_reach_the_largest_host(self):
        """At the largest n with BLOCK * n^2 <= 2^31 the last trial of a full
        block has the top pair key BLOCK * n^2 - 1 = 2^31 - 1; its conflict
        must be found, and charged to that trial alone."""
        import numpy as np

        n = math.isqrt(2**31 // BLOCK)
        assert n == 2048
        top = (n - 2) * n + (n - 1)
        pair_ids = np.array([[top, 0, 1], [top, 2, 3], [4, 5, 6]], dtype=np.int32)
        sizes = np.array([1] * (BLOCK - 1) + [2])
        idx = np.array([2] * (BLOCK - 1) + [0, 1])
        bad = oracle._repeated_owners(np.take(pair_ids, idx, axis=0), sizes, n * n)
        assert np.flatnonzero(bad).tolist() == [BLOCK - 1]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(layout=owner_layouts())
    # the top int32 key (BLOCK - 1) n^2 + n^2 - 1 = 2^31 - 1 at n = 2048,
    # repeated by the last owner of a full block
    @example(
        layout=("int32", 2048**2, [1] * (BLOCK - 1) + [2], [0] * (BLOCK - 1) + [2048**2 - 1] * 2)
    )
    def test_repeated_owners_flags_each_owner_with_a_repeat(self, layout):
        import numpy as np

        dtype, stride, sizes, rows = layout
        values = np.array(rows, dtype=dtype)
        bad = oracle._repeated_owners(values, np.array(sizes, dtype=np.int64), stride)
        expect, start = [], 0
        for size in sizes:
            owned = []
            for row in rows[start : start + size]:
                owned += row if isinstance(row, list) else [row]
            expect.append(len(set(owned)) < len(owned))
            start += size
        assert bad.tolist() == expect

    def test_report_fields(self):
        rep = monte_carlo(4, 3, Fraction(1, 4), trials=100, seed=3)
        data = rep.to_json()
        assert data["rng_name"] == "philox4x64-block512"
        assert data["seed"] == 3
        assert data["p_num"] == 1 and data["p_den"] == 4
        assert 0 <= data["hits"] <= data["trials"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            monte_carlo(4, 3, Fraction(0), trials=10, seed=0)
        with pytest.raises(ValidationError):
            monte_carlo(4, 3, Fraction(3, 2), trials=10, seed=0)
        with pytest.raises(ValidationError):
            monte_carlo(4, 3, Fraction(1, 2), trials=0, seed=0)
