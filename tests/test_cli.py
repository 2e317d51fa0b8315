"""Command-line behaviour: outputs, determinism, error objects, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import linhyp
from linhyp import cli, hypergraph
from linhyp.cli import main
from linhyp.errors import ValidationError
from linhyp.hypergraph import COPY_CAP
from linhyp.oracle import EXACT_EDGE_CAP, MC_PAIR_TABLE_CAP, exact_linearity_polynomial
from linhyp.polynomial import log_fraction

from argv_contract import ROWS, run_in_process, sections


def payload(row_id):
    """The stdout payload of an argv-contract row's golden.  The tests that
    read goldens pin facts, so a regenerated golden cannot drop one."""
    return json.loads(sections(row_id)["stdout"])


def golden_error(row_id):
    """The JSON error of a contract row whose golden holds stderr alone."""
    streams = sections(row_id)
    assert list(streams) == ["stderr"] and "Traceback" not in streams["stderr"]
    return json.loads(streams["stderr"])["error"]


def numbered(row_ids):
    """Parametrizes row_id over contract rows, with ids argv0, argv1, ..."""
    ids = [f"argv{i}" for i in range(len(row_ids))]
    return pytest.mark.parametrize("row_id", row_ids, ids=ids)


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


class TestSubcommands:
    def test_copies(self):
        data = payload("copies-6-3")
        assert data["count"] == 90 and data["tool_version"] and data["config"]["n"] == 6

    def test_copies_listing(self):
        assert len(payload("copies-4-3-list")["copies"]) == 6

    def test_expand(self):
        orders = payload("expand-6-3-k4")["orders"]
        assert orders["1"] == {"2": [-90, 1]}
        assert orders["2"] == {"3": [720, 1], "4": [-720, 1]}

    def test_series_small(self):
        terms = payload("series-r3-p4")["terms"]
        assert [term for term in terms if term["p_power"] == 2] == [
            {"coeff_num": -1, "coeff_den": 4, "n_falling": 4, "p_power": 2}
        ]

    def test_delta(self):
        assert payload("delta-6-3-i2")["moment_sum"] == {"3": [720, 1]}

    def test_delta_past_the_copy_count_walks_nothing(self, tmp_path, monkeypatch):
        # n = 5 has 30 copies, so no polymer has 31: the sum is 0 at once,
        # without walking the smaller sets
        from linhyp import expansion

        def unreachable(*_args, **_kwargs):
            raise AssertionError("walked the connected sets")

        monkeypatch.setattr(expansion, "_connected_set_masks", unreachable)
        code, data = run(tmp_path, "delta", "5", "3", "--i", "31")
        assert code == 0 and data["moment_sum"] == {}

    def test_delta_cap_counts_the_smaller_sets(self, capsys, monkeypatch):
        # the one set of all 30 copies is reached only through every smaller
        # connected set; the cap counts those too, so the first set walked,
        # one copy standing for its orbit of 30, is already over cap 1
        from linhyp import expansion

        walk = expansion._connected_set_masks
        walked = []

        def counted(*args, **kwargs):
            for item in walk(*args, **kwargs):
                walked.append(item)
                yield item

        monkeypatch.setattr(expansion, "_connected_set_masks", counted)
        assert main(["delta", "5", "3", "--i", "30", "--cap", "1"]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "cap_exceeded"
        assert err["context"] == {"cap": 1, "size": 30}
        assert len(walked) == 1

    def test_cumulants(self):
        assert payload("cumulants-6-3-k3")["cumulant_sum"]["2"] == [-90, 1]

    def test_oracle_value(self):
        assert payload("oracle-4-3")["value"] == {"num": 5, "den": 16}

    def test_montecarlo(self):
        rep = payload("montecarlo-5-3")["report"]
        assert rep["trials"] == 4000 and rep["hits"] == 129
        assert rep["rng_name"] == "philox4x64-block512"

    def test_asymptotic(self):
        data = payload("asymptotic-50-3")
        assert "refined_r3" in data and "general_r" in data
        assert data["refined_r3"]["log_prob"] < 0

    def test_asymptotic_below_the_float_range(self):
        # p = 10^-400 is 0.0 as a float; the exponent comes from the rational
        refined = payload("asymptotic-p-1e-400")["refined_r3"]
        assert refined["diagnostics"]["p_exponent"] == pytest.approx(400)
        assert refined["valid"] is True

    def test_compare_single_point(self):
        row = payload("compare-6-3")["rows"][0]
        assert row["log_exact"] is not None
        assert row["log_T2"] is not None and row["mc_estimate"] is not None

    def test_compare_exact_cell_past_the_subset_scan(self):
        exact = exact_linearity_polynomial(8, 3)(Fraction(1, 100))
        assert payload("compare-8-3")["rows"][0]["log_exact"] == log_fraction(exact)

    def test_compare_csv_sweep(self):
        lines = sections("compare-sweep-csv")["sweep.csv"].splitlines()
        assert lines[0] == (
            "p,log_exact,log_T2,log_T3,log_T4,log_closed_r3,log_closed_general,"
            "mc_estimate,mc_stderr"
        )
        assert len(lines) == 13
        # Monte Carlo columns were not requested: empty, never zero
        assert lines[1].endswith(",,")

    def test_compare_closed_form_cells_are_never_positive(self):
        # an invalid closed form leaves its cell empty: at n = 6 the r = 3
        # form is positive at every point of the sweep, and the general
        # form at the one-edge host is 1.56e38
        rows = [row for row in ROWS if row.argv[0] == "compare" and row.code == 0]
        assert len(rows) == 4
        closed = ["log_closed_r3", "log_closed_general"]
        for row in rows:
            for cells in payload(row.id)["rows"]:
                assert all(cells[name] is None or cells[name] <= 0 for name in closed)
        assert payload("compare-6-3")["rows"][0]["log_closed_r3"] is None
        assert payload("one-edge-compare")["rows"][0]["log_closed_general"] is None
        assert payload("compare-8-3")["rows"][0]["log_closed_r3"] < 0

    @pytest.mark.parametrize("n, r", [(5, 3), (6, 3), (6, 4)])
    def test_compare_sweep_columns(self, tmp_path, n, r):
        # every row carries the column table's names, the CSV its in_csv
        # names, and cumulant_k3 equals log_T4 (the cumulant-cluster identity)
        columns = cli._compare_columns(n, r, None, 0, 0)
        csv_path = tmp_path / "sweep.csv"
        code, data = run(
            tmp_path, "compare", str(n), str(r), "--sweep", "0.0005,0.02,4",
            "--trials", "200", "--seed", "1", "--csv", str(csv_path),
        )
        assert code == 0 and len(data["rows"]) == 4
        names = [name for name, _in_csv, _value in columns]
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(name for name, in_csv, _value in columns if in_csv)
        assert "cumulant_k3" in names and "cumulant_k3" not in header.split(",")
        for row in data["rows"]:
            assert sorted(row) == sorted(names)
            assert row["cumulant_k3"] == row["log_T4"]

    def test_compare_sweep_row_equals_single_point(self, tmp_path):
        # the sweep evaluates polynomials built once per run; its row at
        # p = 0.0005 must be the row a single-point run computes
        code, sweep = run(tmp_path, "compare", "6", "3", "--sweep", "0.0005,0.02,2")
        assert code == 0
        code, single = run(tmp_path, "compare", "6", "3", "--p", "1/2000")
        assert code == 0
        assert sweep["rows"][0] == single["rows"][0]

    def test_verify(self):
        lines, _, data = sections("verify")["stdout"].partition("{")
        assert json.loads("{" + data)["all_passed"] is True
        assert all(line.startswith("PASS") for line in lines.splitlines())


class TestDeterminism:
    @staticmethod
    def results(tmp_path, argv, workers):
        """The distinct payloads of `argv` run once per worker count, less
        the duration, the hash, and the pool size and file name, which are
        configuration, not results."""
        texts = set()
        for i, count in enumerate(workers):
            out = tmp_path / f"out{i}.json"
            assert main([*argv, "--output", str(out), "--workers", str(count)]) == 0
            data = json.loads(out.read_text())
            for key in ("workers", "output"):
                data["config"].pop(key)
            for key in ("duration_seconds", "repro_sha256"):
                data.pop(key)
            texts.add(json.dumps(data, sort_keys=True))
        return texts

    def test_montecarlo_byte_identical_across_runs_and_workers(self, tmp_path):
        argv = ["montecarlo", "5", "3", "--p", "0.1", "--trials", "3000", "--seed", "7"]
        assert len(self.results(tmp_path, argv, (1, 1, 4, 8))) == 1

    def test_expand_byte_identical_across_workers(self, tmp_path):
        argv = ["expand", "6", "3", "--k", "4"]
        assert len(self.results(tmp_path, argv, (1, 4, 8))) == 1

    def test_repro_hash_stable(self, tmp_path):
        _, a = run(tmp_path, "copies", "5", "3")
        _, b = run(tmp_path, "copies", "5", "3")
        assert a["repro_sha256"] == b["repro_sha256"]

    def test_repro_hash_ignores_workers(self, tmp_path):
        _, a = run(tmp_path, "expand", "5", "3", "--k", "3", "--workers", "1")
        _, b = run(tmp_path, "expand", "5", "3", "--k", "3", "--workers", "2")
        assert a["config"]["workers"] == 1 and b["config"]["workers"] == 2
        assert a["repro_sha256"] == b["repro_sha256"]


class TestStamping:
    """`main` stamps every payload, partial ones too: the tool version, the
    parsed configuration, and a hash over both that leaves out the
    duration and the worker count."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["copies", "5", "3"], 0),
            (["expand", "5", "3", "--k", "3"], 0),
            (["expand", "6", "3", "--k", "4", "--cap", "6000", "--allow-partial"], 3),
            (["series", "--max-p-power", "2"], 0),
            (["delta", "6", "3", "--i", "1"], 0),
            (["cumulants", "5", "3", "--k", "1"], 0),
            (["oracle", "4", "3", "--p", "1/2"], 0),
            (["montecarlo", "4", "3", "--p", "0.5", "--trials", "200", "--seed", "5",
              "--workers", "2"], 0),
            (["asymptotic", "50", "3", "--p", "0.002"], 0),
            (["compare", "6", "3", "--p", "1/100"], 0),
            (["verify"], 0),
        ],
    )
    def test_hash_recomputes_from_the_payload(self, tmp_path, capsys, argv, code):
        out = tmp_path / "out.json"
        assert main([*argv, "--output", str(out)]) == code
        data = json.loads(out.read_text())
        assert data["tool_version"] == linhyp.__version__
        assert data["config"]["command"] == argv[0]
        assert data["duration_seconds"] >= 0
        hashed = {k: v for k, v in data.items() if k not in ("duration_seconds", "repro_sha256")}
        hashed["config"] = {k: v for k, v in data["config"].items() if k != "workers"}
        canonical = json.dumps(hashed, sort_keys=True).encode()
        assert data["repro_sha256"] == hashlib.sha256(canonical).hexdigest()


class TestErrors:
    def test_validation_exit_code(self):
        assert golden_error("invalid-copies-r-above-n")["type"] == "validation"

    def test_cap_exit_code(self):
        err = golden_error("cap-oracle-10-3")
        assert err["type"] == "cap_exceeded"
        assert err["context"] == {"edges": 120, "cap": EXACT_EDGE_CAP}

    def test_copy_cap_of_a_huge_host(self, capsys):
        # C(100000, 50000) has 30,101 digits, past hypergraph.COUNT_LIMIT:
        # the copy count is not formed, and the error prints under the
        # interpreter's default digit limit
        assert main(["expand", "100000", "50000", "--k", "2"]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "cap_exceeded"
        assert err["context"] == {"cap": COPY_CAP}
        assert f"more than {hypergraph.MAX_DIGITS} digits" in err["message"]

    @pytest.mark.parametrize(
        "row_id",
        [row.id for row in ROWS if row.id.startswith("too-large-")],
        ids=lambda row_id: row_id.removeprefix("too-large-"),
    )
    def test_cap_of_a_host_too_large_to_count(self, row_id):
        # C(n, r) has 301,027, 30,102,996, more than 10^399 and more than
        # 2.8 * 10^12 digits here: it is counted only up to COUNT_LIMIT, so
        # the cap error's context gives the cap alone
        err = golden_error(row_id)
        caps = {"oracle": EXACT_EDGE_CAP, "montecarlo": MC_PAIR_TABLE_CAP}
        cap = caps.get(row_id.split("-")[2], COPY_CAP)
        assert err["context"] == {"cap": cap}
        assert f"more than {hypergraph.MAX_DIGITS} digits" in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            # p = 10^-4300 is read, but its denominator does not print
            "montecarlo 5 3 --p 1e-4300 --trials 1 --seed 0",
            # decimals outside [0,1), whose numerator or denominator does
            # not print either
            "asymptotic 5 3 --p 1e4300",
            "montecarlo 5 3 --p=-1e-4300 --trials 1 --seed 0",
            # P(p) has a denominator of 5,000 digits
            "oracle 5 3 --p 1/1" + "0" * 500,
        ],
        ids=["mc-p-den", "p-above-1", "p-negative", "oracle-value"],
    )
    def test_a_value_past_the_digit_limit_is_refused(self, argv):
        # the CLI runs under the interpreter's default digit limit, so a
        # rational it would print exactly past that limit is a JSON
        # validation error instead of a traceback
        code, stdout, stderr = run_in_process(argv.split())
        assert code == 2 and stdout == ""
        assert json.loads(stderr)["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "row_id", ["asymptotic-50-3", "cap-copies-2049-3"], ids=["exit-0", "exit-3"]
    )
    def test_runs_without_the_int_digit_limit_api(self, monkeypatch, row_id):
        # Python 3.10.0-3.10.6 have neither sys.get_int_max_str_digits nor
        # sys.set_int_max_str_digits, and no sys.int_info.default_max_str_digits
        # (all came with the CVE-2020-10735 fix in 3.10.7); this simulates
        # such an interpreter, since none is installed to test on
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        info = sys.int_info
        monkeypatch.setattr(sys, "int_info", (info.bits_per_digit, info.sizeof_digit))
        (row,) = [row for row in ROWS if row.id == row_id]
        code, _stdout, stderr = run_in_process(row.argv)
        assert code == row.code and "Traceback" not in stderr

    @pytest.mark.parametrize(
        "row_id",
        [row.id for row in ROWS if row.id.startswith("one-edge-")],
        ids=lambda row_id: row_id.removeprefix("one-edge-"),
    )
    def test_one_edge_host_of_any_size_answers_at_once(self, row_id):
        # n = r = 10^10: one edge of 10^10 vertices, which is never listed,
        # no copies and P = 1
        data = payload(row_id)
        assert data.get("count", 0) == 0 and data.get("copies", []) == []
        if "oracle" in row_id:
            assert data["polynomial"] == {"0": [1, 1]}
        if row_id == "one-edge-oracle":
            assert data["value"] == {"num": 1, "den": 1}
        if row_id == "one-edge-montecarlo":
            assert data["report"]["hits"] == data["report"]["trials"] == 1

    def test_sweep_count_past_the_limit_exits_promptly(self):
        # 10^8 points would need gigabytes before the first row is built
        limit = cli.MAX_SWEEP_POINTS
        assert f"count <= {limit}" in golden_error("invalid-sweep-points")["message"]
        assert len(cli._sweep_points(f"0.0001,0.5,{limit}")) == limit
        with pytest.raises(ValidationError):
            cli._sweep_points(f"0.0001,0.5,{limit + 1}")

    def test_cumulant_size_past_the_partition_rows(self):
        # the walk reaches polymers of 9 copies at once, one past the
        # largest whose set partitions cumulant_sum lists
        err = golden_error("cap-cumulants-partition-rows")
        assert err["context"] == {"size": 9, "cap": 8}
        assert "is 9, over the cap of 8" in err["message"]

    def test_compare_cap_is_the_expand_cap_error(self):
        assert golden_error("cap-compare-10") == golden_error("cap-expand-10")

    def test_expand_cap_partial_opt_in(self):
        # no partial output without the flag; with it, see the next test
        assert list(sections("cap-no-partial")) == ["stderr"]

    def test_expand_cap_does_not_depend_on_workers(self):
        assert golden_error("cap-no-partial") == golden_error("cap-no-partial-workers-2")

    def test_expand_cap_context_names_completed_orders(self):
        streams = sections("cap-partial")
        data = json.loads(streams["partial.json"])
        assert data["partial"] is True
        assert data["cap_context"] == {
            "cap": 6000, "completed_orders": [1, 2], "partial_order": 3
        }
        assert sorted(data["orders"]) == ["1", "2"]
        error = json.loads(streams["stderr"])["error"]
        assert error["type"] == "cap_exceeded" and error["context"] == data["cap_context"]

    @numbered([row.id for row in ROWS if row.code == 2])
    def test_bad_input_is_a_json_validation_error(self, row_id):
        assert golden_error(row_id)["type"] == "validation"

    @numbered(["invalid-p-exponent", "invalid-montecarlo-p-exponent", "invalid-p-4301-chars"])
    def test_decimal_past_the_digit_limit_exits_promptly(self, row_id):
        # p = 1e-100000 kept exact makes sums over 100,000-digit denominators
        # (6 s for `asymptotic 10 3`); the text and its exponent are held to
        # the interpreter's 4300-digit int-parse limit while parsing
        assert "4300" in golden_error(row_id)["message"]

    def test_decimal_at_the_digit_limit_evaluates(self):
        refined = payload("asymptotic-p-1e-4300")["refined_r3"]
        assert refined["diagnostics"]["p_exponent"] == pytest.approx(4300)

    def test_p_format_mixing_rejected(self):
        assert "decimals are reserved" in golden_error("invalid-oracle-decimal-p")["message"]
        message = golden_error("invalid-rational-p")["message"]
        assert "rationals are reserved" in message

    def test_compare_needs_p_or_sweep(self):
        message = golden_error("invalid-compare-no-p")["message"]
        assert message == "one of the arguments --p --sweep is required"

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "5", "3", "--k", "2"],
            ["expand", "6", "3", "--k", "4", "--cap", "1", "--allow-partial"],
        ],
    )
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_is_a_validation_error(self, tmp_path, capsys, argv, where):
        path = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
        assert main([*argv, "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "validation" and str(path) in err["message"]

    def test_unwritable_csv_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "sweep.csv"
        argv = ["compare", "5", "3", "--p", "1/100", "--csv", str(path)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and str(path) in err["message"]

    def test_unwritable_dump_adjacency_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["expand", "5", "3", "--k", "2", "--dump-adjacency", str(tmp_path)]
        assert main([*argv, "--output", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and str(tmp_path) in err["message"]

    def test_oversized_montecarlo_host_is_a_cap_error(self):
        err = golden_error("cap-montecarlo-2049-3")
        assert err["type"] == "cap_exceeded"
        # C(2049, 3) edges of C(3, 2) pair-table entries each
        assert err["context"] == {"entries": 1431655424 * 3, "cap": 2**26}

    @pytest.mark.parametrize(
        "argv",
        [
            ["copies", "2049", "3"],
            ["compare", "2049", "3", "--p", "1/1000", "--trials", "1"],
        ],
        ids=["copies", "compare"],
    )
    def test_oversized_copy_host_is_a_cap_error(self, monkeypatch, capsys, argv):
        def unreachable(*_):
            raise AssertionError("the copy scan started past the cap")

        monkeypatch.setattr(hypergraph, "combinations", unreachable)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["type"] == "cap_exceeded"
        # [n]_4 / 4 copies for r = 3
        assert err["context"] == {"copies": 2049 * 2048 * 2047 * 2046 // 4, "cap": COPY_CAP}


@pytest.fixture
def no_engines(monkeypatch):
    """Stubs the first engine call of every subcommand in its defining
    module, where the handlers import it from when they run.  Every
    module of the package is imported first, so none binds a stub that
    outlives the test."""
    for module in set(linhyp._EXPORTS.values()):
        importlib.import_module(f"linhyp.{module}")

    def unreachable(*_args, **_kwargs):
        raise AssertionError("an engine ran before the arguments were checked")

    for target in (
        "linhyp.dependency.dependency_graph_for",
        "linhyp.cli._compare_columns",
        "linhyp.oracle.monte_carlo",
    ):
        monkeypatch.setattr(target, unreachable)


class TestOutputPathsCheckedFirst:
    """A bad output path exits 2 before any engine runs or any file is
    written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "6", "3", "--sweep", "0.0005,0.02,12", "--trials", "2000",
             "--csv", "{bad}"],
            ["compare", "6", "3", "--p", "1/100", "--output", "{bad}"],
            ["montecarlo", "5", "3", "--p", "0.1", "--trials", "10", "--seed", "1",
             "--output", "{bad}"],
            ["expand", "5", "3", "--k", "2", "--dump-adjacency", "{bad}"],
            ["expand", "5", "3", "--k", "2", "--dump-adjacency", "{ok}",
             "--output", "{bad}"],
            ["expand", "5", "3", "--k", "2", "--dump-adjacency", "{bad}",
             "--output", "{ok}"],
        ],
    )
    def test_bad_path_exits_before_any_work(self, tmp_path, capsys, no_engines, argv):
        bad, ok = tmp_path / "missing" / "x", tmp_path / "ok.txt"
        argv = [a.format(bad=bad, ok=ok) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "validation"
        assert err["message"] == f"cannot write {bad}: No such file or directory"
        assert list(tmp_path.iterdir()) == []

    def test_check_keeps_an_existing_file(self, tmp_path, capsys, no_engines):
        kept = tmp_path / "kept.json"
        kept.write_text("earlier run\n")
        argv = ["expand", "5", "3", "--k", "2", "--output", str(kept),
                "--dump-adjacency", str(tmp_path)]
        assert main(argv) == 2
        assert kept.read_text() == "earlier run\n"
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"].startswith(f"cannot write {tmp_path}: ")


class TestSeedCheckedFirst:
    """A seed outside Philox's key range exits 2 before any engine runs,
    also where no trial would use it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "6", "3", "--sweep", "0.0005,0.02,12", "--trials", "2000",
             "--seed", "-1"],
            ["compare", "6", "3", "--p", "1/100", "--trials", "0", "--seed", "-1"],
            ["montecarlo", "5", "3", "--p", "0.1", "--trials", "10", "--seed", str(2**128)],
        ],
    )
    def test_bad_seed_exits_before_any_work(self, capsys, no_engines, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "validation"
        assert "seed must be in 0 .. 2^128 - 1" in err["message"]


class TestTrialsCheckedFirst:
    """`montecarlo --trials` below 1 exits 2 while parsing, before the
    sampler runs."""

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trials_exit_before_any_work(self, capsys, no_engines, trials):
        argv = ["montecarlo", "5", "3", "--p", "0.1", "--trials", trials, "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "validation"
        assert f"argument --trials: must be >= 1, got {trials}" in err["message"]


class TestSizeCheckedFirst:
    """A polymer size below 1 exits 2 while parsing, before the graph is
    built, also where the host is over the copy cap."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "30", "3", "--i", "0"],
            ["cumulants", "30", "3", "--k", "0"],
            ["delta", "6", "3", "--i", "-1"],
            ["cumulants", "6", "3", "--k", "0"],
        ],
    )
    def test_bad_size_exits_before_any_work(self, capsys, no_engines, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "validation"
        assert f"argument {argv[3]}: must be >= 1" in err["message"]


SRC = Path(__file__).resolve().parents[1] / "src"


def modules_loaded(code: str) -> set[str]:
    """The modules in sys.modules after running `code` in a fresh
    interpreter that imports linhyp from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


def numpy_loaded(code: str) -> bool:
    return "numpy" in modules_loaded(code)


def main_call(*argv: str) -> str:
    return f"from linhyp.cli import main\nassert main({list(argv)!r}) == 0"


VERSION_CALL = (
    "from linhyp.cli import main\ntry:\n    main(['--version'])\n"
    "except SystemExit as exc:\n    assert exc.code == 0"
)


def linhyp_modules(code: str) -> set[str]:
    return {m for m in modules_loaded(code) if m == "linhyp" or m.startswith("linhyp.")}


class TestStartupImports:
    """Each subcommand loads only the modules it runs: the subcommands that
    neither sample nor build the alternating-sum table start without numpy,
    and none loads an engine it does not call."""

    def test_import_linhyp_loads_no_engine(self):
        assert linhyp_modules("import linhyp") == {"linhyp"}

    def test_version_loads_only_the_parser(self):
        assert linhyp_modules(VERSION_CALL) == {"linhyp", "linhyp.cli", "linhyp.errors"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "5", "3", "--p", "0.1", "--trials", "10", "--seed", "1"),
            ("asymptotic", "50", "3", "--p", "0.002"),
            ("oracle", "6", "3", "--p", "1/2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_cluster_engine_outside_the_cluster_paths(self, argv):
        loaded = linhyp_modules(main_call(*argv))
        assert not loaded & {"linhyp.expansion", "linhyp.graphcalc", "linhyp.dependency"}

    def test_every_export_resolves_to_its_module_object(self):
        for name in linhyp.__all__:
            module = importlib.import_module(f"linhyp.{linhyp._EXPORTS[name]}")
            assert getattr(linhyp, name) is getattr(module, name), name
        with pytest.raises(AttributeError):
            linhyp.no_such_name  # noqa: B018

    @pytest.mark.parametrize(
        "code",
        [
            pytest.param("import linhyp", id="import-linhyp"),
            pytest.param("import linhyp.cli", id="import-cli"),
            pytest.param(VERSION_CALL, id="version"),
            pytest.param(main_call("copies", "5", "3"), id="copies"),
            pytest.param(main_call("expand", "5", "3", "--k", "3"), id="expand"),
            pytest.param(main_call("series", "--max-p-power", "2"), id="series"),
            pytest.param(main_call("delta", "5", "3", "--i", "2"), id="delta"),
            pytest.param(main_call("cumulants", "5", "3", "--k", "2"), id="cumulants"),
            pytest.param(
                main_call("asymptotic", "50", "3", "--p", "0.002"), id="asymptotic"
            ),
            pytest.param(main_call("oracle", "6", "3", "--p", "1/2"), id="oracle"),
            pytest.param(main_call("compare", "6", "3", "--p", "1/100"), id="compare"),
        ],
    )
    def test_numpy_free_paths(self, code):
        assert not numpy_loaded(code)

    def test_sampler_loads_numpy(self):
        argv = ("montecarlo", "5", "3", "--p", "0.1", "--trials", "10", "--seed", "1")
        assert numpy_loaded(main_call(*argv))
