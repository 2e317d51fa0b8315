"""Command-line behaviour: outputs, determinism, error objects, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import linhyp
from linhyp import cli, hypergraph
from linhyp.cli import main
from linhyp.hypergraph import COPY_CAP
from linhyp.oracle import exact_linearity_polynomial
from linhyp.polynomial import log_fraction


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def stable(data):
    """Payload minus the wall-clock field, which legitimately varies."""
    return {k: v for k, v in data.items() if k != "duration_seconds"}


class TestSubcommands:
    def test_copies(self, tmp_path):
        code, data = run(tmp_path, "copies", "6", "3")
        assert code == 0 and data["count"] == 90
        assert data["tool_version"]
        assert data["config"]["n"] == 6

    def test_copies_listing(self, tmp_path):
        code, data = run(tmp_path, "copies", "4", "3", "--list")
        assert code == 0 and len(data["copies"]) == 6

    def test_expand(self, tmp_path):
        code, data = run(tmp_path, "expand", "6", "3", "--k", "3")
        assert code == 0
        assert data["orders"]["1"] == {"2": [-90, 1]}
        assert data["orders"]["2"] == {"3": [720, 1], "4": [-720, 1]}

    def test_series_small(self, tmp_path):
        code, data = run(tmp_path, "series", "--max-p-power", "2")
        assert code == 0
        assert data["terms"] == [
            {"coeff_num": -1, "coeff_den": 4, "n_falling": 4, "p_power": 2}
        ]

    def test_delta(self, tmp_path):
        code, data = run(tmp_path, "delta", "6", "3", "--i", "1")
        assert code == 0 and data["moment_sum"] == {"2": [90, 1]}

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

    def test_cumulants(self, tmp_path):
        code, data = run(tmp_path, "cumulants", "5", "3", "--k", "1")
        assert code == 0 and data["cumulant_sum"] == {"2": [-30, 1]}

    def test_oracle_value(self, tmp_path):
        code, data = run(tmp_path, "oracle", "4", "3", "--p", "1/2")
        assert code == 0
        assert data["value"] == {"num": 5, "den": 16}

    def test_montecarlo(self, tmp_path):
        code, data = run(
            tmp_path, "montecarlo", "4", "3", "--p", "0.5", "--trials", "2000",
            "--seed", "5",
        )
        assert code == 0
        rep = data["report"]
        assert rep["trials"] == 2000 and rep["rng_name"] == "philox4x64-block512"

    def test_asymptotic(self, tmp_path):
        code, data = run(tmp_path, "asymptotic", "50", "3", "--p", "0.002")
        assert code == 0
        assert "refined_r3" in data and "general_r" in data
        assert data["refined_r3"]["log_prob"] < 0

    def test_asymptotic_below_the_float_range(self, tmp_path):
        # p = 10^-400 is 0.0 as a float; the exponent comes from the rational
        code, data = run(tmp_path, "asymptotic", "10", "3", "--p", "1e-400")
        assert code == 0
        assert data["refined_r3"]["diagnostics"]["p_exponent"] == pytest.approx(400)
        assert data["refined_r3"]["valid"] is True

    def test_compare_single_point(self, tmp_path):
        code, data = run(
            tmp_path, "compare", "6", "3", "--p", "1/100", "--trials", "2000",
            "--seed", "3",
        )
        assert code == 0
        row = data["rows"][0]
        assert row["log_exact"] is not None
        assert row["log_T2"] is not None and row["mc_estimate"] is not None

    def test_compare_exact_cell_past_the_subset_scan(self, tmp_path):
        code, data = run(tmp_path, "compare", "8", "3", "--p", "1/100")
        assert code == 0
        exact = exact_linearity_polynomial(8, 3)(Fraction(1, 100))
        assert data["rows"][0]["log_exact"] == log_fraction(exact)

    def test_compare_csv_sweep(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        out = tmp_path / "out.json"
        code = main(
            [
                "compare", "6", "3", "--sweep", "0.001,0.01,3",
                "--csv", str(csv_path), "--output", str(out),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == (
            "p,log_exact,log_T2,log_T3,log_T4,log_closed_r3,log_closed_general,"
            "mc_estimate,mc_stderr"
        )
        assert len(lines) == 4
        # Monte Carlo columns were not requested: empty, never zero
        assert lines[1].endswith(",,")

    def test_compare_sweep_row_equals_single_point(self, tmp_path):
        # the sweep evaluates polynomials built once per run; its row at
        # p = 0.0005 must be the row a single-point run computes
        code, sweep = run(tmp_path, "compare", "6", "3", "--sweep", "0.0005,0.02,2")
        assert code == 0
        code, single = run(tmp_path, "compare", "6", "3", "--p", "1/2000")
        assert code == 0
        assert sweep["rows"][0] == single["rows"][0]

    def test_verify(self, tmp_path, capsys):
        code, data = run(tmp_path, "verify")
        assert code == 0
        assert data["all_passed"] is True
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines if line)


class TestDeterminism:
    def test_montecarlo_byte_identical_across_runs_and_workers(self, tmp_path):
        texts = []
        for i, workers in enumerate((1, 1, 4, 8)):
            out = tmp_path / f"mc{i}.json"
            code = main(
                [
                    "montecarlo", "5", "3", "--p", "0.1", "--trials", "3000",
                    "--seed", "7", "--output", str(out), "--workers", str(workers),
                ]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            # pool size and file name are configuration, not results
            payload["config"].pop("workers")
            payload["config"].pop("output")
            payload.pop("repro_sha256")
            texts.append(json.dumps(stable(payload), sort_keys=True))
        assert len(set(texts)) == 1

    def test_expand_byte_identical_across_workers(self, tmp_path):
        texts = []
        for i, workers in enumerate((1, 4, 8)):
            out = tmp_path / f"ex{i}.json"
            code = main(
                ["expand", "6", "3", "--k", "4", "--output", str(out),
                 "--workers", str(workers)]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            payload["config"].pop("workers")
            payload["config"].pop("output")
            payload.pop("repro_sha256")
            texts.append(json.dumps(stable(payload), sort_keys=True))
        assert len(set(texts)) == 1

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
    def test_validation_exit_code(self, tmp_path, capsys):
        code = main(["copies", "2", "3"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"

    def test_cap_exit_code(self, tmp_path, capsys):
        code = main(["oracle", "10", "3"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "cap_exceeded"
        assert err["error"]["context"] == {"edges": 120}

    def test_copy_cap_of_a_huge_host(self, capsys):
        # C(100000, 50000)^2 / 2 copies: counted from four binomials, and
        # reported with more digits than the interpreter's default limit
        limit = sys.get_int_max_str_digits()
        assert main(["expand", "100000", "50000", "--k", "2"]) == 3
        assert sys.get_int_max_str_digits() == limit
        err = json.loads(capsys.readouterr().err, parse_int=str)["error"]
        assert err["type"] == "cap_exceeded"
        assert err["context"]["cap"] == str(COPY_CAP)
        assert len(err["context"]["copies"]) > limit

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["oracle", "1000000", "500000"], {"edges_log10"}),
            (
                ["montecarlo", "1000000", "500000", "--p", "0.1", "--trials", "1", "--seed", "0"],
                {"edges_log10", "cap"},
            ),
            (["copies", "100000000", "50000000"], {"edges_log10", "cap"}),
        ],
        ids=["oracle", "montecarlo", "copies"],
    )
    def test_cap_of_a_host_too_large_to_count(self, capsys, argv, keys):
        # C(n, r) has 301,027 and 30,102,996 digits here: past
        # EXACT_COUNT_DIGITS the cap error gives log10 C(n, r) at once
        started = time.monotonic()
        assert main(argv) == 3
        assert time.monotonic() - started < 2
        context = json.loads(capsys.readouterr().err)["error"]["context"]
        assert set(context) == keys
        assert context["edges_log10"] > hypergraph.EXACT_COUNT_DIGITS

    def test_compare_cap_is_the_expand_cap_error(self, capsys):
        assert main(["compare", "6", "3", "--p", "1/100", "--cap", "10"]) == 3
        compare_err = capsys.readouterr().err
        assert main(["expand", "6", "3", "--k", "4", "--cap", "10"]) == 3
        assert compare_err == capsys.readouterr().err
        assert json.loads(compare_err)["error"]["type"] == "cap_exceeded"

    def test_expand_cap_partial_opt_in(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(
            ["expand", "6", "3", "--k", "4", "--cap", "100", "--output", str(out)]
        )
        assert code == 3
        assert not out.exists()  # no partial output without the flag
        code = main(
            [
                "expand", "6", "3", "--k", "4", "--cap", "100",
                "--allow-partial", "--output", str(out),
            ]
        )
        assert code == 3
        data = json.loads(out.read_text())
        assert data["partial"] is True and "1" in data["orders"]

    def test_expand_cap_does_not_depend_on_workers(self, capsys):
        errors = []
        for workers in ("1", "2"):
            code = main(
                ["expand", "6", "3", "--k", "4", "--cap", "6000", "--workers", workers]
            )
            assert code == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert json.loads(errors[0])["error"]["type"] == "cap_exceeded"

    def test_expand_cap_context_names_completed_orders(self, tmp_path, capsys):
        code, data = run(
            tmp_path, "expand", "6", "3", "--k", "4", "--cap", "6000", "--allow-partial"
        )
        assert code == 3
        assert data["cap_context"] == {
            "cap": 6000, "completed_orders": [1, 2], "partial_order": 3
        }
        assert sorted(data["orders"]) == ["1", "2"]
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "cap_exceeded" and error["context"] == data["cap_context"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "6", "3", "--sweep", "0.1,0.2"],
            ["compare", "6", "3", "--sweep", "0.1,0.2,x"],
            ["montecarlo", "4", "3", "--p", "0.5", "--trials", "10", "--seed", "-1"],
            ["oracle", "4", "3", "--p", "3/2"],
            ["oracle", "4", "3", "--p", "0/1"],
            ["compare", "4", "3", "--p", "1/1"],
            ["expand", "5", "3", "--k", "3", "--cap", "-1"],
            ["copies", "5", "3", "--workers", "0"],
            ["copies", "5", "3", "--workers", "-3"],
            ["compare", "4", "3", "--p", "1/100", "--trials", "-5"],
            ["expand", "6", "3", "--k", "1"],
            ["expand", "6", "3"],
            ["compare", "5", "3", "--p", "1/2", "--sweep", "0.1,0.2,2"],
            ["compare", "5", "3"],
            ["compare", "5", "3", "--sweep", "1e-13,3e-13,3"],
            # 1e-400 is 0.0 as a float, so it spans no geometric grid
            ["compare", "6", "3", "--sweep", "1e-400,0.5,3"],
            # --cap only where a cap is honoured, --allow-partial only on expand
            ["series", "--max-p-power", "2", "--cap", "1"],
            ["oracle", "4", "3", "--cap", "1"],
            ["copies", "5", "3", "--allow-partial"],
            ["compare", "6", "3", "--p", "1/100", "--cap", "10", "--allow-partial"],
            # estimates whose magnitude is past the float range
            ["asymptotic", "400", "200", "--p", "0.5"],
            ["asymptotic", str(10**100), "3", "--p", "0.5"],
            # ... raised before C(n, r), which has 30 million digits, is built
            ["asymptotic", "100000000", "50000000", "--p", "0.5"],
        ],
    )
    def test_bad_input_is_a_json_validation_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "argv",
        [
            ["asymptotic", "10", "3", "--p", "1e-100000"],
            ["montecarlo", "50", "3", "--p", "1e-100000", "--trials", "1", "--seed", "0"],
            ["asymptotic", "10", "3", "--p", "0." + "1" * 4300],
        ],
    )
    def test_decimal_past_the_digit_limit_exits_promptly(self, argv, capsys):
        # p = 1e-100000 kept exact makes sums over 100,000-digit denominators
        # (6 s for `asymptotic 10 3`); the text and its exponent are held to
        # the interpreter's 4300-digit int-parse limit while parsing
        started = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - started < 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "4300" in err["message"]

    def test_decimal_at_the_digit_limit_evaluates(self, tmp_path):
        code, data = run(tmp_path, "asymptotic", "10", "3", "--p", "1e-4300")
        assert code == 0
        assert data["refined_r3"]["diagnostics"]["p_exponent"] == pytest.approx(4300)

    def test_p_format_mixing_rejected(self, tmp_path, capsys):
        assert main(["oracle", "4", "3", "--p", "0.5"]) == 2
        capsys.readouterr()
        assert (
            main(["montecarlo", "4", "3", "--p", "1/2", "--trials", "10", "--seed", "0"])
            == 2
        )
        capsys.readouterr()

    def test_compare_needs_p_or_sweep(self, tmp_path, capsys):
        assert main(["compare", "5", "3"]) == 2
        capsys.readouterr()

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

    def test_oversized_montecarlo_host_is_a_cap_error(self, capsys):
        argv = ["montecarlo", "2049", "3", "--p", "0.001", "--trials", "1", "--seed", "0"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["type"] == "cap_exceeded"
        assert err["context"] == {"edges": 1431655424, "cap": 2**26}

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
        "linhyp.cli._compare_polynomials",
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
