"""Command-line behaviour: outputs, determinism, error objects, exit codes."""

import json

import pytest

from linhyp.cli import main


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
        assert rep["trials"] == 2000 and rep["rng_name"] == "philox4x64"

    def test_asymptotic(self, tmp_path):
        code, data = run(tmp_path, "asymptotic", "50", "3", "--p", "0.002")
        assert code == 0
        assert "refined_r3" in data and "general_r" in data
        assert data["refined_r3"]["log_prob"] < 0

    def test_compare_single_point(self, tmp_path):
        code, data = run(
            tmp_path, "compare", "6", "3", "--p", "1/100", "--trials", "2000",
            "--seed", "3",
        )
        assert code == 0
        row = data["rows"][0]
        assert row["log_exact"] is not None
        assert row["log_T2"] is not None and row["mc_estimate"] is not None

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


class TestErrors:
    def test_validation_exit_code(self, tmp_path, capsys):
        code = main(["copies", "2", "3"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"

    def test_cap_exit_code(self, tmp_path, capsys):
        code = main(["oracle", "8", "3"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "cap_exceeded"

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
        ],
    )
    def test_bad_input_is_a_json_validation_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "validation"

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
