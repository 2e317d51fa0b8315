"""Tests of the benchmark itself, on the n = 5 workloads (`TINY`).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from layers import PER_LAYER, UNITS  # noqa: E402
from workloads import FULL, TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny_run(name: str, trace: int) -> tuple[dict, str]:
    out = _bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1]), out.stdout


def _traced_op(name: str) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "trace_op.py"), "--workload", name,
                          "--seed", "3", "--size", "tiny"], cwd=ROOT, env=run.child_env(),
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_tables_match_benchmark_json():
    assert sorted(FULL) == sorted(w["name"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, text = _tiny_run(name, 0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    assert "\nfail_ratio 0.0 " in text and "\nenv {" in text


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    result, _ = _tiny_run(name, 1)
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_every_entry_point_records_a_span():
    never = None
    for name in sorted(TINY):
        missing = set(_traced_op(name)["missing_spans"])
        never = missing if never is None else never & missing
    assert never == set()


def test_renamed_entry_point_fails_at_install(monkeypatch):
    monkeypatch.setattr(tracer, "ENTRY_POINTS",
                        [("linhyp.expansion", "no_such_layer", "x", None, False)])
    with pytest.raises(AttributeError):
        tracer.Tracer().install()


def test_counts_repeat_exactly():
    counts = [
        {k: v for k, v in _traced_op("sweep")["metrics"].items() if UNITS[k] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["dependency.polymers.o3"] > 0 and counts[0]["expansion.term_calls"] > 0


def _bump_first(poly_json: dict) -> None:
    poly_json[next(iter(poly_json))][0] += 1


def _corrupt(name: str, ref: dict) -> None:
    if name == "expand":
        _bump_first(ref["orders"]["2"])
    elif name == "sweep":
        _bump_first(ref["exact"])
    elif name == "series":
        ref["terms"][0]["coeff_num"] += 1
    else:
        ref["hits"] = 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_reference_raises_fail_ratio(name):
    workload = TINY[name]
    ref = workload.reference()
    _corrupt(name, ref)
    result = run.run_workload(workload, 3, 0.1, False, ref, "tiny")
    assert result["failed"] == result["attempted"] >= 1
    assert result["problems"]


def test_expand_orders_do_not_depend_on_workers():
    orders = []
    for workers in ("1", "2"):
        op = run.launch(run.cli(["expand", "5", "3", "--k", "4", "--workers", workers]))
        assert op["exit"] == 0, op["stderr"]
        orders.append(json.loads(op["stdout"])["orders"])
    assert orders[0] == orders[1]


def test_workers_mismatch_is_reported():
    mc = TINY["montecarlo"]
    assert mc.invariance_problem({"report": {"hits": 5}}, {"report": {"hits": 6}})
    assert mc.invariance_problem({"report": {"hits": 5}}, {"report": {"hits": 5}}) is None


def test_stored_references_match_the_workloads():
    for workload in FULL.values():
        workload.load_reference()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "expand", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
