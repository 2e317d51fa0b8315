"""linhyp benchmark: one workload, run back to back through the CLI.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 20 --trace 0

A closed loop with one client: each operation is its own `linhyp`
subprocess, launched only after the previous one exited, until the next
one would overrun --seconds (at least one always runs).  Every output is
checked against a reference from an independent engine (see
workloads.py), outside the timed span.

--trace 0 prints the end-to-end metrics: wall_s (median operation wall,
launch to exit), setup_s (median wall of `linhyp --version`), peak_rss_mib
(largest max-RSS of any process the run started, pool children included)
and fail_ratio (on its own line; the JSON carries it as failed/attempted).
--trace 1 runs every operation under trace_op.py instead and prints the
per-layer metrics, medians over the operations.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The environment block is printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: `linhyp --version` launches before the operations and again after them;
#: setup_s is the median of all of them, so it spans the run's whole window.
SETUP_LAUNCHES = 4

#: An operation that runs longer is killed and counted as failed.
OPERATION_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LINHYP_WORKERS", None)  # every argv names its --workers
    return env


def launch(cmd: list[str]) -> dict:
    """Run one process to its exit; wall time from launch to reaping."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=OPERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {OPERATION_TIMEOUT_S} s"
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "stdout": out, "stderr": err}


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "linhyp.cli", *argv]


def judge(workload, exit_code: int, stdout: str, stderr: str, ref: dict, seed: int):
    """(payload or None, problems) for one operation's output."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        payload = json.loads(stdout)
        problems += workload.check(payload, ref, seed)
    except (ValueError, KeyError, TypeError) as exc:
        return None, problems + [f"unreadable output: {exc!r}"]
    return (None if problems else payload), problems


def _traced(workload, seed: int, size: str) -> dict:
    op = launch([sys.executable, str(HERE / "trace_op.py"), "--workload", workload.name,
                 "--seed", str(seed), "--size", size])
    if op["exit"] != 0:
        return {"exit": op["exit"], "stdout": "", "stderr": op["stderr"], "wall_s": op["wall_s"]}
    result = json.loads(op["stdout"].splitlines()[-1])
    result["stderr"] = op["stderr"]
    return result


def run_workload(workload, seed: int, seconds: float, trace: bool, ref: dict,
                 size: str = "full") -> dict:
    """Operations back to back for `seconds`, each checked; then invariance."""
    walls, layer_runs, problems = [], [], []
    attempted = failed = 0
    payload = None
    begin = time.perf_counter()
    while True:
        if trace:
            op = _traced(workload, seed, size)
            if "metrics" in op:
                layer_runs.append(op["metrics"])
        else:
            op = launch(cli(workload.argv(seed)))
        walls.append(op["wall_s"])
        attempted += 1
        got, found = judge(workload, op["exit"], op["stdout"], op["stderr"], ref, seed)
        if found:
            failed += 1
            problems += found
        payload = got or payload
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            break
    other_argv = workload.invariance_argv(seed)
    if other_argv is not None:
        op = launch(cli(other_argv))
        attempted += 1
        other, found = judge(workload, op["exit"], op["stdout"], op["stderr"], ref, seed)
        if other is not None and payload is not None:
            mismatch = workload.invariance_problem(payload, other)
            found += [f"workers invariance: {mismatch}"] if mismatch else []
        if found:
            failed += 1
            problems += found
    return {"walls": walls, "layer_runs": layer_runs, "attempted": attempted,
            "failed": failed, "problems": problems}


def measure_setup() -> list[float]:
    return [launch(cli(["--version"]))["wall_s"] for _ in range(SETUP_LAUNCHES)]


def peak_rss_mib() -> float:
    """Largest max-RSS among the waited-for descendants (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def environment(seed: int, load_before: tuple, load_after: tuple) -> dict:
    nproc = os.cpu_count() or 1
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True).stdout.strip())
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "overloaded": max(load_before[0], load_after[0]) > nproc,
    }


def _median(values: list) -> float:
    """Median; counts, which repeat exactly, stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the n = 5 inputs of the benchmark's own tests, "
                        "with references computed on the spot")
    args = parser.parse_args(argv)

    if not (SRC / "linhyp" / "cli.py").is_file():
        print(f"no linhyp sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER
    from workloads import SIZES

    workloads = SIZES[args.size]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    ref = workload.load_reference() if args.size == "full" else workload.reference()

    load_before = os.getloadavg()
    if args.trace:
        run = run_workload(workload, args.seed, args.seconds, True, ref, args.size)
        metrics = {name: _metric(_median([r[name] for r in run["layer_runs"]]), unit)
                   for name, unit, _ in PER_LAYER if run["layer_runs"]}
    else:
        launch(cli(["--version"]))  # warm the page cache and the bytecode
        setup = measure_setup()
        run = run_workload(workload, args.seed, args.seconds, False, ref, args.size)
        setup += measure_setup()
        values = {"wall_s": statistics.median(run["walls"]),
                  "setup_s": statistics.median(setup), "peak_rss_mib": peak_rss_mib()}
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    env = environment(args.seed, load_before, os.getloadavg())

    walls = run["walls"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} operations, median wall {statistics.median(walls):.6f} s"
          + (" (in-process, traced)" if args.trace else ""))
    for problem in run["problems"]:
        print(f"FAIL {problem}")
    if env["overloaded"]:
        print(f"WARNING load average exceeded nproc={env['nproc']} during this run")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"fail_ratio {run['failed'] / run['attempted']} "
          f"({run['failed']} of {run['attempted']} operations failed)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
