"""One traced operation: spans installed, the CLI run in-process, probes.

    PYTHONPATH=src python3 perfbench/trace_op.py --workload expand --seed 1

Prints one JSON line: the CLI's exit code and stdout, the operation's
wall time, and every per-layer metric.  `run.py --trace 1` runs this once
per operation, so each operation starts with cold caches, as it does
untraced.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout

import linhyp.cli

from layers import layer_metrics
from tracer import Tracer
from workloads import SIZES


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def traced_operation(workload, seed: int) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        out = io.StringIO()
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = linhyp.cli.main(workload.argv(seed))
        end = time.perf_counter()
        cpu_s = _cpu_seconds() - cpu_start
        with tracer.recording_phase("probe"):
            probe = workload.probe(tracer, seed)
        metrics = layer_metrics(tracer, start, end, cpu_s, probe)
    finally:
        tracer.uninstall()
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "wall_s": end - start,
        "metrics": metrics,
        "missing_spans": tracer.missing_spans(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    result = traced_operation(SIZES[args.size][args.workload], args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
