"""Write perfbench/refs/<workload>.json from independent engines.

    PYTHONPATH=src python3 perfbench/make_refs.py [workload ...]

Run once, and again only when a workload's inputs change: `run.py`
refuses a reference whose recorded spec differs from the workload's.  For
`expand` this also runs the CLI at --workers 1 and requires its orders to
equal the reference, so the --workers 2 operations the benchmark checks
against it are checked for workers invariance too.  Takes about two
minutes on 2 cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import ROOT, child_env
from workloads import FULL, REFS_DIR


def main(names: list[str]) -> int:
    REFS_DIR.mkdir(exist_ok=True)
    for name in names or sorted(FULL):
        workload = FULL[name]
        start = time.perf_counter()
        ref = workload.reference()
        if name == "expand":
            argv = workload.argv(0)
            argv[argv.index("--workers") + 1] = "1"
            out = subprocess.run([sys.executable, "-m", "linhyp.cli", *argv], cwd=ROOT,
                                 env=child_env(), capture_output=True, text=True, check=True)
            problems = workload.check(json.loads(out.stdout), ref, 0)
            if problems:
                raise SystemExit(f"expand at --workers 1 disagrees: {problems}")
        path = REFS_DIR / f"{name}.json"
        path.write_text(json.dumps({"spec": workload.spec(), "reference": ref},
                                   indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
