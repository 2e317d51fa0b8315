"""The argv contract: one table of `linhyp` runs and one runner for it.

A row is (id, argv, exit code, time bound in seconds).  It runs in a fresh
temporary directory and must exit with its code, finish inside its bound
and reproduce `tests/golden/<id>` byte for byte: stdout, stderr and each
file written into the directory, every non-empty one under a
`==> name <==` header, without the `duration_seconds` line.  A row that
exits 2 must print a `validation` error object on stderr, and one that
exits 3 a `cap_exceeded` error whose context holds the `cap` it passed.

`tests/test_argv_contract.py` runs the rows in-process through
`linhyp.cli.main`; it writes a missing golden and fails naming it, so a
deliberate output change is regenerated by deleting the golden files,
running pytest and committing them.  `python tests/argv_contract.py` runs
them through the installed `linhyp` console script, never writes a golden
and exits 1 when a row fails.  The Monte Carlo goldens are numpy 2
`Generator` streams.
"""

from __future__ import annotations

import difflib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

#: n = 10^400 and r = n / 2: C(n, r) has more than 10^399 digits.
HUGE = f"{10**400} {5 * 10**399}"
#: n = 10^300 and r = 10^10: the running product C(n, i) passes 10^4300
#: at i = 15, far short of r, so the refusal stops there.
NEAR = f"{10**300} {10**10}"
#: n = r = 10^10: one edge that is never listed, no copies and P = 1.
ONE_EDGE = f"{10**10} {10**10}"


Row = namedtuple("Row", "id argv code bound")


ROWS = [
    Row(row_id, argv.split(), code, bound)
    for row_id, argv, code, bound in [
        # every subcommand, and each line of README's "Command line" block
        ("version", "--version", 0, 10),
        ("copies-6-3", "copies 6 3", 0, 10),
        ("copies-4-3-list", "copies 4 3 --list", 0, 10),
        ("expand-5-3-k3", "expand 5 3 --k 3", 0, 10),
        ("expand-6-3-k4", "expand 6 3 --k 4", 0, 10),
        ("expand-6-3-k5", "expand 6 3 --k 5", 0, 10),
        ("expand-5-4-k9", "expand 5 4 --k 9", 0, 10),
        ("expand-7-3-k6", "expand 7 3 --k 6", 0, 30),
        ("series-r3-p4", "series --r 3 --max-p-power 4", 0, 60),
        ("delta-6-3-i2", "delta 6 3 --i 2", 0, 10),
        ("delta-5-3-i31", "delta 5 3 --i 31", 0, 10),
        ("cumulants-6-3-k3", "cumulants 6 3 --k 3", 0, 10),
        ("oracle-4-3", "oracle 4 3 --p 1/2", 0, 10),
        ("oracle-9-3", "oracle 9 3 --p 1/2", 0, 10),
        ("compare-8-3", "compare 8 3 --p 1/100", 0, 10),
        ("montecarlo-5-3", "montecarlo 5 3 --p 0.5 --trials 4000 --seed 5", 0, 10),
        ("montecarlo-50-3", "montecarlo 50 3 --p 0.0019 --trials 100000 --seed 7", 0, 10),
        ("asymptotic-50-3", "asymptotic 50 3 --p 0.0019", 0, 10),
        ("asymptotic-p-1e-400", "asymptotic 10 3 --p 1e-400", 0, 10),
        ("asymptotic-p-1e-4300", "asymptotic 10 3 --p 1e-4300", 0, 10),
        ("compare-6-3", "compare 6 3 --p 1/100 --trials 10000 --seed 7", 0, 10),
        ("compare-sweep-csv", "compare 6 3 --sweep 0.0005,0.02,12 --csv sweep.csv", 0, 10),
        ("verify", "verify", 0, 60),
        # the one-edge host of any size is answered at once
        ("one-edge-copies", f"copies {ONE_EDGE} --list", 0, 2),
        ("one-edge-oracle", f"oracle {ONE_EDGE} --p 1/2", 0, 2),
        ("one-edge-oracle-no-p", f"oracle {ONE_EDGE}", 0, 2),
        ("one-edge-expand", f"expand {ONE_EDGE} --k 3", 0, 2),
        ("one-edge-delta", f"delta {ONE_EDGE} --i 2", 0, 2),
        ("one-edge-cumulants", f"cumulants {ONE_EDGE} --k 2", 0, 2),
        ("one-edge-compare", f"compare {ONE_EDGE} --p 1/2", 0, 2),
        ("one-edge-montecarlo", f"montecarlo {ONE_EDGE} --p 0.1 --trials 1 --seed 0", 0, 2),
        # bad arguments exit 2 with a JSON validation error and no stdout
        ("invalid-copies-r-above-n", "copies 2 3", 2, 10),
        ("invalid-sweep-two-fields", "compare 6 3 --sweep 0.1,0.2", 2, 10),
        ("invalid-sweep-count", "compare 6 3 --sweep 0.1,0.2,x", 2, 10),
        ("invalid-montecarlo-seed", "montecarlo 4 3 --p 0.5 --trials 10 --seed -1", 2, 10),
        ("invalid-oracle-p-above-1", "oracle 4 3 --p 3/2", 2, 10),
        ("invalid-oracle-p-0", "oracle 4 3 --p 0/1", 2, 10),
        ("invalid-compare-p-1", "compare 4 3 --p 1/1", 2, 10),
        ("invalid-expand-cap", "expand 5 3 --k 3 --cap -1", 2, 10),
        ("invalid-workers-0", "copies 5 3 --workers 0", 2, 10),
        ("invalid-workers-negative", "copies 5 3 --workers -3", 2, 10),
        ("invalid-compare-trials", "compare 4 3 --p 1/100 --trials -5", 2, 10),
        ("invalid-expand-k1", "expand 6 3 --k 1", 2, 10),
        ("invalid-expand-no-k", "expand 6 3", 2, 10),
        ("invalid-compare-p-and-sweep", "compare 5 3 --p 1/2 --sweep 0.1,0.2,2", 2, 10),
        ("invalid-compare-no-p", "compare 5 3", 2, 10),
        ("invalid-sweep-rounds-flat", "compare 5 3 --sweep 1e-13,3e-13,3", 2, 10),
        # 1e-400 is 0.0 as a float, so it spans no geometric grid
        ("invalid-sweep-below-floats", "compare 6 3 --sweep 1e-400,0.5,3", 2, 10),
        # --cap only where a cap is honoured, --allow-partial only on expand
        ("invalid-series-cap", "series --max-p-power 2 --cap 1", 2, 10),
        ("invalid-oracle-cap", "oracle 4 3 --cap 1", 2, 10),
        ("invalid-copies-allow-partial", "copies 5 3 --allow-partial", 2, 10),
        ("invalid-compare-allow-partial", "compare 6 3 --p 1/100 --cap 10 --allow-partial", 2, 10),
        ("invalid-oracle-decimal-p", "oracle 4 3 --p 0.5", 2, 10),
        ("invalid-rational-p", "montecarlo 4 3 --p 1/2 --trials 10 --seed 0", 2, 10),
        ("invalid-compare-seed", "compare 6 3 --p 1/100 --trials 10 --seed -1", 2, 10),
        ("invalid-delta-i0", "delta 30 3 --i 0", 2, 10),
        ("invalid-sweep-points", "compare 6 3 --sweep 0.0001,0.5,100000000", 2, 2),
        # two output options that name one file: refused, nothing written
        ("invalid-expand-same-output", "expand 5 3 --k 3 --output same.json --dump-adjacency same.json", 2, 10),
        ("invalid-compare-same-output", "compare 5 3 --p 1/2 --csv c.csv --output c.csv", 2, 10),
        # estimates past the float range, refused before C(n, r) is built
        ("invalid-asymptotic-400-200", "asymptotic 400 200 --p 0.5", 2, 10),
        ("invalid-asymptotic-1e100", f"asymptotic {10**100} 3 --p 0.5", 2, 10),
        ("invalid-asymptotic-1e8", "asymptotic 100000000 50000000 --p 0.5", 2, 20),
        ("invalid-asymptotic-huge", f"asymptotic {HUGE} --p 0.1", 2, 10),
        # decimals past the 4300-digit int-parse limit are refused promptly
        ("invalid-p-exponent", "asymptotic 10 3 --p 1e-100000", 2, 2),
        ("invalid-montecarlo-p-exponent", "montecarlo 50 3 --p 1e-100000 --trials 1 --seed 0", 2, 2),
        ("invalid-p-4301-chars", "asymptotic 10 3 --p 0." + "1" * 4300, 2, 2),
        # malformed numbers and an output path in a missing directory
        ("invalid-oracle-p-den-0", "oracle 4 3 --p 1/0", 2, 10),
        ("invalid-oracle-p-num", "oracle 4 3 --p x/2", 2, 10),
        ("invalid-montecarlo-p-text", "montecarlo 5 3 --p 0.1ex --trials 2 --seed 1", 2, 10),
        ("invalid-expand-k-text", "expand 5 3 --k x", 2, 10),
        ("invalid-montecarlo-seed-text", "montecarlo 5 3 --p 0.1 --trials 2 --seed x", 2, 10),
        ("invalid-copies-output-dir", "copies 4 3 --output missing/out.json", 2, 10),
        # caps exit 3 with a JSON cap error; a partial expand is still written
        ("cap-partial", "expand 6 3 --k 4 --cap 6000 --allow-partial --output partial.json", 3, 10),
        ("cap-no-partial", "expand 6 3 --k 4 --cap 100 --output partial.json", 3, 10),
        ("cap-no-partial-workers-2", "expand 6 3 --k 4 --cap 100 --workers 2", 3, 10),
        # the adjacency dump is written with the payload, and only then
        ("cap-no-partial-dump", "expand 6 3 --k 4 --cap 100 --dump-adjacency d.txt --output o.json", 3, 10),
        ("cap-partial-dump", "expand 6 3 --k 4 --cap 6000 --allow-partial --dump-adjacency d.txt --output partial.json", 3, 10),
        ("cap-expand-10", "expand 6 3 --k 4 --cap 10", 3, 10),
        ("cap-compare-10", "compare 6 3 --p 1/100 --cap 10", 3, 10),
        ("cap-delta-5-3-i30", "delta 5 3 --i 30 --cap 1", 3, 10),
        ("cap-cumulants-partition-rows", f"cumulants 6 3 --k {10**400}", 3, 2),
        ("cap-oracle-10-3", "oracle 10 3", 3, 10),
        ("cap-oracle-2049-3", "oracle 2049 3", 3, 10),
        ("cap-copies-2049-3", "copies 2049 3", 3, 10),
        ("cap-montecarlo-2049-3", "montecarlo 2049 3 --p 0.001 --trials 1 --seed 0", 3, 10),
        ("cap-copies-100000-50000", "copies 100000 50000", 3, 2),
        # hosts too large to count: C(n, r) is past 10^4300, so only the cap
        # is reported
        ("too-large-oracle", "oracle 1000000 500000", 3, 2),
        ("too-large-montecarlo", "montecarlo 1000000 500000 --p 0.1 --trials 1 --seed 0", 3, 2),
        ("too-large-copies", "copies 100000000 50000000", 3, 2),
        ("too-large-copies-huge", f"copies {HUGE}", 3, 2),
        ("too-large-oracle-huge", f"oracle {HUGE}", 3, 2),
        ("too-large-expand-huge", f"expand {HUGE} --k 3", 3, 2),
        ("too-large-compare-huge", f"compare {HUGE} --p 1/100", 3, 2),
        ("too-large-montecarlo-huge", f"montecarlo {HUGE} --p 0.1 --trials 1 --seed 0", 3, 2),
        ("too-large-copies-near-limit", f"copies {NEAR}", 3, 2),
        ("too-large-oracle-near-limit", f"oracle {NEAR}", 3, 2),
        ("too-large-expand-near-limit", f"expand {NEAR} --k 3", 3, 2),
        ("too-large-compare-near-limit", f"compare {NEAR} --p 1/100", 3, 2),
        ("too-large-montecarlo-near-limit", f"montecarlo {NEAR} --p 0.1 --trials 1 --seed 0", 3, 2),
    ]
]

_DURATION = re.compile(r'^ *"duration_seconds": .*\n', re.MULTILINE)


def transcript(stdout: str, stderr: str, directory: Path) -> str:
    """What a golden holds: stdout, stderr and the files written into
    `directory`, each non-empty one under its header."""
    sections = [("stdout", stdout), ("stderr", stderr)]
    sections += [(path.name, path.read_text()) for path in sorted(directory.iterdir())]
    return "".join(f"==> {name} <==\n{_DURATION.sub('', text)}" for name, text in sections if text)


def sections(row_id: str) -> dict[str, str]:
    """A row's golden split back into {section name: text}."""
    parts = re.split(r"^==> (.+) <==\n", (GOLDEN / row_id).read_text(), flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def run_in_process(argv: list[str], bound: float | None = None) -> tuple[int, str, str]:
    from linhyp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_installed(argv: list[str], bound: float) -> tuple[int, str, str]:
    done = subprocess.run(["linhyp", *argv], capture_output=True, text=True, timeout=bound)
    return done.returncode, done.stdout, done.stderr


def _error(stderr: str) -> dict:
    """The JSON error object that `stderr` holds, or {} when it holds none."""
    try:
        error = json.loads(stderr)["error"]
    except (ValueError, TypeError, KeyError):
        return {}
    return error if isinstance(error, dict) else {}


def check(row: Row, run, write_missing: bool) -> list[str]:
    """Runs `row` with `run` in a fresh temporary directory and returns
    what is wrong with it, each problem naming the row."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            started = time.monotonic()
            code, stdout, stderr = run(row.argv, row.bound)
            seconds = time.monotonic() - started
            text = transcript(stdout, stderr, Path(directory))
        except subprocess.TimeoutExpired:
            return [f"{row.id}: still running after its bound of {row.bound} s"]
        finally:
            os.chdir(home)
    problems = []
    if code != row.code:
        problems.append(f"{row.id}: exit {code}, not {row.code}")
    error = _error(stderr)
    if row.code == 2 and error.get("type") != "validation":
        problems.append(f"{row.id}: exit 2 without a validation error on stderr")
    cap_error = error.get("type") == "cap_exceeded" and "cap" in error.get("context", {})
    if row.code == 3 and not cap_error:
        problems.append(f"{row.id}: exit 3 without a cap_exceeded error whose context holds cap")
    if seconds > row.bound:
        problems.append(f"{row.id}: took {seconds:.2f} s, over its bound of {row.bound} s")
    golden = GOLDEN / row.id
    if not golden.exists():
        if write_missing:
            golden.write_text(text)
        problems.append(f"{row.id}: no golden {golden}" + (", wrote it" if write_missing else ""))
    elif golden.read_text() != text:
        diff = difflib.unified_diff(golden.read_text().splitlines(), text.splitlines(), lineterm="")
        lines = [line[:200] for line in list(diff)[2:42]]
        problems.append(f"{row.id}: output differs from {golden}\n" + "\n".join(lines))
    return problems


if __name__ == "__main__":
    failed = 0
    for row in ROWS:
        problems = check(row, run_installed, write_missing=False)
        failed += bool(problems)
        print("\n".join(problems) or f"ok  {row.id}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows reproduce their goldens")
    sys.exit(1 if failed else 0)
