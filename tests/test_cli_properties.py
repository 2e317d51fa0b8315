"""Property test of the CLI contract over small generated argvs.

Every argv either succeeds or exits with a documented code and a JSON
error object on stderr, never a traceback, and its output does not depend
on --workers.  Sizes stay small (n <= 6, orders <= 3 or 4, trials <= 200)
so that no single run is slow; `verify` takes no arguments and has its
own tests.  A second property runs hosts of up to a thousand digits,
sizes of 10^400 and sweeps of 10^8 points, each in a child process with
a bounded address space: every such run is refused or answered within 2 s.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from argv_contract import run_in_process

ERROR_TYPES = {2: "validation", 3: "cap_exceeded", 4: "internal_consistency"}


def mostly(good, bad):
    """Values that are valid seven times in eight, so most runs get past the
    argument checks and reach the engines."""
    return st.tuples(st.integers(0, 7), good, bad).map(lambda t: t[2] if t[0] == 7 else t[1])


def texts(good, bad):
    return mostly(st.sampled_from(good), st.sampled_from(bad))


def ints(lo, hi, bad):
    return mostly(st.integers(lo, hi), st.sampled_from(bad)).map(str)


exact_p = texts(["1/2", "1/7", "3/10", "1/50"], ["0.5", "0/1", "1/1", "3/2", "1/0", "x"])
decimal_p = texts(["0.5", "0.3", "0.01", "0.0019", "1e-3"],
                  ["1/2", "0", "1", "-0.1", "nan", "inf", "x"])
sweep = texts(["0.01,0.2,3", "0.001,0.02,4"],
              ["0.1,0.2", "0.2,0.1,3", "0.1,0.2,x", "1e-13,3e-13,3", "1/2,0.6,3"])
trials = ints(1, 200, [-1, 0])
seed = texts(["0", "7", str(2**64), str(2**128 - 1)], ["-1", str(2**128)])
cap = ints(0, 500, [-1])

#: subcommand -> options as (flag, value strategy or None for a switch,
#: chance in ten that the option is given)
OPTIONS = {
    "copies": [("--list", None, 5)],
    "expand": [("--k", ints(2, 4, [0, 1]), 9), ("--cap", cap, 4), ("--allow-partial", None, 5)],
    "series": [("--r", ints(3, 3, [2, 4]), 5), ("--max-p-power", ints(2, 3, [-1, 0, 1]), 8)],
    "delta": [("--i", ints(1, 4, [-1, 0]), 9), ("--cap", cap, 4)],
    "cumulants": [("--k", ints(1, 3, [-1, 0]), 9), ("--cap", cap, 4)],
    "oracle": [("--p", exact_p, 5)],
    "montecarlo": [("--p", decimal_p, 9), ("--trials", trials, 9), ("--seed", seed, 9)],
    "asymptotic": [("--p", decimal_p, 9)],
    "compare": [("--p", exact_p, 5), ("--sweep", sweep, 5), ("--trials", trials, 5),
                ("--seed", seed, 5), ("--cap", cap, 2)],
}


@st.composite
def argvs(draw, command):
    argv = [command]
    if command != "series":
        argv += [draw(ints(3, 6, [-1, 0, 2])), draw(ints(3, 4, [1, 2]))]
    for flag, values, chance in OPTIONS[command]:
        if draw(st.integers(0, 9)) < chance:
            argv += [flag] if values is None else [flag, draw(values)]
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.text(alphabet="0123456789ab/.,", min_size=1, max_size=5)))
    return argv


def normalised(stdout):
    """The payload less the fields that may differ between the runs."""
    if not stdout:
        return None
    payload = json.loads(stdout)
    payload["config"].pop("workers")
    payload.pop("duration_seconds")
    return payload


@pytest.mark.parametrize("command", sorted(OPTIONS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract(command, data):
    argv = data.draw(argvs(command))
    results = [run_in_process([*argv, "--workers", w]) for w in ("1", "2")]
    for code, stdout, stderr in results:
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stdout + stderr
        if code == 0:
            assert stderr == ""
        else:
            error = json.loads(stderr)["error"]
            assert error["type"] == ERROR_TYPES[code]
            assert isinstance(error["message"], str) and error["message"]
    (code1, out1, err1), (code2, out2, err2) = results
    assert code1 == code2 and err1 == err2
    assert normalised(out1) == normalised(out2)


SRC = Path(__file__).resolve().parents[1] / "src"

#: The options the huge-size runs also give a huge value: each size 10^400,
#: and the sweep 10^8 points.
HUGE_SIZE = str(10**400)
HUGE_VALUES = {"--k": HUGE_SIZE, "--i": HUGE_SIZE, "--cap": HUGE_SIZE,
               "--sweep": "0.0001,0.5,100000000"}

#: Runs the CLI on the given argv in a child process that first bounds its
#: own address space to 1 GiB.
BOUNDED_CLI = (
    "import resource, runpy\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "runpy.run_module('linhyp.cli', run_name='__main__')\n"
)


@st.composite
def huge_argvs(draw, command):
    """A host n = 10^j, 2 <= j <= 1000, with r = 3, 10^10, n // 2 or n - 3,
    and the command's options, sometimes given their HUGE_VALUES."""
    n = 10 ** draw(st.integers(2, 1000))
    argv = [command, str(n), str(draw(st.sampled_from([3, 10**10, n // 2, n - 3])))]
    for flag, values, chance in OPTIONS[command]:
        if flag in HUGE_VALUES:
            values = st.one_of(values, st.just(HUGE_VALUES[flag]))
        if draw(st.integers(0, 9)) < chance:
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@pytest.mark.parametrize("command", sorted(set(OPTIONS) - {"series"}))
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_huge_sizes_are_refused_promptly(command, data):
    argv = data.draw(huge_argvs(command))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED_CLI, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.monotonic() - started < 2
    assert done.returncode in (0, 2, 3), done.stderr[-2000:]
    if done.returncode:
        # a count in the context may have more digits than int() parses
        error = json.loads(done.stderr, parse_int=str)["error"]
        assert error["type"] == ERROR_TYPES[done.returncode]
    else:
        assert done.stderr == ""
