"""Property test of the CLI contract over small generated argvs.

Every argv either succeeds or exits with a documented code and a JSON
error object on stderr, never a traceback, and its output does not depend
on --workers.  Sizes stay small (n <= 6, orders <= 3 or 4, trials <= 200)
so that no single run is slow; `verify` takes no arguments and has its
own tests.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linhyp.cli import main

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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
    results = [run([*argv, "--workers", w]) for w in ("1", "2")]
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
