"""Command-line frontend.

Subcommands: copies, expand, series, delta, cumulants, oracle, montecarlo,
asymptotic, compare, verify.  Each subcommand's handler returns its
payload and exit code; `main` alone times the handler and stamps the
payload through `_emit` with the tool version, the full configuration and
the wall-clock duration, then prints or writes it.  A reproducibility hash
is computed over the payload with the duration excluded (and the worker
count left out of the configuration), so repeated runs with the same
configuration agree on everything the hash covers.

At module level this file imports only what parsing needs.  Each handler
imports its engines from their defining modules when it runs, so a run
loads only the modules its subcommand uses, and `--version` loads no
engine.  The timed span of a handler includes loading them.

Option types check their values while the arguments are parsed, and the
parser reports its errors as ValidationError, so a bad argument exits 2
with a JSON error object instead of a usage message.

Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 identity
suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .errors import CapExceededError, LinhypError, ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_IDENTITY = 4

#: The options that name a file to write.  Before any work, each must be
#: writable, and no two may name the same file: only the output written
#: last would be kept.
OUTPUT_PATH_OPTIONS = ("output", "csv", "dump_adjacency")


def _parse_rational(text: str) -> Fraction:
    """Exact rational 'num/den'; used on the exact evaluation paths."""
    from fractions import Fraction

    if "/" not in text:
        raise ValidationError(
            f"expected an exact rational like 1/1000, got {text!r} "
            "(decimals are reserved for the sampling/asymptotic paths)"
        )
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {text!r}: {exc}") from None


def _exact_p(text: str) -> Fraction:
    """Exact rational p strictly between 0 and 1."""
    p = _parse_rational(text)
    if not 0 < p < 1:
        raise ValidationError(f"p must be in (0,1), got {p}")
    return p


def _parse_decimal(text: str) -> Fraction:
    """Decimal probability in [0,1); used on the Monte Carlo / asymptotic
    paths.  Its text and exponent are held to the int-parse limit
    (`hypergraph.MAX_DIGITS`), as a rational's digits are, before any
    Fraction is built, so no exact sum runs on a longer denominator.  A
    value outside [0,1) is refused here by its text: the engines' range
    errors print the value, whose numerator or denominator may have more
    digits than an int prints."""
    from fractions import Fraction

    from .hypergraph import MAX_DIGITS

    if "/" in text:
        raise ValidationError(
            f"expected a decimal like 0.001, got {text!r} "
            "(rationals are reserved for the exact paths)"
        )
    if len(text) > MAX_DIGITS:
        raise ValidationError(
            f"decimal of {len(text)} characters exceeds the limit of {MAX_DIGITS}"
        )
    _mantissa, e, exponent = text.lower().partition("e")
    try:
        scale = abs(int(exponent)) if e else 0
    except ValueError:
        scale = 0  # malformed: Fraction says why
    if scale > MAX_DIGITS:
        raise ValidationError(f"decimal exponent of {text!r} exceeds {MAX_DIGITS} in magnitude")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad decimal {text!r}: {exc}") from None
    if not 0 <= value < 1:
        raise ValidationError(f"decimal {text!r} is not in [0,1)")
    return value


def _printable(name: str, value: Fraction) -> Fraction:
    """`value`, a number in [0,1] that a payload prints exactly; a
    denominator of more than `hypergraph.MAX_DIGITS` digits, which no int
    prints under the interpreter's default limit, is a ValidationError."""
    from .hypergraph import COUNT_LIMIT, MAX_DIGITS

    if value.denominator > COUNT_LIMIT:
        raise ValidationError(f"{name} has a denominator of more than {MAX_DIGITS} digits")
    return value


#: The most points a `--sweep` may ask for.  Every point is a row, with its
#: own Monte Carlo run when `--trials` is given; 1,000 rows of `compare 6 3`
#: take about 0.8 s, and a count of 10^8 would need gigabytes before the
#: first row.
MAX_SWEEP_POINTS = 1000


def _sweep_points(text: str) -> list[Fraction]:
    """`lo,hi,count`: count geometrically spaced decimals from lo to hi,
    2 <= count <= MAX_SWEEP_POINTS."""
    from fractions import Fraction

    fields = text.split(",")
    if len(fields) != 3:
        raise ValidationError(f"sweep needs lo,hi,count, got {text!r}")
    lo, hi = _parse_decimal(fields[0]), _parse_decimal(fields[1])
    try:
        count = int(fields[2])
    except ValueError:
        raise ValidationError(f"sweep count must be an integer, got {fields[2]!r}") from None
    if not 2 <= count <= MAX_SWEEP_POINTS or not 0 < lo < hi < 1:
        raise ValidationError(
            f"sweep needs 0 < lo < hi < 1 and 2 <= count <= {MAX_SWEEP_POINTS}"
        )
    # geometric spacing, snapped to exact decimals of the float grid; a
    # bound too small for a float (1e-400 reads as 0.0) leaves no grid
    try:
        ratio = (float(hi) / float(lo)) ** (1.0 / (count - 1))
        points = [Fraction(str(round(float(lo) * ratio**i, 12))) for i in range(count)]
    except (ArithmeticError, ValueError):
        points = []
    if not (points and 0 < points[0] and points[-1] < 1 and sorted(set(points)) == points):
        raise ValidationError(f"sweep {text!r} does not round to increasing points in (0,1)")
    return points


def _checked_text(parse):
    """argparse type that validates with `parse` but keeps the text, so the
    payload's config records the argument as it was given."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _seed(text: str) -> int:
    """argparse type: an integer seed that `monte_carlo` accepts."""
    from .oracle import check_seed

    try:
        value = int(text)
        check_seed(value)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a ValidationError instead of exiting."""

    def error(self, message: str):
        raise ValidationError(message)


def _emit(payload: dict, args, duration: float) -> None:
    import hashlib
    import json

    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["config"] = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
    }
    # the worker count is configuration that no result depends on
    hashed = dict(payload)
    hashed["config"] = {k: v for k, v in payload["config"].items() if k != "workers"}
    canonical = json.dumps(hashed, sort_keys=True, default=str)
    payload["repro_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    payload["duration_seconds"] = round(duration, 6)
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    out_path = getattr(args, "output", None)
    if out_path:
        _write_text(out_path, text + "\n")
    else:
        print(text)


def _write_text(path: str, text: str) -> None:
    """Writes an output file; a path that cannot be written is a
    validation error, reported like any other bad argument."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _check_writable(path: str) -> None:
    """Raises _write_text's error now if `path` cannot be opened for
    writing, so a bad path fails before any work or any other output.  The
    probe opens for append, which leaves an existing file as it is, and
    removes a file it had to create."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise _unwritable(path, exc) from None
    if not existed:
        os.remove(path)


def _unwritable(path: str, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write {path}: {exc.strerror or exc}")


def _emit_error(kind: str, message: str, code: int, context: dict | None = None) -> int:
    import json

    obj = {"error": {"type": kind, "message": message, "context": context or {}}}
    print(json.dumps(obj, sort_keys=True, default=str), file=sys.stderr)
    return code


def _cmd_copies(args) -> tuple[dict, int]:
    from .hypergraph import enumerate_forbidden_copies

    copies = enumerate_forbidden_copies(args.n, args.r)
    payload: dict = {"count": len(copies)}
    if args.list:
        payload["copies"] = [
            {"e1": list(c.e1), "e2": list(c.e2), "overlap": c.t} for c in copies
        ]
    return payload, EXIT_OK


def _cmd_expand(args) -> tuple[dict, int]:
    from .dependency import dependency_graph_for
    from .expansion import expansion_terms
    from .polynomial import Polynomial

    d = dependency_graph_for(args.n, args.r)
    terms = {}
    try:
        for order, term in expansion_terms(d, args.k, cap=args.cap):
            terms[order] = term
    except CapExceededError as exc:
        if not args.allow_partial:
            raise
        payload = {"partial": True, "cap_context": exc.context}
        code = _emit_error("cap_exceeded", str(exc), EXIT_CAP, exc.context)
    else:
        payload = {"truncated_sum": sum(terms.values(), Polynomial.zero()).to_json()}
        code = EXIT_OK
    payload["orders"] = {str(i): poly.to_json() for i, poly in terms.items()}
    # written with the payload, so a cap hit without --allow-partial leaves none
    if args.dump_adjacency:
        _write_text(args.dump_adjacency, d.dump_adjacency())
    return payload, code


def _cmd_series(args) -> tuple[dict, int]:
    from .expansion import symbolic_series

    terms = symbolic_series(max_p_power=args.max_p_power, r=args.r)
    return {"terms": [t.to_json() for t in terms]}, EXIT_OK


def _cmd_delta(args) -> tuple[dict, int]:
    from .dependency import dependency_graph_for
    from .expansion import moment_sum

    d = dependency_graph_for(args.n, args.r)
    poly = moment_sum(d, args.i, cap=args.cap)
    return {"moment_sum": poly.to_json()}, EXIT_OK


def _cmd_cumulants(args) -> tuple[dict, int]:
    from .dependency import dependency_graph_for
    from .expansion import cumulant_sum

    d = dependency_graph_for(args.n, args.r)
    poly = cumulant_sum(d, args.k, cap=args.cap)
    return {"cumulant_sum": poly.to_json()}, EXIT_OK


def _cmd_oracle(args) -> tuple[dict, int]:
    from .oracle import exact_linearity_polynomial

    poly = exact_linearity_polynomial(args.n, args.r)
    payload: dict = {"polynomial": poly.to_json()}
    if args.p is not None:
        p = _exact_p(args.p)
        value = _printable(f"the exact value at p = {args.p}", poly(p))
        payload["p"] = {"num": p.numerator, "den": p.denominator}
        payload["value"] = {"num": value.numerator, "den": value.denominator}
        payload["value_float"] = float(value)
    return payload, EXIT_OK


def _cmd_montecarlo(args) -> tuple[dict, int]:
    from .oracle import monte_carlo

    p = _printable("p", _parse_decimal(args.p))
    report = monte_carlo(args.n, args.r, p, trials=args.trials, seed=args.seed)
    return {"report": report.to_json()}, EXIT_OK


def _cmd_asymptotic(args) -> tuple[dict, int]:
    from .asymptotics import log_linearity_general, log_linearity_r3

    p = _parse_decimal(args.p)
    payload = {"general_r": log_linearity_general(args.n, args.r, p).to_json()}
    if args.r == 3:
        payload["refined_r3"] = log_linearity_r3(args.n, p).to_json()
    return payload, EXIT_OK


def _compare_columns(
    n: int, r: int, cap: int | None, trials: int, seed: int
) -> list[tuple[str, bool, Callable[[Fraction], float | None]]]:
    """The columns of a compare row in CSV order, as (name, in_csv,
    value_at_p).  Every p-independent step runs here, once per run: the
    exact oracle (within its edge cap), the truncations T2, T3 and T4 as
    running sums of one pass over orders 1-3, and cumulant k3, the
    all-roots cumulant sum, which equals T4 by the cumulant-cluster
    identity and is kept out of the CSV.  A closed-form cell is empty
    where its form is not valid.  The enumeration cap applies to both
    cluster passes.  One Monte Carlo report per p serves both of its
    cells."""
    from functools import cache
    from itertools import accumulate

    from .asymptotics import log_linearity_general, log_linearity_r3
    from .dependency import dependency_graph_for
    from .expansion import cumulant_sum, expansion_terms
    from .oracle import exact_linearity_polynomial, monte_carlo
    from .polynomial import log_fraction

    try:
        exact = exact_linearity_polynomial(n, r)
    except CapExceededError:
        exact = None  # past the oracle's edge cap the exact cell stays empty
    d = dependency_graph_for(n, r)
    t2, t3, t4 = accumulate(term for _order, term in expansion_terms(d, 4, cap=cap))
    k3 = cumulant_sum(d, 3, cap=cap)

    def log_exact(p):
        return None if exact is None else log_fraction(exact(p))

    def as_float(poly):
        return lambda p: float(poly(p))

    def closed(estimate):
        return estimate.log_prob if estimate.valid else None

    @cache
    def sample(p):
        return monte_carlo(n, r, p, trials=trials, seed=seed)

    return [
        ("p", True, float),
        ("log_exact", True, log_exact),
        ("log_T2", True, as_float(t2)),
        ("log_T3", True, as_float(t3)),
        ("log_T4", True, as_float(t4)),
        ("cumulant_k3", False, as_float(k3)),
        ("log_closed_r3", True, lambda p: closed(log_linearity_r3(n, p)) if r == 3 else None),
        ("log_closed_general", True, lambda p: closed(log_linearity_general(n, r, p))),
        ("mc_estimate", True, lambda p: sample(p).estimate if trials else None),
        ("mc_stderr", True, lambda p: sample(p).std_error if trials else None),
    ]


def _cmd_compare(args) -> tuple[dict, int]:
    ps = _sweep_points(args.sweep) if args.sweep else [_exact_p(args.p)]
    columns = _compare_columns(args.n, args.r, args.cap, args.trials, args.seed)
    rows = [{name: value(p) for name, _in_csv, value in columns} for p in ps]
    if args.csv:
        names = [name for name, in_csv, _value in columns if in_csv]
        lines = [",".join(names)]
        for row in rows:
            lines.append(",".join("" if row[name] is None else repr(row[name]) for name in names))
        _write_text(args.csv, "\n".join(lines) + "\n")
    return {"rows": rows, "csv": args.csv}, EXIT_OK


def _identity_checks() -> list[tuple[str, Callable[[], bool]]]:
    """verify's identities in report order, as (name, check)."""
    from .dependency import dependency_graph_for
    from .expansion import (
        cumulant_sum,
        hard_core_polynomial,
        inclusion_exclusion_polynomial,
        independent_truncated_series,
        log_taylor_truncated,
        truncated_expansion,
    )
    from .graphcalc import (
        SimpleGraph,
        all_graphs,
        chromatic_polynomial,
        chromatic_via_partitions,
        chromatic_via_whitney,
        complete_graph_ursell,
        connected_graphs,
        independent_partition_identity,
        ursell_direct,
    )
    from .oracle import exact_linearity_polynomial

    def chromatic_forms_agree(g) -> bool:
        a = chromatic_polynomial(g)
        return a == chromatic_via_whitney(g) and a == chromatic_via_partitions(g)

    def cumulant_cluster_identity() -> bool:
        d5 = dependency_graph_for(5, 3)
        return all(truncated_expansion(d5, k + 1) == cumulant_sum(d5, k) for k in (1, 2, 3))

    return [
        ("ursell_complete_graphs", lambda: all(
            ursell_direct(SimpleGraph.complete(m)) == complete_graph_ursell(m)
            for m in range(1, 8)
        )),
        ("independent_partition_identity", lambda: all(
            independent_partition_identity(g) for v in range(1, 6) for g in connected_graphs(v)
        )),
        ("chromatic_triple_agreement", lambda: all(
            chromatic_forms_agree(g) for v in range(1, 6) for g in all_graphs(v)
        )),
        ("cumulant_cluster_identity", cumulant_cluster_identity),
        ("alternating_sum_consistency", lambda: all(
            exact_linearity_polynomial(n, 3) == inclusion_exclusion_polynomial(n, 3)
            and exact_linearity_polynomial(n, 3) == hard_core_polynomial(n, 3)
            for n in (4, 5)
        )),
        ("independent_case_reduction", lambda: all(
            independent_truncated_series(order) == log_taylor_truncated(order)
            for order in range(1, 6)
        )),
    ]


def _cmd_verify(args) -> tuple[dict, int]:
    results = {name: check() for name, check in _identity_checks()}
    for name, passed in results.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    ok = all(results.values())
    return {"identities": results, "all_passed": ok}, EXIT_OK if ok else EXIT_IDENTITY


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="linhyp",
        description="Probability of linearity of binomial random r-uniform "
        "hypergraphs: exact truncated expansions, oracles, and asymptotics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n_r=True, cap=False):
        if n_r:
            sp.add_argument("n", type=int)
            sp.add_argument("r", type=int)
        sp.add_argument("--output", help="write the JSON payload to this path")
        sp.add_argument(
            "--workers",
            type=_int_at_least(1),
            default=1,
            help="accepted for compatibility; every path runs serially, so "
            "results never depend on it",
        )
        if cap:
            sp.add_argument(
                "--cap", type=_int_at_least(0), default=None, help="enumeration cap"
            )

    sp = sub.add_parser("copies", help="count (and list) forbidden copies")
    add_common(sp)
    sp.add_argument("--list", action="store_true")
    sp.set_defaults(func=_cmd_copies)

    sp = sub.add_parser("expand", help="expansion terms and truncated sum")
    add_common(sp, cap=True)
    sp.add_argument(
        "--allow-partial",
        action="store_true",
        help="write partial results when the cap is hit",
    )
    sp.add_argument("--k", type=_int_at_least(2), required=True, help="truncation index")
    sp.add_argument(
        "--dump-adjacency", help="also write the dependency adjacency list here"
    )
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("series", help="symbolic series in [n]_a p^b terms")
    add_common(sp, n_r=False)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--max-p-power", type=int, default=4)
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("delta", help="sum of moments over polymers of size i")
    add_common(sp, cap=True)
    sp.add_argument("--i", type=_int_at_least(1), required=True)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("cumulants", help="alternating cumulant sum up to size k")
    add_common(sp, cap=True)
    sp.add_argument("--k", type=_int_at_least(1), required=True)
    sp.set_defaults(func=_cmd_cumulants)

    sp = sub.add_parser("oracle", help="exact linearity polynomial")
    add_common(sp)
    sp.add_argument(
        "--p", type=_checked_text(_exact_p), help="exact rational num/den to evaluate at"
    )
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("montecarlo", help="seeded Monte Carlo estimate")
    add_common(sp)
    sp.add_argument(
        "--p", type=_checked_text(_parse_decimal), required=True, help="decimal probability"
    )
    sp.add_argument("--trials", type=_int_at_least(1), required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.set_defaults(func=_cmd_montecarlo)

    sp = sub.add_parser("asymptotic", help="closed-form asymptotic evaluators")
    add_common(sp)
    sp.add_argument(
        "--p", type=_checked_text(_parse_decimal), required=True, help="decimal probability"
    )
    sp.set_defaults(func=_cmd_asymptotic)

    sp = sub.add_parser("compare", help="side-by-side table and CSV sweep")
    add_common(sp, cap=True)
    at = sp.add_mutually_exclusive_group(required=True)
    at.add_argument("--p", type=_checked_text(_exact_p), help="exact rational num/den")
    at.add_argument(
        "--sweep",
        type=_checked_text(_sweep_points),
        help="lo,hi,count decimal sweep for the CSV",
    )
    sp.add_argument("--trials", type=_int_at_least(0), default=0)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--csv", help="write the sweep table to this CSV path")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("verify", help="run the identity suites")
    add_common(sp, n_r=False)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        seen: dict[str, str] = {}
        for option in OUTPUT_PATH_OPTIONS:
            path = getattr(args, option, None)
            if path:
                flag = "--" + option.replace("_", "-")
                first = seen.setdefault(os.path.realpath(path), flag)
                if first != flag:
                    raise ValidationError(f"{first} and {flag} name the same file: {path}")
                _check_writable(path)
        started = time.monotonic()
        payload, code = args.func(args)
        _emit(payload, args, time.monotonic() - started)
        return code
    except ValidationError as exc:
        return _emit_error("validation", str(exc), EXIT_VALIDATION)
    except CapExceededError as exc:
        return _emit_error("cap_exceeded", str(exc), EXIT_CAP, exc.context)
    except LinhypError as exc:
        return _emit_error("internal_consistency", str(exc), EXIT_IDENTITY)


if __name__ == "__main__":
    sys.exit(main())
