"""Command-line frontend.

Subcommands: copies, expand, series, delta, cumulants, oracle, montecarlo,
asymptotic, compare, verify.  Every output embeds the tool version, the
full configuration, and the wall-clock duration; a reproducibility hash is
computed over the payload with the duration excluded, so repeated runs
with the same configuration agree on everything the hash covers.

Option types check their values while the arguments are parsed, and the
parser reports its errors as ValidationError, so a bad argument exits 2
with a JSON error object instead of a usage message.

Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 identity
suite failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from itertools import accumulate

from . import __version__
from .asymptotics import log_linearity_general, log_linearity_r3
from .dependency import dependency_graph_for
from .errors import CapExceededError, LinhypError, ValidationError
from .expansion import (
    cumulant_sum,
    expansion_terms,
    hard_core_polynomial,
    inclusion_exclusion_polynomial,
    independent_truncated_series,
    log_taylor_truncated,
    moment_sum,
    symbolic_series,
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
from .hypergraph import enumerate_forbidden_copies
from .oracle import EXACT_STATE_CAP_BITS, exact_linearity_polynomial, monte_carlo
from .polynomial import Polynomial, log_fraction

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_IDENTITY = 4


def _parse_rational(text: str) -> Fraction:
    """Exact rational 'num/den'; used on the exact evaluation paths."""
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
    """Decimal string; used on the Monte Carlo / asymptotic paths."""
    if "/" in text:
        raise ValidationError(
            f"expected a decimal like 0.001, got {text!r} "
            "(rationals are reserved for the exact paths)"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad decimal {text!r}: {exc}") from None


def _sweep_points(text: str) -> list[Fraction]:
    """`lo,hi,count`: count geometrically spaced decimals from lo to hi."""
    fields = text.split(",")
    if len(fields) != 3:
        raise ValidationError(f"sweep needs lo,hi,count, got {text!r}")
    lo, hi = _parse_decimal(fields[0]), _parse_decimal(fields[1])
    try:
        count = int(fields[2])
    except ValueError:
        raise ValidationError(f"sweep count must be an integer, got {fields[2]!r}") from None
    if count < 2 or not (0 < lo < hi < 1):
        raise ValidationError("sweep needs 0 < lo < hi < 1 and count >= 2")
    # geometric spacing, snapped to exact decimals of the float grid
    ratio = (float(hi) / float(lo)) ** (1.0 / (count - 1))
    points = [Fraction(str(round(float(lo) * ratio**i, 12))) for i in range(count)]
    if not (0 < points[0] and points[-1] < 1 and sorted(set(points)) == points):
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


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a ValidationError instead of exiting."""

    def error(self, message: str):
        raise ValidationError(message)


def _emit(payload: dict, args, started: float) -> None:
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
    payload["duration_seconds"] = round(time.monotonic() - started, 6)
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_error(kind: str, message: str, code: int, context: dict | None = None) -> int:
    obj = {"error": {"type": kind, "message": message, "context": context or {}}}
    print(json.dumps(obj, sort_keys=True, default=str), file=sys.stderr)
    return code


def _cmd_copies(args) -> int:
    started = time.monotonic()
    copies = enumerate_forbidden_copies(args.n, args.r)
    payload: dict = {"count": len(copies)}
    if args.list:
        payload["copies"] = [
            {"e1": list(c.e1), "e2": list(c.e2), "overlap": c.t} for c in copies
        ]
    _emit(payload, args, started)
    return EXIT_OK


def _cmd_expand(args) -> int:
    started = time.monotonic()
    d = dependency_graph_for(args.n, args.r)
    if args.dump_adjacency:
        with open(args.dump_adjacency, "w") as fh:
            fh.write(d.dump_adjacency())
    terms = {}
    try:
        for order, term in expansion_terms(d, args.k, cap=args.cap):
            terms[order] = term
    except CapExceededError as exc:
        if not args.allow_partial:
            raise
        payload = {
            "orders": {str(i): poly.to_json() for i, poly in terms.items()},
            "partial": True,
            "cap_context": exc.context,
        }
        _emit(payload, args, started)
        return EXIT_CAP
    total = sum(terms.values(), Polynomial.zero())
    payload = {
        "orders": {str(i): poly.to_json() for i, poly in terms.items()},
        "truncated_sum": total.to_json(),
    }
    _emit(payload, args, started)
    return EXIT_OK


def _cmd_series(args) -> int:
    started = time.monotonic()
    terms = symbolic_series(
        max_p_power=args.max_p_power, r=args.r, cross_check=not args.no_cross_check
    )
    payload = {"terms": [t.to_json() for t in terms]}
    _emit(payload, args, started)
    return EXIT_OK


def _cmd_delta(args) -> int:
    started = time.monotonic()
    d = dependency_graph_for(args.n, args.r)
    poly = moment_sum(d, args.i, cap=args.cap)
    _emit({"moment_sum": poly.to_json()}, args, started)
    return EXIT_OK


def _cmd_cumulants(args) -> int:
    started = time.monotonic()
    d = dependency_graph_for(args.n, args.r)
    poly = cumulant_sum(d, args.k, cap=args.cap)
    _emit({"cumulant_sum": poly.to_json()}, args, started)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    started = time.monotonic()
    poly = exact_linearity_polynomial(args.n, args.r)
    payload: dict = {"polynomial": poly.to_json()}
    if args.p is not None:
        p = _exact_p(args.p)
        value = poly(p)
        payload["p"] = {"num": p.numerator, "den": p.denominator}
        payload["value"] = {"num": value.numerator, "den": value.denominator}
        payload["value_float"] = float(value)
    _emit(payload, args, started)
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    started = time.monotonic()
    p = _parse_decimal(args.p)
    report = monte_carlo(args.n, args.r, p, trials=args.trials, seed=args.seed)
    _emit({"report": report.to_json()}, args, started)
    return EXIT_OK


def _cmd_asymptotic(args) -> int:
    started = time.monotonic()
    p = _parse_decimal(args.p)
    payload: dict = {
        "general_r": log_linearity_general(args.n, args.r, p).to_json(),
    }
    if args.r == 3:
        payload["refined_r3"] = log_linearity_r3(args.n, p).to_json()
    _emit(payload, args, started)
    return EXIT_OK


def _sci(x: float) -> str:
    return repr(x)


def _compare_polynomials(n: int, r: int) -> dict:
    """The p-independent polynomials of a compare row, built once per run:
    the exact oracle (when its state space fits), the truncations T2, T3
    and T4 as running sums of one pass over orders 1-3, and cumulant k3."""
    polys: dict = {"exact": None}
    if math.comb(n, r) <= EXACT_STATE_CAP_BITS:
        polys["exact"] = exact_linearity_polynomial(n, r)
    d = dependency_graph_for(n, r)
    orders = (term for _order, term in expansion_terms(d, 4))
    polys.update(zip(("log_T2", "log_T3", "log_T4"), accumulate(orders)))
    polys["cumulant_k3"] = cumulant_sum(d, 3)
    return polys


def _compare_row(polys: dict, n: int, r: int, p: Fraction, trials: int, seed: int) -> dict:
    row: dict = {"p": float(p)}
    exact = polys["exact"](p) if polys["exact"] is not None else 0
    row["log_exact"] = log_fraction(exact) if exact > 0 else None
    for key in ("log_T2", "log_T3", "log_T4", "cumulant_k3"):
        row[key] = float(polys[key](p))
    if r == 3:
        row["log_closed_r3"] = log_linearity_r3(n, p).log_prob
    else:
        row["log_closed_r3"] = None
    row["log_closed_general"] = log_linearity_general(n, r, p).log_prob
    if trials > 0:
        rep = monte_carlo(n, r, p, trials=trials, seed=seed)
        row["mc_estimate"] = rep.estimate
        row["mc_stderr"] = rep.std_error
    else:
        row["mc_estimate"] = None
        row["mc_stderr"] = None
    return row


CSV_HEADER = (
    "p,log_exact,log_T2,log_T3,log_T4,log_closed_r3,log_closed_general,"
    "mc_estimate,mc_stderr"
)


def _cmd_compare(args) -> int:
    started = time.monotonic()
    ps = _sweep_points(args.sweep) if args.sweep else [_exact_p(args.p)]
    polys = _compare_polynomials(args.n, args.r)
    rows = [_compare_row(polys, args.n, args.r, p, args.trials, args.seed) for p in ps]
    if args.csv:
        lines = [CSV_HEADER]
        for row in rows:
            cells = [
                _sci(row["p"]),
                *(
                    "" if row[key] is None else _sci(row[key])
                    for key in (
                        "log_exact",
                        "log_T2",
                        "log_T3",
                        "log_T4",
                        "log_closed_r3",
                        "log_closed_general",
                        "mc_estimate",
                        "mc_stderr",
                    )
                ),
            ]
            lines.append(",".join(cells))
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit({"rows": rows, "csv": args.csv}, args, started)
    return EXIT_OK


def _run_identity_suite() -> tuple[dict[str, bool], bool]:
    results: dict[str, bool] = {}
    results["ursell_complete_graphs"] = all(
        ursell_direct(SimpleGraph.complete(m)) == complete_graph_ursell(m)
        for m in range(1, 8)
    )
    results["independent_partition_identity"] = all(
        independent_partition_identity(g)
        for v in range(1, 6)
        for g in connected_graphs(v)
    )

    def triple_agree() -> bool:
        for v in range(1, 6):
            for g in all_graphs(v):
                a = chromatic_polynomial(g)
                if a != chromatic_via_whitney(g) or a != chromatic_via_partitions(g):
                    return False
        return True

    results["chromatic_triple_agreement"] = triple_agree()
    d5 = dependency_graph_for(5, 3)
    results["cumulant_cluster_identity"] = all(
        truncated_expansion(d5, k + 1) == cumulant_sum(d5, k) for k in (1, 2, 3)
    )
    results["alternating_sum_consistency"] = all(
        exact_linearity_polynomial(n, 3) == inclusion_exclusion_polynomial(n, 3)
        and exact_linearity_polynomial(n, 3) == hard_core_polynomial(n, 3)
        for n in (4, 5)
    )
    results["independent_case_reduction"] = all(
        independent_truncated_series(order) == log_taylor_truncated(order)
        for order in range(1, 6)
    )
    return results, all(results.values())


def _cmd_verify(args) -> int:
    started = time.monotonic()
    results, ok = _run_identity_suite()
    for name, passed in results.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    _emit({"identities": results, "all_passed": ok}, args, started)
    return EXIT_OK if ok else EXIT_IDENTITY


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="linhyp",
        description="Probability of linearity of binomial random r-uniform "
        "hypergraphs: exact truncated expansions, oracles, and asymptotics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n_r=True):
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
        sp.add_argument(
            "--cap", type=_int_at_least(0), default=None, help="enumeration cap"
        )
        sp.add_argument(
            "--allow-partial",
            action="store_true",
            help="write partial results when a cap is hit",
        )

    sp = sub.add_parser("copies", help="count (and list) forbidden copies")
    add_common(sp)
    sp.add_argument("--list", action="store_true")
    sp.set_defaults(func=_cmd_copies)

    sp = sub.add_parser("expand", help="expansion terms and truncated sum")
    add_common(sp)
    sp.add_argument("--k", type=_int_at_least(2), required=True, help="truncation index")
    sp.add_argument(
        "--dump-adjacency", help="also write the dependency adjacency list here"
    )
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("series", help="symbolic series in [n]_a p^b terms")
    add_common(sp, n_r=False)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--max-p-power", type=int, default=4)
    sp.add_argument(
        "--no-cross-check",
        action="store_true",
        help="skip the interpolation cross-check of the structural series",
    )
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("delta", help="sum of moments over polymers of size i")
    add_common(sp)
    sp.add_argument("--i", type=int, required=True)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("cumulants", help="alternating cumulant sum up to size k")
    add_common(sp)
    sp.add_argument("--k", type=int, required=True)
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
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_montecarlo)

    sp = sub.add_parser("asymptotic", help="closed-form asymptotic evaluators")
    add_common(sp)
    sp.add_argument(
        "--p", type=_checked_text(_parse_decimal), required=True, help="decimal probability"
    )
    sp.set_defaults(func=_cmd_asymptotic)

    sp = sub.add_parser("compare", help="side-by-side table and CSV sweep")
    add_common(sp)
    at = sp.add_mutually_exclusive_group(required=True)
    at.add_argument("--p", type=_checked_text(_exact_p), help="exact rational num/den")
    at.add_argument(
        "--sweep",
        type=_checked_text(_sweep_points),
        help="lo,hi,count decimal sweep for the CSV",
    )
    sp.add_argument("--trials", type=_int_at_least(0), default=0)
    sp.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except ValidationError as exc:
        return _emit_error("validation", str(exc), EXIT_VALIDATION)
    except CapExceededError as exc:
        return _emit_error("cap_exceeded", str(exc), EXIT_CAP, exc.context)
    except LinhypError as exc:
        return _emit_error("internal_consistency", str(exc), EXIT_IDENTITY)


if __name__ == "__main__":
    sys.exit(main())
