"""Per-layer metrics of one traced operation, derived from its spans.

`PER_LAYER` is the single list of (name, unit, better) that the traced run
emits; BENCHMARK.json's `per_layer` lists the same names.  Every metric is
emitted for every workload: a layer the workload never enters reads 0.
"""

from __future__ import annotations

from tracer import Span, Tracer, covered_seconds

ORDERS = (1, 2, 3, 4)
PER_N = tuple(range(3, 11))

PER_LAYER: list[tuple[str, str, str]] = [
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("hypergraph.copies_s", "s", "lower"),
    ("hypergraph.copies", "count", "lower"),
    ("dependency.build_s", "s", "lower"),
    ("dependency.builds", "count", "lower"),
    ("dependency.build_reuse", "ratio", "higher"),
    *[(f"dependency.polymers.o{k}", "count", "lower") for k in ORDERS],
    *[(f"dependency.stream_s.o{k}", "s", "lower") for k in ORDERS],
    *[(f"expansion.term_s.o{k}", "s", "lower") for k in ORDERS],
    ("expansion.term_calls", "count", "lower"),
    ("expansion.term_reuse", "ratio", "higher"),
    *[(f"expansion.partition_s.o{k}", "s", "lower") for k in ORDERS[1:]],
    ("expansion.partitions_tried", "count", "lower"),
    ("expansion.cumulant_s", "s", "lower"),
    ("expansion.cumulant_calls", "count", "lower"),
    ("expansion.structural_s", "s", "lower"),
    ("expansion.interpolated_s", "s", "lower"),
    ("expansion.per_n_samples", "count", "lower"),
    *[(f"expansion.per_n_s.n{n}", "s", "lower") for n in PER_N],
    ("polynomial.solve_s", "s", "lower"),
    ("graphcalc.ursell_calls", "count", "lower"),
    ("graphcalc.ursell_s", "s", "lower"),
    ("oracle.exact_s", "s", "lower"),
    ("oracle.exact_calls", "count", "lower"),
    ("oracle.exact_states", "count", "lower"),
    ("oracle.mc_s", "s", "lower"),
    ("oracle.mc_trials_per_s", "1/s", "higher"),
    ("oracle.mc_trials_per_s_w1", "1/s", "higher"),
    ("asymptotics.closed_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _seconds(spans: list[Span]) -> float:
    return sum(s.seconds for s in spans)


def _inside(inner: Span, outers: list[Span]) -> bool:
    return any(o.start <= inner.start and inner.end <= o.end for o in outers)


def layer_metrics(
    tracer: Tracer, op_start: float, op_end: float, cpu_s: float, probe: dict
) -> dict[str, float]:
    """Every PER_LAYER metric for one operation plus its layer probes.

    Spans from both phases count toward their layer, so work the operation
    did in pool processes (which the tracer cannot see) shows through the
    serial probe that repeats it.  Monte Carlo is the exception: the probe
    has its own metric, `oracle.mc_trials_per_s_w1`.
    """
    m: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    op_spans = [s for s in tracer.spans if s.phase == "op"]
    m["cli.self_s"] = (op_end - op_start) - covered_seconds(op_spans, op_start, op_end)
    m["cli.cpu_s"] = cpu_s

    copies = tracer.select("hypergraph.copies")
    builds = tracer.select("dependency.build")
    m["hypergraph.copies_s"] = _seconds(copies)
    m["hypergraph.copies"] = sum(s.attrs["copies"] for s in copies)
    m["dependency.build_s"] = _seconds(builds) - _seconds(
        [c for c in copies if _inside(c, builds)]
    )
    m["dependency.builds"] = len(builds)
    if builds:
        m["dependency.build_reuse"] = len({s.attrs["nr"] for s in builds}) / len(builds)

    terms = tracer.select("expansion.term")
    m["expansion.term_calls"] = len(terms)
    if terms:
        distinct = {(s.attrs["nr"], s.attrs["order"]) for s in terms}
        m["expansion.term_reuse"] = len(distinct) / len(terms)
    for k in ORDERS:
        of_order = [s for s in terms if s.attrs["order"] == k]
        m[f"expansion.term_s.o{k}"] = _seconds(of_order)
        # the term streams the same polymers the probe streamed, once per call
        stream = probe.get(f"dependency.stream_s.o{k}")
        if k > 1 and of_order and stream:
            m[f"expansion.partition_s.o{k}"] = _seconds(of_order) - len(of_order) * stream
    m["expansion.partitions_tried"] = tracer.partitions_tried

    cumulants = tracer.select("expansion.cumulant")
    m["expansion.cumulant_s"] = _seconds(cumulants)
    m["expansion.cumulant_calls"] = len(cumulants)
    m["expansion.structural_s"] = _seconds(tracer.select("expansion.structural"))
    m["expansion.interpolated_s"] = _seconds(tracer.select("expansion.interpolated"))
    m["expansion.per_n_samples"] = sum(
        s.attrs["samples"] for s in tracer.select("expansion.per_n_sampling")
    )
    for s in tracer.select("expansion.per_n"):
        if s.attrs["n"] in PER_N:
            m[f"expansion.per_n_s.n{s.attrs['n']}"] += s.seconds
    m["polynomial.solve_s"] = _seconds(tracer.select("polynomial.solve"))

    ursell = tracer.select("graphcalc.ursell")
    m["graphcalc.ursell_calls"] = len(ursell)
    m["graphcalc.ursell_s"] = _seconds(ursell)

    exact = tracer.select("oracle.exact")
    m["oracle.exact_s"] = _seconds(exact)
    m["oracle.exact_calls"] = len(exact)
    m["oracle.exact_states"] = sum(s.attrs["states"] for s in exact)

    mc = tracer.select("oracle.mc", "op")
    if mc:
        m["oracle.mc_s"] = _seconds(mc)
        m["oracle.mc_trials_per_s"] = sum(s.attrs["trials"] for s in mc) / _seconds(mc)
    mc_probe = tracer.select("oracle.mc", "probe")
    if mc_probe:
        m["oracle.mc_trials_per_s_w1"] = (
            sum(s.attrs["trials"] for s in mc_probe) / _seconds(mc_probe)
        )
    m["asymptotics.closed_s"] = _seconds(tracer.select("asymptotics.closed"))

    for key, value in probe.items():
        if key not in m:
            raise KeyError(f"probe metric {key!r} is not a per-layer metric")
        m[key] = value
    return m
