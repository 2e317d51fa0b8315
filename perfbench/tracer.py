"""Spans around linhyp's layer entry points, installed from outside the package.

`Tracer.install()` replaces each entry point in `ENTRY_POINTS` with a
wrapper that records one span per call, in every loaded `linhyp` module
that binds the same function object, so names imported with
`from .x import f` are wrapped too.  A missing entry point raises at
install time, and `missing_spans()` names every entry point that recorded
nothing, so a renamed layer function fails loudly instead of reading 0.

Spans are kept in memory: (name, phase, start, end, attrs).  The phase is
"op" while the CLI operation runs and "probe" while a layer probe runs.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def graph_nr(d) -> tuple[int, int]:
    """(n, r) of a dependency graph over the complete r-graph on [n]."""
    if not d.copies:
        return (0, 0)
    r = len(d.copies[0].e1)
    n = max(max(c.e1[-1], c.e2[-1]) for c in d.copies)
    return (n, r)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, function, span name, attrs(args, kwargs, result), own module only)
ENTRY_POINTS = [
    ("linhyp.hypergraph", "enumerate_forbidden_copies", "hypergraph.copies",
     lambda a, k, res: {"copies": len(res)}, False),
    ("linhyp.dependency", "dependency_graph_for", "dependency.build",
     lambda a, k, res: {"nr": (_arg(a, k, 0, "n"), _arg(a, k, 1, "r"))}, False),
    ("linhyp.expansion", "expansion_term", "expansion.term",
     lambda a, k, res: {"order": _arg(a, k, 1, "order"), "nr": graph_nr(_arg(a, k, 0, "d"))},
     False),
    ("linhyp.expansion", "cumulant_sum", "expansion.cumulant", None, False),
    ("linhyp.expansion", "structural_series_grouped", "expansion.structural", None, False),
    ("linhyp.expansion", "interpolated_series_grouped", "expansion.interpolated", None, False),
    ("linhyp.expansion", "_sample_power_sums", "expansion.per_n_sampling",
     lambda a, k, res: {"samples": len(_arg(a, k, 0, "ns"))}, False),
    ("linhyp.expansion", "per_n_power_sums", "expansion.per_n",
     lambda a, k, res: {"n": _arg(a, k, 0, "n")}, False),
    ("linhyp.expansion", "_solve_falling_basis", "polynomial.solve", None, False),
    # only the calls that reach ursell from the expansion layer (phi-cache misses)
    ("linhyp.expansion", "ursell", "graphcalc.ursell", None, True),
    ("linhyp.oracle", "exact_linearity_polynomial", "oracle.exact",
     lambda a, k, res: {"states": 2 ** math.comb(_arg(a, k, 0, "n"), _arg(a, k, 1, "r"))},
     False),
    ("linhyp.oracle", "monte_carlo", "oracle.mc",
     lambda a, k, res: {"trials": res.trials}, False),
    ("linhyp.asymptotics", "log_linearity_r3", "asymptotics.closed", None, False),
    ("linhyp.asymptotics", "log_linearity_general", "asymptotics.closed", None, False),
]

#: Set partitions are counted (not spanned) while an expansion term runs.
PARTITION_SOURCE = ("linhyp.expansion", "set_partitions")


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and the partition count; undone by `uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "op"
        self.partitions_tried = 0
        self._recording = True
        self._open_terms = 0
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: list[tuple[str, str]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for module_name, func_name, span_name, attrs, own_only in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, func_name)  # AttributeError if renamed
            wrapper = self._span_wrapper(original, span_name, attrs)
            self._patch(module, func_name, original, wrapper, own_only)
            self._wrapped.append((f"{module_name}.{func_name}", span_name))
        module = importlib.import_module(PARTITION_SOURCE[0])
        original = getattr(module, PARTITION_SOURCE[1])
        self._patch(module, PARTITION_SOURCE[1], original,
                    self._partition_wrapper(original), True)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _patch(self, module, name, original, wrapper, own_only) -> None:
        targets = [module] if own_only else [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "linhyp" or key.startswith("linhyp."))
            and getattr(m, name, None) is original
        ]
        for target in targets:
            setattr(target, name, wrapper)
            self._patched.append((target, name, original))

    def _span_wrapper(self, original, span_name, attrs):
        tracer = self
        is_term = span_name == "expansion.term"

        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            if is_term:
                with tracer._lock:
                    tracer._open_terms += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_term:
                    with tracer._lock:
                        tracer._open_terms -= 1
            extra = attrs(args, kwargs, result) if attrs else {}
            tracer.spans.append(Span(span_name, tracer.phase, start, end, extra))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _partition_wrapper(self, original):
        tracer = self

        def wrapper(items):
            if not tracer._open_terms:
                yield from original(items)
                return
            count = 0
            try:
                for part in original(items):
                    count += 1
                    yield part
            finally:
                with tracer._lock:
                    tracer.partitions_tried += count

        wrapper.__wrapped__ = original
        return wrapper

    # -- control -------------------------------------------------------

    @contextmanager
    def recording_phase(self, phase: str):
        previous = self.phase
        self.phase = phase
        try:
            yield
        finally:
            self.phase = previous

    @contextmanager
    def paused(self):
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    def missing_spans(self) -> list[str]:
        """Wrapped entry points that recorded no span at all."""
        seen = {s.name for s in self.spans}
        return [qual for qual, span in self._wrapped if span not in seen]

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]


def covered_seconds(spans: list[Span], lo: float, hi: float) -> float:
    """Length of the union of span intervals, clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted((max(s.start, lo), min(s.end, hi)) for s in spans):
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered
