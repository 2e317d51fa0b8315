"""Linearity of binomial random uniform hypergraphs.

Exact truncated polymer-expansion series over the dependency graph of
overlapping edge pairs, with symbolic-in-n coefficients, brute-force and
Monte Carlo oracles, and closed-form asymptotic evaluators.

`import linhyp` loads none of these engines: each re-exported name
imports its defining module on first access (PEP 562), so a caller, and
each CLI subcommand, loads only the modules it uses.
"""

__version__ = "0.1.0"

#: The one list of re-exports: public name -> defining submodule.
_EXPORTS = {
    "AsymptoticEstimate": "asymptotics",
    "CapExceededError": "errors",
    "DependencyGraph": "dependency",
    "ForbiddenCopy": "hypergraph",
    "LinhypError": "errors",
    "McReport": "oracle",
    "Polynomial": "polynomial",
    "SeriesTerm": "polynomial",
    "SimpleGraph": "graphcalc",
    "ValidationError": "errors",
    "chromatic_polynomial": "graphcalc",
    "cumulant_sum": "expansion",
    "dependency_graph_for": "dependency",
    "enumerate_forbidden_copies": "hypergraph",
    "exact_linearity_polynomial": "oracle",
    "expansion_term": "expansion",
    "hard_core_polynomial": "expansion",
    "inclusion_exclusion_polynomial": "expansion",
    "log_linearity_general": "asymptotics",
    "log_linearity_r3": "asymptotics",
    "moment_sum": "expansion",
    "monte_carlo": "oracle",
    "symbolic_series": "expansion",
    "truncated_expansion": "expansion",
    "ursell": "graphcalc",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
