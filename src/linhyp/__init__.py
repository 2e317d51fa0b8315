"""Linearity of binomial random uniform hypergraphs.

Exact truncated polymer-expansion series over the dependency graph of
overlapping edge pairs, with symbolic-in-n coefficients, brute-force and
Monte Carlo oracles, and closed-form asymptotic evaluators.
"""

__version__ = "0.1.0"

from .hypergraph import (
    ForbiddenCopy,
    Hypergraph,
    enumerate_forbidden_copies,
    family_densities,
    is_linear,
    parse_hypergraph,
)
from .dependency import DependencyGraph, dependency_graph_for
from .errors import CapExceededError, LinhypError, ValidationError
from .expansion import (
    cumulant_sum,
    expansion_term,
    hard_core_polynomial,
    inclusion_exclusion_polynomial,
    moment_sum,
    symbolic_series,
    truncated_expansion,
)
from .graphcalc import SimpleGraph, chromatic_polynomial, ursell
from .oracle import McReport, exact_linearity_polynomial, monte_carlo
from .asymptotics import AsymptoticEstimate, log_linearity_general, log_linearity_r3
from .polynomial import Polynomial, SeriesTerm

__all__ = [
    "AsymptoticEstimate",
    "CapExceededError",
    "DependencyGraph",
    "ForbiddenCopy",
    "Hypergraph",
    "LinhypError",
    "McReport",
    "Polynomial",
    "SeriesTerm",
    "SimpleGraph",
    "ValidationError",
    "chromatic_polynomial",
    "cumulant_sum",
    "dependency_graph_for",
    "enumerate_forbidden_copies",
    "exact_linearity_polynomial",
    "expansion_term",
    "family_densities",
    "hard_core_polynomial",
    "inclusion_exclusion_polynomial",
    "is_linear",
    "log_linearity_general",
    "log_linearity_r3",
    "moment_sum",
    "monte_carlo",
    "parse_hypergraph",
    "symbolic_series",
    "truncated_expansion",
    "ursell",
]
