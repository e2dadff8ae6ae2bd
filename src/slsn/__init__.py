"""Shallow-light Steiner network toolkit.

Solvers, classifiers, oracles and hardness-gadget generators for the
minimum-cost subgraph problem where every demand pair must be connected
within a global length bound.
"""

from .core import (
    DemandGraph,
    DemandStatus,
    Edge,
    FeasibilityReport,
    Path,
    SlsnInstance,
    Solution,
    WeightedGraph,
    as_fraction,
    canonical_path_assignment,
    expand_to_unit,
    feasibility_check,
    format_rational,
    restricted_min_cost_path,
)

__all__ = [
    "DemandGraph",
    "DemandStatus",
    "Edge",
    "FeasibilityReport",
    "Path",
    "SlsnInstance",
    "Solution",
    "WeightedGraph",
    "as_fraction",
    "canonical_path_assignment",
    "expand_to_unit",
    "feasibility_check",
    "format_rational",
    "restricted_min_cost_path",
]

__version__ = "0.1.0"
