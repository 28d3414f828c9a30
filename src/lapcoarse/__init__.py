"""Laplacians of weighted digraphs and their coarse-graining.

The package builds weighted directed graphs with node masses, their in-
and out-degree Laplacians, the reach structure of edge subsets, kernel
bases of cluster Laplacians, Riesz projectors, and mass-preserving graph
coarsenings whose reduced dynamics approximate the full dynamics as the
cluster weights grow.
"""

from .coarsen import (
    CoarseningResult,
    TransportReport,
    coarsen,
    probability_transport_check,
)
from .connectivity import (
    ClusterSet,
    Reach,
    ReachDecomposition,
    build_cluster_set,
    connected_components,
    reaches,
)
from .errors import (
    InvariantViolation,
    LapcoarseError,
    ValidationError,
)
from .graph import (
    Graph,
    build_graph,
    degrees,
    is_undirected,
    laplacian,
    validate_boundedness,
)
from .harness import (
    GapBoundReport,
    SweepReport,
    gap_bound_check,
    heat_diff,
    resolvent_diff,
    sweep,
)
from .io import (
    export_dot,
    parse_cluster_edges,
    parse_graph,
    serialize_coarsening,
    serialize_graph,
    serialize_sweep,
    sweep_csv,
)
from .kernels import KernelBasis, kernels_in, kernels_out, riesz_from_kernels

__version__ = "0.1.0"

__all__ = [
    "ClusterSet",
    "CoarseningResult",
    "GapBoundReport",
    "Graph",
    "InvariantViolation",
    "KernelBasis",
    "LapcoarseError",
    "Reach",
    "ReachDecomposition",
    "SweepReport",
    "TransportReport",
    "ValidationError",
    "build_cluster_set",
    "build_graph",
    "coarsen",
    "connected_components",
    "degrees",
    "export_dot",
    "gap_bound_check",
    "heat_diff",
    "is_undirected",
    "kernels_in",
    "kernels_out",
    "laplacian",
    "parse_cluster_edges",
    "parse_graph",
    "probability_transport_check",
    "reaches",
    "resolvent_diff",
    "riesz_from_kernels",
    "serialize_coarsening",
    "serialize_graph",
    "serialize_sweep",
    "sweep",
    "sweep_csv",
    "validate_boundedness",
]
