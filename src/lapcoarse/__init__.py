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
    reachable_set,
    reaches,
    transpose_cluster_set,
)
from .errors import (
    InvariantViolation,
    LapcoarseError,
    ValidationError,
)
from .graph import (
    Graph,
    LaplacianMatrix,
    build_graph,
    degrees,
    dirichlet_form,
    drop_edges,
    from_weight_matrix,
    is_undirected,
    laplacian,
    restrict_edges,
    scale_edges,
    transpose,
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
from .kernels import (
    KernelBasis,
    kernels_in,
    kernels_out,
    left_kernel_in,
    right_kernel_in,
    weight_vector_bruteforce,
    weight_vector_matrix,
)
from .riesz import riesz_contour_oracle, riesz_from_kernels, riesz_projector

__version__ = "0.1.0"

__all__ = [
    "ClusterSet",
    "CoarseningResult",
    "GapBoundReport",
    "Graph",
    "InvariantViolation",
    "KernelBasis",
    "LapcoarseError",
    "LaplacianMatrix",
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
    "dirichlet_form",
    "drop_edges",
    "export_dot",
    "from_weight_matrix",
    "gap_bound_check",
    "heat_diff",
    "is_undirected",
    "kernels_in",
    "kernels_out",
    "laplacian",
    "left_kernel_in",
    "parse_cluster_edges",
    "parse_graph",
    "probability_transport_check",
    "reachable_set",
    "reaches",
    "resolvent_diff",
    "restrict_edges",
    "riesz_contour_oracle",
    "riesz_from_kernels",
    "riesz_projector",
    "right_kernel_in",
    "scale_edges",
    "serialize_coarsening",
    "serialize_graph",
    "serialize_sweep",
    "sweep",
    "sweep_csv",
    "transpose",
    "transpose_cluster_set",
    "validate_boundedness",
    "weight_vector_bruteforce",
    "weight_vector_matrix",
]
