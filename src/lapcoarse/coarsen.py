"""Graph coarsening along a cluster set.

Contracting the clusters of an edge subset produces a reduced graph
together with restriction (down) and prolongation (up) operators.  Three
modes are provided:

* ``undirected``: clusters are the connected components of a symmetric
  cluster edge set; down averages by mass, up copies values.
* ``in``: clusters are the reaches of the directed cluster subgraph; the
  operators are built from the in-degree kernel basis.
* ``out``: same with the out-degree kernel basis on the transposed
  cluster subgraph.

In every mode the operators satisfy down @ up = identity and
up @ down = Riesz projector of the cluster subgraph, total mass is
conserved, and the reduced-graph Laplacian equals the compression
down @ L_background @ up exactly (self-loops created by contraction are
dropped; they never enter a Laplacian).  The compression identity is
recomputed on every call and cross-checked against the Laplacian assembled
from the reduced graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .connectivity import ClusterSet
from .errors import (
    ClusterViolation,
    NegativeAggregateWeight,
    NotADistribution,
    NotUndirected,
    ReductionMismatch,
)
from .graph import Graph, LaplacianMatrix, build_graph, is_undirected, laplacian
from .kernels import KernelBasis, kernels_in, kernels_out
from .numerics import (
    TOL_MASS_CONSERVATION,
    TOL_REDUCED_LAPLACIAN,
)

__all__ = [
    "CoarseningResult",
    "TransportReport",
    "coarsen",
    "coarsen_in",
    "coarsen_out",
    "coarsen_undirected",
    "probability_transport_check",
]

CoarsenMode = Literal["undirected", "in", "out"]

_DISTRIBUTION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CoarseningResult:
    """Reduced graph with its transfer operators.

    ``down`` maps functions on the parent graph to functions on the
    reduced graph (k x n), ``up`` goes the other way (n x k).  Reduced
    node ids join the sorted member ids with ``+``; ``node_map`` lists the
    members of each reduced node (reaches may share common nodes, so the
    member tuples of the directed modes can overlap).
    """

    mode: CoarsenMode
    graph: Graph
    cluster_set: ClusterSet
    reduced: Graph
    down: np.ndarray
    up: np.ndarray
    reduced_laplacian: LaplacianMatrix
    projector: np.ndarray
    node_map: dict[str, tuple[str, ...]]
    basis: KernelBasis | None = None

    def __post_init__(self) -> None:
        self.down.setflags(write=False)
        self.up.setflags(write=False)
        self.projector.setflags(write=False)

    @property
    def size(self) -> int:
        return self.reduced.n


def _cross_check(
    mode: CoarsenMode,
    graph: Graph,
    down: np.ndarray,
    up: np.ndarray,
    reduced: Graph,
    compressed: np.ndarray,
    kind,
) -> LaplacianMatrix:
    lap = laplacian(reduced, kind)
    scale = max(1.0, float(np.abs(lap.matrix).max()))
    lap_resid = float(np.abs(compressed - lap.matrix).max())
    if not lap_resid <= TOL_REDUCED_LAPLACIAN * scale:
        raise ReductionMismatch(
            f"{mode} compression disagrees with the reduced-graph Laplacian "
            f"by {lap_resid:.3e}"
        )
    identity_resid = float(np.abs(down @ up - np.eye(reduced.n)).max())
    if not identity_resid <= TOL_REDUCED_LAPLACIAN:
        raise ReductionMismatch(
            f"down @ up deviates from the identity by {identity_resid:.3e}"
        )
    total = float(graph.masses.sum())
    mass_resid = abs(float(reduced.masses.sum()) - total)
    if not mass_resid <= TOL_MASS_CONSERVATION * max(1.0, total):
        raise ReductionMismatch(
            f"coarsening changed the total mass by {mass_resid:.3e}"
        )
    return lap


def _aggregate_edges(
    labels: list[str], aggregate: np.ndarray
) -> list[tuple[str, str, float]]:
    """Off-diagonal aggregate weights as drawn edges, tiny noise dropped."""
    if not np.all(np.isfinite(aggregate)):
        raise NegativeAggregateWeight("aggregated weights contain NaN or Inf")
    tol = 1e-12 * max(1.0, float(np.abs(aggregate).max()))
    worst = float(aggregate.min())
    if worst < -tol:
        raise NegativeAggregateWeight(
            f"aggregated weight {worst!r} is negative beyond round-off"
        )
    mask = aggregate > tol
    np.fill_diagonal(mask, False)
    heads, tails = np.nonzero(mask)
    return [
        (labels[s], labels[r], w)
        for r, s, w in zip(
            heads.tolist(), tails.tolist(), aggregate[heads, tails].tolist()
        )
    ]


def coarsen_undirected(graph: Graph, cluster_set: ClusterSet) -> CoarseningResult:
    """Contract the components of a symmetric cluster edge set.

    Requires an undirected-mode cluster set whose paired edges carry equal
    weights.  Every node outside the clusters becomes its own reduced
    node.
    """
    if cluster_set.mode != "undirected":
        raise ClusterViolation(
            "undirected coarsening needs an undirected-mode cluster set"
        )
    if not is_undirected(graph):
        raise NotUndirected("undirected coarsening needs symmetric weights")
    components = [sorted(r.nodes) for r in cluster_set.decomposition]
    labels = ["+".join(c) for c in components]
    n, k = graph.n, len(components)
    up = np.zeros((n, k))
    for col, members in enumerate(components):
        for v in members:
            up[graph.index(v), col] = 1.0
    coarse_mass = up.T @ graph.masses
    down = (up * graph.masses[:, None]).T / coarse_mass[:, None]
    background = cluster_set.background()
    aggregate = up.T @ background.weights @ up
    reduced = build_graph(
        zip(labels, coarse_mass.tolist()), _aggregate_edges(labels, aggregate)
    )
    compressed = down @ laplacian(background, "in").matrix @ up
    perm = _label_permutation(labels, reduced)
    down, up = down[perm], up[:, perm]
    compressed = compressed[np.ix_(perm, perm)]
    lap = _cross_check("undirected", graph, down, up, reduced, compressed, "in")
    node_map = {labels[p]: tuple(components[p]) for p in perm}
    return CoarseningResult(
        "undirected",
        graph,
        cluster_set,
        reduced,
        down,
        up,
        lap,
        up @ down,
        node_map,
    )


def _label_permutation(labels: list[str], reduced: Graph) -> list[int]:
    """Positions of the reduced graph's (sorted) node ids inside ``labels``."""
    where = {label: pos for pos, label in enumerate(labels)}
    return [where[v] for v in reduced.nodes]


def _coarsen_directed(
    graph: Graph, cluster_set: ClusterSet, basis: KernelBasis
) -> CoarseningResult:
    kind = basis.kind
    right, left = basis.right, basis.left
    masses = graph.masses
    if kind == "in":
        coarse_mass = right.T @ masses
        down = (left * masses[:, None]).T
        up = right.copy()
    else:
        coarse_mass = left.T @ masses
        down = (left * masses[:, None]).T / coarse_mass[:, None]
        up = right * coarse_mass[None, :]
    if not np.all(coarse_mass > 0.0):
        raise ReductionMismatch("a reduced node received non-positive mass")
    background = cluster_set.background()
    pairing = (left.T @ background.weights) @ right
    if kind == "in":
        aggregate = coarse_mass[:, None] * pairing
    else:
        aggregate = pairing * coarse_mass[None, :]
    labels = [r.label for r in basis.decomposition]
    reduced = build_graph(
        zip(labels, coarse_mass.tolist()), _aggregate_edges(labels, aggregate)
    )
    compressed = down @ laplacian(background, kind).matrix @ up
    perm = _label_permutation(labels, reduced)
    down, up = down[perm], up[:, perm]
    compressed = compressed[np.ix_(perm, perm)]
    lap = _cross_check(kind, graph, down, up, reduced, compressed, kind)
    members = {r.label: tuple(sorted(r.nodes)) for r in basis.decomposition}
    node_map = {label: members[label] for label in reduced.nodes}
    return CoarseningResult(
        kind,
        graph,
        cluster_set,
        reduced,
        down,
        up,
        lap,
        up @ down,
        node_map,
        basis,
    )


def _require_directed(cluster_set: ClusterSet, what: str) -> None:
    if cluster_set.mode != "directed":
        raise ClusterViolation(f"{what} coarsening needs a directed-mode cluster set")


def coarsen_in(graph: Graph, cluster_set: ClusterSet) -> CoarseningResult:
    """Contract the reaches of the cluster subgraph, in-degree form."""
    _require_directed(cluster_set, "in-degree")
    return _coarsen_directed(graph, cluster_set, kernels_in(graph, cluster_set))


def coarsen_out(graph: Graph, cluster_set: ClusterSet) -> CoarseningResult:
    """Contract the reaches of the transposed cluster subgraph, out-degree form."""
    _require_directed(cluster_set, "out-degree")
    return _coarsen_directed(graph, cluster_set, kernels_out(graph, cluster_set))


def coarsen(graph: Graph, cluster_set: ClusterSet, mode: CoarsenMode) -> CoarseningResult:
    if mode == "undirected":
        return coarsen_undirected(graph, cluster_set)
    if mode == "in":
        return coarsen_in(graph, cluster_set)
    if mode == "out":
        return coarsen_out(graph, cluster_set)
    raise ValueError(f"mode must be 'undirected', 'in' or 'out', got {mode!r}")


@dataclass(frozen=True, eq=False)
class TransportReport:
    """Outcome of moving a probability distribution across a coarsening."""

    direction: Literal["down", "up"]
    transported: np.ndarray
    input_total: float
    output_total: float

    @property
    def residual(self) -> float:
        return abs(self.output_total - self.input_total)


def probability_transport_check(
    result: CoarseningResult,
    distribution,
    direction: Literal["down", "up"] = "down",
) -> TransportReport:
    """Transport a distribution across the coarsening and report conservation.

    Distributions are mass densities: nonnegative vectors whose mass-
    weighted sum is 1.  The undirected and out modes transport with the
    coarsening operators themselves.  The in-mode operators act on
    observables, so distributions move with their mass adjoints: down by
    pairing with the right kernel vectors, up by expanding in the left
    ones.  All four combinations conserve total probability exactly, up to
    round-off.
    """
    f = np.asarray(distribution, dtype=float)
    if direction == "down":
        source, target = result.graph.masses, result.reduced.masses
    elif direction == "up":
        source, target = result.reduced.masses, result.graph.masses
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    if f.shape != source.shape:
        raise NotADistribution(
            f"distribution has shape {f.shape}, expected {source.shape}"
        )
    if float(f.min(initial=0.0)) < -_DISTRIBUTION_TOL:
        raise NotADistribution("distribution has a negative entry")
    total = float(f @ source)
    if abs(total - 1.0) > _DISTRIBUTION_TOL:
        raise NotADistribution(
            f"distribution has mass-weighted total {total!r}, expected 1"
        )
    adjoint = result.mode == "in"
    if direction == "down":
        if adjoint:
            out = (result.up.T @ (f * result.graph.masses)) / result.reduced.masses
        else:
            out = result.down @ f
    else:
        if adjoint:
            out = (result.down.T @ (f * result.reduced.masses)) / result.graph.masses
        else:
            out = result.up @ f
    return TransportReport(direction, out, total, float(out @ target))
