"""Graph coarsening along a cluster set.

Contracting the reaches of a cluster edge subset produces a reduced graph
together with restriction (down) and prolongation (up) operators.  One
assembly builds them from a kernel basis of the cluster-subgraph
Laplacian, and the mode picks the basis builder:

* ``undirected``: :func:`kernels_undirected`, the closed-form in-degree
  basis of a symmetric cluster edge set whose reaches are its connected
  components; down averages by mass, up copies values.
* ``in``: :func:`kernels_in`, the in-degree basis of the reaches of the
  directed cluster subgraph.
* ``out``: :func:`kernels_out`, the out-degree basis built on the
  transposed cluster subgraph.

In every mode the operators satisfy down @ up = identity and
up @ down = Riesz projector of the cluster subgraph, total mass is
conserved, and the reduced-graph Laplacian equals the compression
down @ L_background @ up exactly (:class:`Graph` drops the self-loops
that contraction creates; they never enter a Laplacian).  The compression
identity is recomputed on every call and cross-checked against the
Laplacian assembled from the reduced graph itself.  From 10^4 entries on,
every product with down and up is taken on the two blocks of the basis'
:class:`ClusterSplit`: the cluster nodes against the reaches on them, and
an elementwise outside diagonal, read from the arrays rather than assumed
to be 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .connectivity import ClusterSet
from .errors import (
    ClusterViolation,
    InvalidOption,
    NegativeAggregateWeight,
    NotADistribution,
    NotUndirected,
    ReductionMismatch,
)
from .graph import Graph, is_undirected, laplacian
from .kernels import ClusterSplit, KernelBasis, kernels_in, kernels_out, kernels_undirected
from .numerics import (
    TOL_AGGREGATE,
    TOL_DISTRIBUTION,
    TOL_MASS_CONSERVATION,
    TOL_REDUCED_LAPLACIAN,
    require,
)

__all__ = [
    "CoarseningResult",
    "TransportReport",
    "coarsen",
    "probability_transport_check",
]

CoarsenMode = Literal["undirected", "in", "out"]


@dataclass(frozen=True, eq=False)
class CoarseningResult:
    """Reduced graph with its transfer operators.

    ``down`` maps functions on the parent graph to functions on the
    reduced graph (k x n), ``up`` goes the other way (n x k).  Reduced
    node ids join the sorted member ids with ``+``; ``node_map`` lists the
    members of each reduced node (reaches may share common nodes, so the
    member tuples of the directed modes can overlap).  ``basis`` is the
    kernel basis the operators were built from, and ``split`` the blocks
    of ``up`` and ``down.T`` in the reduced node order.
    """

    mode: CoarsenMode
    graph: Graph
    cluster_set: ClusterSet
    reduced: Graph
    down: np.ndarray
    up: np.ndarray
    reduced_laplacian: np.ndarray
    node_map: dict[str, tuple[str, ...]]
    basis: KernelBasis
    split: ClusterSplit

    def __post_init__(self) -> None:
        self.down.setflags(write=False)
        self.up.setflags(write=False)

    @property
    def size(self) -> int:
        return self.reduced.n


def _cross_check(
    mode: CoarsenMode, graph: Graph, down: np.ndarray, up: np.ndarray, reduced: Graph,
    compressed: np.ndarray, kind, split: ClusterSplit,
) -> np.ndarray:
    """The reduced-graph Laplacian, once it matches the compression.

    Also checks ``down @ up = I`` on the blocks of ``split``, and that the
    total mass is kept.
    """
    lap = laplacian(reduced, kind)
    scale = max(1.0, float(np.abs(lap).max()))
    lap_resid = {"reduced-graph Laplacian": float(np.abs(compressed - lap).max())}
    require(ReductionMismatch, f"{mode} compression", TOL_REDUCED_LAPLACIAN * scale, lap_resid)
    identity = {"identity": split.pairing_residual(down.T, up)}
    require(ReductionMismatch, "down @ up", TOL_REDUCED_LAPLACIAN, identity)
    total = float(graph.masses.sum())
    mass = {"total mass": abs(float(reduced.masses.sum()) - total)}
    require(ReductionMismatch, "coarsening", TOL_MASS_CONSERVATION * max(1.0, total), mass)
    return lap


def _aggregate_edges(aggregate: np.ndarray) -> np.ndarray:
    """Aggregate weights behind their gates, tiny noise cut to zero."""
    if not np.all(np.isfinite(aggregate)):
        raise NegativeAggregateWeight("aggregated weights contain NaN or Inf")
    tol = TOL_AGGREGATE * max(1.0, float(np.abs(aggregate).max()))
    negative = {"negative weight": -float(aggregate.min())}
    require(NegativeAggregateWeight, "aggregated weights", tol, negative)
    return np.where(aggregate > tol, aggregate, 0.0)


def _assemble(
    mode: CoarsenMode, graph: Graph, cluster_set: ClusterSet, basis: KernelBasis
) -> CoarseningResult:
    kind = basis.kind
    right, left = basis.right, basis.left
    masses = graph.masses
    if kind == "in":
        coarse_mass = right.T @ masses
        down = (left * masses[:, None]).T
        up = right
    else:
        coarse_mass = left.T @ masses
        down = (left * masses[:, None]).T / coarse_mass[:, None]
        up = right * coarse_mass[None, :]
    if not np.all(coarse_mass > 0.0):
        raise ReductionMismatch("a reduced node received non-positive mass")
    background = cluster_set.background()
    split = basis.split
    if mode == "undirected":
        # Indicator block sums, mirrored so the reduced graph is exactly
        # symmetric: mass * (W / mass) is not when 1 / mass is inexact, and
        # a block and its transpose are summed in different orders.
        aggregate = split.sandwich(right, background.weights, right)
        aggregate = 0.5 * (aggregate + aggregate.T)
    elif kind == "in":
        aggregate = coarse_mass[:, None] * split.sandwich(left, background.weights, right)
    else:
        aggregate = split.sandwich(left, background.weights, right) * coarse_mass[None, :]
    labels = [r.label for r in basis.decomposition]
    # the reduced graph's node ids are sorted; perm takes them from ``labels``
    perm = sorted(range(len(labels)), key=labels.__getitem__)
    weights = _aggregate_edges(aggregate).take(perm, axis=0).take(perm, axis=1)
    reduced = Graph(tuple(labels[k] for k in perm), coarse_mass[perm], weights)
    compressed = split.sandwich(down.T, laplacian(background, kind), up)
    down, up, split = down[perm], up[:, perm], split.permuted(perm)
    compressed = compressed.take(perm, axis=0).take(perm, axis=1)
    lap = _cross_check(mode, graph, down, up, reduced, compressed, kind, split)
    node_map = {labels[k]: tuple(sorted(basis.decomposition.reaches[k].nodes)) for k in perm}
    return CoarseningResult(
        mode, graph, cluster_set, reduced, down, up, lap, node_map, basis, split
    )


def coarsen(graph: Graph, cluster_set: ClusterSet, mode: CoarsenMode) -> CoarseningResult:
    """Contract the reaches of the cluster set with the kernel basis of ``mode``.

    Mode ``undirected`` needs an undirected-mode cluster set and symmetric
    weights; modes ``in`` and ``out`` need a directed-mode cluster set.
    Every node outside the clusters becomes its own reduced node.
    """
    if mode == "undirected":
        if cluster_set.mode != "undirected":
            raise ClusterViolation("undirected coarsening needs an undirected-mode cluster set")
        if not is_undirected(graph):
            raise NotUndirected("undirected coarsening needs symmetric weights")
        basis = kernels_undirected(graph, cluster_set)
    elif mode not in ("in", "out"):
        raise InvalidOption(f"mode must be 'undirected', 'in' or 'out', got {mode!r}")
    elif cluster_set.mode != "directed":
        raise ClusterViolation(f"{mode}-degree coarsening needs a directed-mode cluster set")
    elif mode == "in":
        basis = kernels_in(graph, cluster_set)
    else:
        basis = kernels_out(graph, cluster_set)
    return _assemble(mode, graph, cluster_set, basis)


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
        raise InvalidOption(f"direction must be 'down' or 'up', got {direction!r}")
    if f.shape != source.shape:
        raise NotADistribution(
            f"distribution has shape {f.shape}, expected {source.shape}"
        )
    if not -TOL_DISTRIBUTION <= float(f.min(initial=0.0)):
        raise NotADistribution("distribution has a negative or NaN entry")
    total = float(f @ source)
    if not abs(total - 1.0) <= TOL_DISTRIBUTION:
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
