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
Laplacian assembled from the reduced graph itself.

The graph is read by blocks: the kernel builders read the cluster cells,
and the assembly reads ``graph.weights`` once, as the rows of the cluster
nodes (with the cluster cells set to zero) and the rows of the others.
The aggregate weights are one product over those background rows; the
rows are then turned in place into the background Laplacian's, and the
compression is a second product over them.  No n x n subgraph,
background graph, transposed graph or Laplacian is formed.  From 10^4
entries on, every product with down and up is taken on the two blocks of
the basis' :class:`ClusterSplit`: the cluster nodes against the reaches
on them, and an elementwise outside diagonal, read from the arrays rather
than assumed to be 1.  Below that, the background weights and their
Laplacian are taken whole, one n x n array each, and multiplied whole.
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
from .graph import Graph, _laplacian, is_undirected, laplacian
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


def _background(graph: Graph, cluster_set: ClusterSet, split: ClusterSplit):
    """``graph.weights`` without the cluster cells, as new arrays.

    Whole when the split is :attr:`~ClusterSplit.whole`, and otherwise its
    inside rows and its outside rows, as :meth:`ClusterSplit.sandwich`
    takes them.  The cluster cells all lie on inside rows.
    """
    rows, cols = cluster_set.cells
    if split.whole:
        whole = graph.weights.copy()
        whole[rows, cols] = 0.0
        return whole
    top = graph.weights.take(split.inside, axis=0)
    top[np.searchsorted(split.inside, rows), cols] = 0.0
    return top, graph.weights.take(split.outside, axis=0)


def _background_laplacian(background, masses: np.ndarray, split: ClusterSplit, kind):
    """The Laplacian of ``kind`` of :func:`_background`, in the same form.

    The rows of a split background are turned into the Laplacian's in place.
    """
    if split.whole:
        return _laplacian(background, masses, background.sum(axis=1 if kind == "in" else 0))
    top, below = background
    if kind == "in":
        deg = np.empty(len(masses))
        deg[split.inside], deg[split.outside] = top.sum(axis=1), below.sum(axis=1)
    else:
        deg = top.sum(axis=0) + below.sum(axis=0)
    for block, nodes in ((top, split.inside), (below, split.outside)):
        # w / -m is -(w / m) in one pass; absent entries become -0, which no
        # sum of the compression tells from +0
        np.divide(block, -masses[nodes, np.newaxis], out=block)
        block[np.arange(len(nodes)), nodes] = deg[nodes] / masses[nodes]
    return top, below


def _products(
    mode: CoarsenMode, graph: Graph, cluster_set: ClusterSet, basis: KernelBasis,
    coarse_mass: np.ndarray, down: np.ndarray, up: np.ndarray, perm: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The aggregate weights, and the compression ``down @ L_background @ up``.

    Two products over the background, which the cross-check compares, both
    with their reduced nodes in the order ``perm``.
    """
    split, right, left = basis.split, basis.right, basis.left
    background = _background(graph, cluster_set, split)
    if mode == "undirected":
        # Indicator block sums, mirrored so the reduced graph is exactly
        # symmetric: mass * (W / mass) is not when 1 / mass is inexact, and
        # a block and its transpose are summed in different orders.
        aggregate = split.sandwich(right, background, right, perm)
        aggregate = 0.5 * (aggregate + aggregate.T)
    elif basis.kind == "in":
        aggregate = coarse_mass[perm, None] * split.sandwich(left, background, right, perm)
    else:
        aggregate = split.sandwich(left, background, right, perm) * coarse_mass[None, perm]
    lap = _background_laplacian(background, graph.masses, split, basis.kind)
    return aggregate, split.sandwich(down.T, lap, up, perm)


def _assemble(
    mode: CoarsenMode, graph: Graph, cluster_set: ClusterSet, basis: KernelBasis
) -> CoarseningResult:
    kind = basis.kind
    right, left = basis.right, basis.left
    masses = graph.masses
    # down is made row-major, where a transposed product would need a strided copy
    down = np.multiply(left.T, masses, order="C")
    if kind == "in":
        coarse_mass = right.T @ masses
        up = right
    else:
        coarse_mass = left.T @ masses
        down /= coarse_mass[:, None]
        up = right * coarse_mass[None, :]
    if not np.all(coarse_mass > 0.0):
        raise ReductionMismatch("a reduced node received non-positive mass")
    members = [tuple(sorted(reach.nodes)) for reach in basis.decomposition]
    labels = ["+".join(nodes) for nodes in members]
    # the reduced graph's node ids are sorted; perm takes them from ``labels``
    perm = sorted(range(len(labels)), key=labels.__getitem__)
    aggregate, compressed = _products(
        mode, graph, cluster_set, basis, coarse_mass, down, up, perm)
    weights = _aggregate_edges(aggregate)
    reduced = Graph._adopt(tuple(labels[k] for k in perm), coarse_mass[perm], weights)
    if perm != sorted(perm):
        down = down[perm]
    up, split = up[:, perm], basis.split.permuted(perm)
    lap = _cross_check(mode, graph, down, up, reduced, compressed, kind, split)
    node_map = {labels[k]: members[k] for k in perm}
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
