"""Kernel bases of cluster-subgraph Laplacians.

For a subset of edges organized as a cluster set, the in-degree Laplacian
of the cluster subgraph has kernel dimension equal to the number of
reaches.  A kernel basis pairs right kernel vectors with left kernel
vectors (with respect to the mass inner product), one of each per reach;
the two families are biorthogonal, and coarsening assembles its transfer
operators from them.  Three builders produce one:

* :func:`kernels_in`: right vectors are 1 on the exclusive part of a
  reach, 0 off the reach, and the unique interpolating values on the
  common part; left vectors are spanning-out-tree weight vectors
  supported on the cabal, normalized to unit mass pairing.  The right
  family is a partition of unity.
* :func:`kernels_out`: the same machinery applied to the transposed
  subgraph, with the roles of the two families exchanged.
* :func:`kernels_undirected`: the in-degree basis of a symmetric cluster
  edge set in closed form.  Its reaches are connected components, the
  right vectors are their indicators and, since symmetric weights make
  every tree weight vector constant on its component, the left vectors
  are the indicators divided by the component mass.

Every reach with more than one node lies on the cluster nodes (those that
touch a cluster edge), and every other node is a one-node reach of its
own.  So a basis is zero off two blocks, recorded in a
:class:`ClusterSplit`: the cluster nodes against the reaches on them, and
the diagonal of the outside nodes against their own reaches.  From 10^4
entries on, the gates and the products built on a basis work on those
blocks, so the k reaches on the cluster nodes cost O(n^2 k) and the
outside diagonal is elementwise, where whole arrays cost O(n^2 K) for all
K reduced nodes.  This is the nearly decomposable structure of Courtois
(1977).

The weight vector of a reach is supported on its cabal.  By the Markov
chain tree theorem it spans the left null space of the cabal's restricted
matrix diag(in-weights) - W, and the directed builders compute it as that
null vector by GTH elimination (Grassmann, Taksar and Heyman 1985): O(k^3)
operations on k cabal nodes, free of subtraction and so componentwise
accurate at any weight scale.  The tests check it against two slower
routes kept in ``tests/oracles.py``: explicit enumeration of spanning
out-trees and diagonal cofactors of the reach-restricted matrix.

The Riesz projector onto the kernel multiplies out the biorthogonal pairs,
P = sum_R (right_R)(left_R * m)^T.  It annihilates the cluster Laplacian on
both sides and its rank is the number of reaches; a gate checks both, with
idempotency, on the two blocks.  The tests compare it with a contour
integral of the resolvent, kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .connectivity import ClusterSet, ReachDecomposition, reaches
from .errors import (
    ClusterViolation, KernelDefect, ProjectorDefect, SingularCommonBlock, SingularMatrix,
)
from .graph import Graph, Kind, laplacian, transpose
from .numerics import TOL_DEFECT, require, solve

__all__ = ["KernelBasis", "kernels_in", "kernels_out", "riesz_from_kernels"]


def _restricted_weights(graph: Graph, nodes: Iterable[str]):
    order = sorted(nodes)
    idx = [graph.index(v) for v in order]
    return order, graph.weights[np.ix_(idx, idx)]


# Below this many entries in an n x K array, whole-array products cost less
# than the block bookkeeping: on one BLAS thread a sandwich product took 4
# against 40 us at n = 6, K = 4, and broke even near n = 120, K = 80.
_BLOCKS_FROM = 10_000


@dataclass(frozen=True)
class ClusterSplit:
    """The two blocks off which a kernel basis, and all built from it, is zero.

    Built from the row ``nodes`` and the node set of each column's reach.
    Rows: ``inside`` lists the nodes that touch a cluster edge, ``outside``
    the others, both ascending.  Columns: ``reaches`` lists the reaches
    with more than one node, which lie inside, and ``singles[i]`` is the
    one-node reach of ``outside[i]``.  An n x K basis array or transfer
    operator is zero off its ``core`` (inside x reaches) and its
    ``diagonal`` (outside x singles); the cluster Laplacian and the Riesz
    projector are zero off the inside x inside block and the outside
    diagonal.  Products of small arrays are taken whole, and the index
    arrays are only built on first use.
    """

    nodes: tuple[str, ...]
    parts: tuple[frozenset[str], ...]

    @cached_property
    def _single(self) -> dict[str, int]:
        """The column of each one-node reach, by its node."""
        return {v: col for col, part in enumerate(self.parts) if len(part) == 1 for v in part}

    @cached_property
    def inside(self) -> np.ndarray:
        return np.array([i for i, v in enumerate(self.nodes) if v not in self._single], dtype=int)

    @cached_property
    def outside(self) -> np.ndarray:
        return np.array([i for i, v in enumerate(self.nodes) if v in self._single], dtype=int)

    @cached_property
    def reaches(self) -> np.ndarray:
        return np.array([col for col, part in enumerate(self.parts) if len(part) > 1], dtype=int)

    @cached_property
    def singles(self) -> np.ndarray:
        return np.array([self._single[v] for v in self.nodes if v in self._single], dtype=int)

    def core(self, vectors: np.ndarray) -> np.ndarray:
        return vectors.take(self.reaches, axis=1).take(self.inside, axis=0)

    def diagonal(self, vectors: np.ndarray) -> np.ndarray:
        return vectors[self.outside, self.singles]

    def blocks(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Core and diagonal of an n x K array, and its nonzero (or NaN) entries off them."""
        core, diagonal = self.core(vectors), self.diagonal(vectors)
        on = np.count_nonzero(core) + np.count_nonzero(diagonal)
        return core, diagonal, int(np.count_nonzero(vectors) - on)

    def sandwich(self, x: np.ndarray, matrix: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``x.T @ matrix @ y`` for n x K arrays ``x`` and ``y`` split this way."""
        if x.size < _BLOCKS_FROM:
            return x.T @ matrix @ y
        r, s, o, k = self.reaches, self.singles, self.outside, len(self.reaches)
        # the reach columns, zero off the inside rows, are multiplied whole
        xo, yo, yr = x[o, s][:, None], y[o, s], y[:, r]
        top, below = x[:, r].T @ matrix, matrix[o]
        out = np.empty((x.shape[1], y.shape[1]), dtype=np.result_type(x, matrix, y))
        out[:k, :k] = top @ yr
        out[:k, k:] = top[:, o] * yo
        out[k:, :k] = xo * (below @ yr)
        out[k:, k:] = xo * below[:, o] * yo
        back = np.argsort(np.concatenate([r, s]))
        return out.take(back, axis=0).take(back, axis=1)

    def lift(self, x: np.ndarray, inner: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``x @ inner @ y.T`` for n x K arrays split this way, inside rows and columns first."""
        if x.size < _BLOCKS_FROM:
            order = np.concatenate([self.inside, self.outside])
            return x[order] @ inner @ y[order].T
        r, s, p = self.reaches, self.singles, len(self.inside)
        xc, xo = self.core(x), self.diagonal(x)[:, None]
        yc, yo = self.core(y), self.diagonal(y)
        rows, below = inner.take(r, axis=0), inner.take(s, axis=0)
        n = p + len(self.outside)
        out = np.empty((n, n), dtype=np.result_type(x, inner, y))
        out[:p, :p] = xc @ rows.take(r, axis=1) @ yc.T
        out[:p, p:] = (xc @ rows.take(s, axis=1)) * yo
        out[p:, :p] = (xo * below.take(r, axis=1)) @ yc.T
        out[p:, p:] = xo * below.take(s, axis=1) * yo
        return out

    def pairing_residual(self, x: np.ndarray, y: np.ndarray) -> float:
        """Largest entry of ``|x.T @ y - I|`` for n x K arrays split this way.

        On the blocks, each nonzero (or NaN) entry of ``x`` or ``y`` off
        them adds 1, so that no array the whole product would reject passes.
        """
        if x.size < _BLOCKS_FROM:
            return float(np.abs(x.T @ y - np.eye(x.shape[1])).max(initial=0.0))
        (x_core, x_diag, x_off), (y_core, y_diag, y_off) = self.blocks(x), self.blocks(y)
        core = x_core.T @ y_core
        core.flat[:: len(core) + 1] -= 1.0
        diagonal = x_diag * y_diag - 1.0
        resid = np.maximum(np.abs(core).max(initial=0.0), np.abs(diagonal).max(initial=0.0))
        return float(resid) + x_off + y_off

    def permuted(self, perm: list[int]) -> ClusterSplit:
        """The split of the same arrays with column j moved from ``perm[j]``."""
        return ClusterSplit(self.nodes, tuple(self.parts[j] for j in perm))


def _split(graph: Graph, dec: ReachDecomposition) -> ClusterSplit:
    """The split of a basis over ``dec``: the one-node reaches are the outside nodes."""
    return ClusterSplit(tuple(graph.nodes), tuple(reach.nodes for reach in dec))


@dataclass(frozen=True)
class KernelBasis:
    """Right and left kernel families of a cluster-subgraph Laplacian.

    Columns of ``right`` and ``left`` are indexed by the reaches of
    ``decomposition`` (for the out kind, the reaches of the transposed
    cluster subgraph).  Vectors live on the parent graph's node order.
    ``split`` gives their two blocks.
    """

    kind: Kind
    graph: Graph
    cluster_set: ClusterSet
    decomposition: ReachDecomposition
    right: np.ndarray
    left: np.ndarray
    split: ClusterSplit

    @cached_property
    def cluster_block(self) -> np.ndarray:
        """The cluster Laplacian of ``kind`` on the inside nodes, where it is nonzero."""
        inside = self.split.inside
        return laplacian(self.cluster_set.subgraph(), self.kind)[inside[:, None], inside]

    @property
    def size(self) -> int:
        return self.right.shape[1]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.decomposition)

    def right_vector(self, label: str) -> np.ndarray:
        return self.right[:, self.labels.index(label)]

    def left_vector(self, label: str) -> np.ndarray:
        return self.left[:, self.labels.index(label)]


def _indicator_vectors(
    matrix: np.ndarray, dec: ReachDecomposition, index: dict[str, int]
) -> np.ndarray:
    """Columns equal to 1 on exclusive parts, solved on common parts."""
    out = np.zeros((matrix.shape[0], len(dec)))
    for col, reach in enumerate(dec):
        if len(reach.nodes) == 1:
            continue
        H = [index[v] for v in sorted(reach.exclusive)]
        C = [index[v] for v in sorted(reach.common)]
        out[H, col] = 1.0
        if C:
            # dividing each row by the block's diagonal leaves the solution
            # unchanged and keeps the pivots independent of the weight scale
            diag = np.diagonal(matrix)[C, np.newaxis]
            rhs = -(matrix[np.ix_(C, H)] / diag) @ np.ones(len(H))
            try:
                out[C, col] = solve(matrix[np.ix_(C, C)] / diag, rhs)
            except SingularMatrix as exc:
                raise SingularCommonBlock(
                    f"common block of reach {reach.label!r} is singular"
                ) from exc
    # a one-node reach is its own exclusive part
    cols, rows = _one_node_columns([reach.nodes for reach in dec], index)
    out[rows, cols] = 1.0
    return out


def _one_node_columns(
    parts: list[frozenset[str]], index: dict[str, int]
) -> tuple[list[int], list[int]]:
    """Positions of the one-node parts, and the index of each one's node."""
    single = [
        (col, index[v]) for col, part in enumerate(parts) if len(part) == 1 for v in part
    ]
    return [col for col, _ in single], [row for _, row in single]


def _gth_null_vector(W: np.ndarray) -> np.ndarray:
    """Left null vector of diag(W.sum(axis=1)) - W, with entry 0 equal to 1.

    ``W`` holds the nonnegative off-diagonal weights of a strongly
    connected subgraph.  Each backward step censors the last remaining
    node with one rank-1 update; the exit sum is taken from the weights
    instead of from a diagonal, so no step subtracts.
    """
    A = W.copy()
    for j in range(A.shape[0] - 1, 0, -1):
        A[:j, j] /= A[j, :j].sum()
        A[:j, :j] += np.outer(A[:j, j], A[j, :j])
    omega = np.zeros(A.shape[0])
    omega[0] = 1.0
    for j in range(1, A.shape[0]):
        omega[j] = omega[:j] @ A[:j, j]
    return omega


def _tree_vectors(
    sub: Graph, dec: ReachDecomposition, index: dict[str, int]
) -> np.ndarray:
    """Columns of cabal tree weight vectors, each normalized to unit mass sum."""
    out = np.zeros((sub.n, len(dec)))
    for col, reach in enumerate(dec):
        if len(reach.cabal) == 1:
            continue
        order, W = _restricted_weights(sub, reach.cabal)
        vec = np.zeros(sub.n)
        vec[[index[v] for v in order]] = _gth_null_vector(W)
        total = float(vec @ sub.masses)
        if not total > 0.0:
            raise KernelDefect(
                f"tree weight vector of reach {reach.label!r} has non-positive "
                f"mass sum {total!r}"
            )
        out[:, col] = vec / total
    # a one-node cabal's vector is that node's indicator over its mass
    cols, rows = _one_node_columns([reach.cabal for reach in dec], index)
    out[rows, cols] = 1.0 / sub.masses[rows]
    return out


def _check_basis(
    lap: np.ndarray, masses: np.ndarray, right: np.ndarray, left: np.ndarray,
    unity: np.ndarray, split: ClusterSplit,
) -> None:
    """Raise KernelDefect unless ``right`` and ``left`` pair into a kernel basis of ``lap``.

    Small arrays are checked whole.  Larger ones are checked on the blocks
    of ``split``, which is exact because ``lap`` vanishes off the inside
    nodes and the pairing residual counts every entry off the blocks.
    """
    scale = max(1.0, float(np.abs(lap).max(initial=0.0)))
    weighted = left * masses[:, None]
    if right.size < _BLOCKS_FROM:
        cols, sums = slice(None), unity.sum(axis=1)
    else:
        # the reach columns vanish off the inside rows; lap annihilates the others
        cols = split.reaches
        sums = np.concatenate([split.core(unity).sum(axis=1), split.diagonal(unity)])
    residuals = {
        "right": float(np.abs(lap @ right[:, cols]).max(initial=0.0)) / scale,
        "left": float(np.abs(weighted[:, cols].T @ lap).max(initial=0.0)) / scale,
        "unity": float(np.abs(sums - 1.0).max(initial=0.0)),
        "pairing and off-block entries": split.pairing_residual(weighted, right),
    }
    require(KernelDefect, "kernel basis", TOL_DEFECT, residuals)


def _check_graph(graph: Graph, cluster_set: ClusterSet) -> None:
    if cluster_set.graph != graph:
        raise ClusterViolation("the cluster set was built on another graph")


def kernels_in(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """Kernel basis of the in-degree Laplacian of the cluster subgraph."""
    _check_graph(graph, cluster_set)
    sub = cluster_set.subgraph()
    dec = cluster_set.decomposition
    index = {v: k for k, v in enumerate(graph.nodes)}
    lap = laplacian(sub, "in")
    right = _indicator_vectors(lap, dec, index)
    left = _tree_vectors(sub, dec, index)
    split = _split(graph, dec)
    _check_basis(lap, graph.masses, right, left, right, split)
    return KernelBasis("in", graph, cluster_set, dec, right, left, split)


def kernels_out(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """Kernel basis of the out-degree Laplacian of the cluster subgraph.

    Built on the transposed subgraph: its tree vectors are right kernel
    vectors here and its indicator vectors are left kernel vectors, by the
    mass-adjoint duality between the two Laplacian orientations.
    """
    _check_graph(graph, cluster_set)
    sub = cluster_set.subgraph()
    sub_t = transpose(sub)
    dec = reaches(sub_t)
    index = {v: k for k, v in enumerate(graph.nodes)}
    lap_t = laplacian(sub_t, "in")
    right = _tree_vectors(sub_t, dec, index)
    left = _indicator_vectors(lap_t, dec, index)
    split = _split(graph, dec)
    lap = laplacian(sub, "out")
    _check_basis(lap, graph.masses, right, left, left, split)
    return KernelBasis("out", graph, cluster_set, dec, right, left, split)


def kernels_undirected(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """In-degree kernel basis of a symmetric cluster subgraph, in closed form.

    The caller checks that the cluster set is undirected-mode and the
    weights symmetric.  Right vectors are the component indicators, left
    vectors the indicators divided by the component mass; exact by
    construction, so the residual check of the directed builders is
    skipped.
    """
    _check_graph(graph, cluster_set)
    dec = cluster_set.decomposition
    component = {v: col for col, reach in enumerate(dec) for v in reach.nodes}
    right = np.zeros((graph.n, len(dec)))
    right[np.arange(graph.n), [component[v] for v in graph.nodes]] = 1.0
    left = right / (right.T @ graph.masses)
    return KernelBasis("in", graph, cluster_set, dec, right, left, _split(graph, dec))


def riesz_from_kernels(basis: KernelBasis) -> np.ndarray:
    """Spectral projector assembled from a biorthogonal kernel basis."""
    core, diagonal = projector_blocks(basis)
    split = basis.split
    proj = np.zeros((basis.graph.n, basis.graph.n))
    proj[np.ix_(split.inside, split.inside)] = core
    proj[split.outside, split.outside] = diagonal
    return proj


def projector_blocks(basis: KernelBasis) -> tuple[np.ndarray, np.ndarray]:
    """The projector on the inside nodes, and its outside diagonal.

    The projector is zero elsewhere, so the gate (idempotency, annihilation
    of the cluster Laplacian on both sides, rank) is taken on the two
    blocks, after checking that no basis entry lies off them.
    """
    split = basis.split
    r_core, r_diag, r_stray = split.blocks(basis.right)
    w_core, w_diag, w_stray = split.blocks(basis.left * basis.graph.masses[:, None])
    core, diagonal = r_core @ w_core.T, r_diag * w_diag
    lap = basis.cluster_block
    scale = max(1.0, _largest(core, diagonal))
    idem = _largest(core @ core - core, diagonal * diagonal - diagonal) / scale
    annih = _largest(core @ lap, lap @ core) / (max(1.0, _largest(lap)) * scale)
    rank_resid = abs(float(np.trace(core) + diagonal.sum()) - basis.size)
    residuals = {"idempotency": idem, "annihilation": annih, "rank": rank_resid,
                 "off-block entries": r_stray + w_stray}
    require(ProjectorDefect, "projector", TOL_DEFECT, residuals)
    return core, diagonal


def _largest(*arrays: np.ndarray) -> float:
    """Largest absolute entry over the arrays; NaN when any entry is."""
    out = 0.0
    for a in arrays:
        out = np.maximum(out, np.abs(a).max(initial=0.0))
    return float(out)

