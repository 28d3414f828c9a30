"""Kernel bases of cluster-subgraph Laplacians.

For a subset of edges organized as a cluster set, the in-degree Laplacian
of the cluster subgraph has kernel dimension equal to the number of
reaches.  This module builds two distinguished bases of that kernel and of
the corresponding left kernel (with respect to the mass inner product):

* right vectors: 1 on the exclusive part of a reach, 0 off the reach, and
  the unique interpolating values on the common part;
* left vectors: spanning-out-tree weight vectors supported on the cabal,
  normalized to unit mass pairing.

The two families are biorthogonal and the right family is a partition of
unity.  Out-degree kernels are obtained from the same machinery applied to
the transposed subgraph, with the roles of the two families exchanged.

The weight vector of a reach is supported on its cabal.  By the Markov
chain tree theorem it spans the left null space of the cabal's restricted
matrix diag(in-weights) - W, and the kernel bases compute it as that null
vector by GTH elimination (Grassmann, Taksar and Heyman 1985): O(k^3)
operations on k cabal nodes, free of subtraction and so componentwise
accurate at any weight scale.  Two slower routes are kept as oracles:
explicit enumeration of spanning out-trees (exponential, guarded) and
diagonal cofactors of the reach-restricted matrix (matrix-tree route).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .connectivity import ClusterSet, ReachDecomposition, reaches
from .errors import (
    KernelDefect,
    ReachTooLargeForEnumeration,
    SingularCommonBlock,
    SingularMatrix,
)
from .graph import Graph, Kind, laplacian, transpose
from .numerics import ENUMERATION_LIMIT, solve

__all__ = [
    "KernelBasis",
    "kernels_in",
    "kernels_out",
    "left_kernel_in",
    "right_kernel_in",
    "weight_vector_bruteforce",
    "weight_vector_matrix",
]

_DEFECT_TOL = 1e-7


def _restricted_weights(graph: Graph, nodes: Iterable[str]):
    order = sorted(nodes)
    if not order:
        raise ValueError("node subset is empty")
    idx = [graph.index(v) for v in order]
    sub = graph.weights[np.ix_(idx, idx)].copy()
    np.fill_diagonal(sub, 0.0)
    return order, sub


def weight_vector_bruteforce(graph: Graph, nodes: Iterable[str]) -> dict[str, float]:
    """Spanning-out-tree weights by explicit enumeration.

    For each node r of the subset, sums the products of edge weights over
    all spanning trees of the induced subgraph whose edges are all drawn
    away from r.  Exact integer-combinatorial semantics: a node with no
    spanning out-tree gets exactly 0.0.  Guarded by the enumeration size
    limit; intended for cross-checking the matrix route on small reaches.
    """
    order, W = _restricted_weights(graph, nodes)
    k = len(order)
    if k > ENUMERATION_LIMIT:
        raise ReachTooLargeForEnumeration(
            f"{k} nodes exceed the enumeration limit of {ENUMERATION_LIMIT}"
        )
    return {order[r]: float(_tree_sum(W, r)) for r in range(k)}


def _tree_sum(W: np.ndarray, root: int) -> float:
    """Total weight of spanning out-trees rooted at ``root``.

    Every non-root node picks one incoming drawn edge; a choice is a tree
    iff it is acyclic.  Nodes are processed fewest-candidates-first and a
    partial choice is abandoned as soon as it closes a cycle, which keeps
    the search tractable on the sparse reaches this is meant for.
    """
    k = W.shape[0]
    cands: list[tuple[int, list[tuple[int, float]]]] = []
    for v in range(k):
        if v == root:
            continue
        row = [(u, W[v, u]) for u in range(k) if u != v and W[v, u] > 0.0]
        if not row:
            return 0.0
        cands.append((v, row))
    cands.sort(key=lambda item: len(item[1]))
    parent: dict[int, int | None] = {root: None}
    total = 0.0

    def assign(pos: int, prod: float) -> None:
        nonlocal total
        if pos == len(cands):
            total += prod
            return
        v, row = cands[pos]
        for u, w in row:
            x: int | None = u
            closes_cycle = False
            while x is not None:
                if x == v:
                    closes_cycle = True
                    break
                x = parent.get(x)
            if closes_cycle:
                continue
            parent[v] = u
            assign(pos + 1, prod * w)
            del parent[v]

    assign(0, 1.0)
    return total


def weight_vector_matrix(graph: Graph, nodes: Iterable[str]) -> dict[str, float]:
    """Spanning-out-tree weights as diagonal cofactors.

    Builds the matrix diag(internal in-weights) minus internal weights on
    the induced subgraph and returns, per node, the determinant of the
    matrix with that node's row and column deleted.  O(k^4), and the
    determinants overflow on large heavy reaches; an oracle for the GTH
    route of the kernel bases.
    """
    order, W = _restricted_weights(graph, nodes)
    B = np.diag(W.sum(axis=1)) - W
    k = len(order)
    out: dict[str, float] = {}
    for r in range(k):
        keep = [i for i in range(k) if i != r]
        minor = B[np.ix_(keep, keep)]
        out[order[r]] = float(np.linalg.det(minor)) if keep else 1.0
    return out


@dataclass(frozen=True)
class KernelBasis:
    """Right and left kernel families of a cluster-subgraph Laplacian.

    Columns of ``right`` and ``left`` are indexed by the reaches of
    ``decomposition`` (for the out kind, the reaches of the transposed
    cluster subgraph).  Vectors live on the parent graph's node order.
    """

    kind: Kind
    graph: Graph
    cluster_set: ClusterSet
    decomposition: ReachDecomposition
    right: np.ndarray
    left: np.ndarray

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
    n = matrix.shape[0]
    cols = []
    for reach in dec:
        vec = np.zeros(n)
        H = [index[v] for v in sorted(reach.exclusive)]
        C = [index[v] for v in sorted(reach.common)]
        vec[H] = 1.0
        if C:
            # dividing each row by the block's diagonal leaves the solution
            # unchanged and keeps the pivots independent of the weight scale
            diag = np.diagonal(matrix)[C, np.newaxis]
            rhs = -(matrix[np.ix_(C, H)] / diag) @ np.ones(len(H))
            try:
                vec[C] = solve(matrix[np.ix_(C, C)] / diag, rhs)
            except SingularMatrix as exc:
                raise SingularCommonBlock(
                    f"common block of reach {reach.label!r} is singular"
                ) from exc
        cols.append(vec)
    return np.column_stack(cols)


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


def _tree_vectors(sub: Graph, dec: ReachDecomposition) -> np.ndarray:
    """Columns of cabal tree weight vectors, each normalized to unit mass sum."""
    n = sub.n
    cols = []
    for reach in dec:
        order, W = _restricted_weights(sub, reach.cabal)
        vec = np.zeros(n)
        vec[[sub.index(v) for v in order]] = _gth_null_vector(W)
        total = float(vec @ sub.masses)
        if not total > 0.0:
            raise KernelDefect(
                f"tree weight vector of reach {reach.label!r} has non-positive "
                f"mass sum {total!r}"
            )
        cols.append(vec / total)
    return np.column_stack(cols)


def _check_basis(
    lap: np.ndarray,
    masses: np.ndarray,
    right: np.ndarray,
    left: np.ndarray,
    unity: np.ndarray,
) -> None:
    scale = max(1.0, float(np.abs(lap).max()))
    right_resid = float(np.abs(lap @ right).max())
    left_resid = float(np.abs((left * masses[:, None]).T @ lap).max())
    unity_resid = float(np.abs(unity.sum(axis=1) - 1.0).max())
    pair = (left * masses[:, None]).T @ right
    pair_resid = float(np.abs(pair - np.eye(pair.shape[0])).max())
    worst = float(
        np.max([right_resid / scale, left_resid / scale, unity_resid, pair_resid])
    )
    if not worst <= _DEFECT_TOL:
        raise KernelDefect(
            "kernel basis residual {:.3e} exceeds {:.1e} (right {:.3e}, "
            "left {:.3e}, unity {:.3e}, pairing {:.3e})".format(
                worst, _DEFECT_TOL, right_resid, left_resid, unity_resid, pair_resid
            )
        )


def kernels_in(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """Kernel basis of the in-degree Laplacian of the cluster subgraph."""
    sub = cluster_set.subgraph()
    dec = cluster_set.decomposition
    index = {v: k for k, v in enumerate(graph.nodes)}
    lap = laplacian(sub, "in").matrix
    right = _indicator_vectors(lap, dec, index)
    left = _tree_vectors(sub, dec)
    _check_basis(lap, graph.masses, right, left, right)
    return KernelBasis("in", graph, cluster_set, dec, right, left)


def kernels_out(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """Kernel basis of the out-degree Laplacian of the cluster subgraph.

    Built on the transposed subgraph: its tree vectors are right kernel
    vectors here and its indicator vectors are left kernel vectors, by the
    mass-adjoint duality between the two Laplacian orientations.
    """
    sub = cluster_set.subgraph()
    sub_t = transpose(sub)
    dec = reaches(sub_t)
    index = {v: k for k, v in enumerate(graph.nodes)}
    lap_t = laplacian(sub_t, "in").matrix
    right = _tree_vectors(sub_t, dec)
    left = _indicator_vectors(lap_t, dec, index)
    _check_basis(laplacian(sub, "out").matrix, graph.masses, right, left, left)
    return KernelBasis("out", graph, cluster_set, dec, right, left)


def right_kernel_in(graph: Graph, cluster_set: ClusterSet) -> tuple[np.ndarray, ...]:
    """Right kernel vectors of the in-degree cluster Laplacian, one per reach."""
    basis = kernels_in(graph, cluster_set)
    return tuple(basis.right[:, k] for k in range(basis.size))


def left_kernel_in(graph: Graph, cluster_set: ClusterSet) -> tuple[np.ndarray, ...]:
    """Left kernel vectors (mass pairing), one per reach, cabal-supported."""
    basis = kernels_in(graph, cluster_set)
    return tuple(basis.left[:, k] for k in range(basis.size))
