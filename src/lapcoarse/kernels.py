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
accurate at any weight scale.  Two slower routes are kept as oracles:
explicit enumeration of spanning out-trees (exponential, guarded) and
diagonal cofactors of the reach-restricted matrix (matrix-tree route).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from .numerics import ENUMERATION_LIMIT, TOL_DEFECT, solve

__all__ = [
    "KernelBasis",
    "kernels_in",
    "kernels_out",
    "left_kernel_in",
    "right_kernel_in",
    "weight_vector_bruteforce",
    "weight_vector_matrix",
]


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
        return laplacian(self.cluster_set.subgraph(), self.kind).matrix[inside[:, None], inside]

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
    lap: np.ndarray,
    masses: np.ndarray,
    right: np.ndarray,
    left: np.ndarray,
    unity: np.ndarray,
    split: ClusterSplit,
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
    right_resid = float(np.abs(lap @ right[:, cols]).max(initial=0.0))
    left_resid = float(np.abs(weighted[:, cols].T @ lap).max(initial=0.0))
    unity_resid = float(np.abs(sums - 1.0).max(initial=0.0))
    pair_resid = split.pairing_residual(weighted, right)
    worst = float(
        np.array([right_resid / scale, left_resid / scale, unity_resid, pair_resid]).max()
    )
    if not worst <= TOL_DEFECT:
        raise KernelDefect(
            "kernel basis residual {:.3e} exceeds {:.1e} (right {:.3e}, "
            "left {:.3e}, unity {:.3e}, pairing and off-block entries {:.3e})".format(
                worst, TOL_DEFECT, right_resid, left_resid, unity_resid, pair_resid
            )
        )


def kernels_in(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """Kernel basis of the in-degree Laplacian of the cluster subgraph."""
    sub = cluster_set.subgraph()
    dec = cluster_set.decomposition
    index = {v: k for k, v in enumerate(graph.nodes)}
    lap = laplacian(sub, "in").matrix
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
    sub = cluster_set.subgraph()
    sub_t = transpose(sub)
    dec = reaches(sub_t)
    index = {v: k for k, v in enumerate(graph.nodes)}
    lap_t = laplacian(sub_t, "in").matrix
    right = _tree_vectors(sub_t, dec, index)
    left = _indicator_vectors(lap_t, dec, index)
    split = _split(graph, dec)
    lap = laplacian(sub, "out").matrix
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
    dec = cluster_set.decomposition
    component = {v: col for col, reach in enumerate(dec) for v in reach.nodes}
    right = np.zeros((graph.n, len(dec)))
    right[np.arange(graph.n), [component[v] for v in graph.nodes]] = 1.0
    left = right / (right.T @ graph.masses)
    return KernelBasis("in", graph, cluster_set, dec, right, left, _split(graph, dec))


def right_kernel_in(graph: Graph, cluster_set: ClusterSet) -> tuple[np.ndarray, ...]:
    """Right kernel vectors of the in-degree cluster Laplacian, one per reach."""
    basis = kernels_in(graph, cluster_set)
    return tuple(basis.right[:, k] for k in range(basis.size))


def left_kernel_in(graph: Graph, cluster_set: ClusterSet) -> tuple[np.ndarray, ...]:
    """Left kernel vectors (mass pairing), one per reach, cabal-supported."""
    basis = kernels_in(graph, cluster_set)
    return tuple(basis.left[:, k] for k in range(basis.size))
