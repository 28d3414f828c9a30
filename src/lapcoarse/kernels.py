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
  subgraph, with the roles of the two families exchanged.  Its reaches
  are the cluster set's transposed decomposition, and its weights the
  transpose of the p x p block below.
* :func:`kernels_undirected`: the in-degree basis of a symmetric cluster
  edge set in closed form.  Its reaches are connected components, the
  right vectors are their indicators and, since symmetric weights make
  every tree weight vector constant on its component, the left vectors
  are the indicators divided by the component mass.

Every reach with more than one node lies on the cluster nodes (those that
touch a cluster edge), and every other node is a one-node reach of its
own.  So a basis is zero off two blocks, recorded in a
:class:`ClusterSplit`: the cluster nodes against the reaches on them, and
the diagonal of the outside nodes against their own reaches.  This is the
nearly decomposable structure of Courtois (1977).  The builders read the
graph only by blocks: the cluster cells (``ClusterSet.cells``) are
scattered into the p x p weights of the p cluster nodes, and the cluster
Laplacian there (:attr:`KernelBasis.cluster_block`) is those weights over
the inside masses; it vanishes off that block.  The basis gate multiplies
the block by the p x k cores of the k reaches on the cluster nodes.  From
10^4 entries on, the pairing of the two families and the products built
on a basis also work on the two blocks, at O(n^2 k) for the cores and
elementwise on the outside diagonal, where whole arrays cost O(n^2 K) for
all K reduced nodes.  Only ``right`` and ``left`` themselves are dense
n x K arrays.

The weight vector of a reach is supported on its cabal.  By the Markov
chain tree theorem it spans the left null space of the cabal's restricted
matrix diag(in-weights) - W, and the directed builders compute it as that
null vector by GTH elimination (Grassmann, Taksar and Heyman 1985): O(k^3)
operations on k cabal nodes, free of subtraction and so componentwise
accurate at any weight scale.  Nodes are censored last to first in panels
of 32, as in the block GTH of Stewart (1994): each node is first brought
up to date with the nodes of its panel censored before it, and one matrix
product per panel updates all earlier nodes.  Every term stays a sum of
products of nonnegative numbers, and BLAS does most of the work: on one
BLAS thread of a 2-CPU machine a 400-node cabal took 6 to 10 ms, against
62 to 81 ms for one rank-1 update per node.  The tests check it against
three slower routes kept in ``tests/oracles.py``: that node-by-node
elimination, explicit enumeration of spanning out-trees and diagonal
cofactors of the reach-restricted matrix.

A cabal whose restricted weights equal their transpose exactly skips the
elimination and gets the constant vector, normalized by the cabal's mass,
as in :func:`kernels_undirected`.  Proof: W = W^T gives
1^T (diag(W 1) - W) = (W 1)^T - (W^T 1)^T = 0, and a strongly connected
cabal's null space is one-dimensional.  The basis gate checks it as it
checks every other.

The Riesz projector onto the kernel multiplies out the biorthogonal pairs,
P = sum_R (right_R)(left_R * m)^T.  It annihilates the cluster Laplacian on
both sides and its rank is the number of reaches; a gate checks both, with
idempotency, on the two blocks.  The tests compare it with a contour
integral of the resolvent, kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connectivity import ClusterSet, ReachDecomposition
from .errors import (
    ClusterViolation, KernelDefect, ProjectorDefect, SingularCommonBlock, SingularMatrix,
)
from .graph import Graph, Kind, _laplacian
from .numerics import TOL_DEFECT, require, solve

__all__ = ["KernelBasis", "kernels_in", "kernels_out", "riesz_from_kernels"]


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
        # one gather, where two takes cost several times more on the
        # column-major arrays a transpose or a column permutation gives
        return vectors[np.ix_(self.inside, self.reaches)]

    def diagonal(self, vectors: np.ndarray) -> np.ndarray:
        return vectors[self.outside, self.singles]

    def blocks(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Core and diagonal of an n x K array, and its nonzero (or NaN) entries off them."""
        core, diagonal = self.core(vectors), self.diagonal(vectors)
        on = np.count_nonzero(core) + np.count_nonzero(diagonal)
        return core, diagonal, int(np.count_nonzero(vectors) - on)

    @cached_property
    def whole(self) -> bool:
        """True when the n x K arrays are small enough to be multiplied whole."""
        return len(self.nodes) * len(self.parts) < _BLOCKS_FROM

    def sandwich(
        self, x: np.ndarray, matrix, y: np.ndarray, order: list[int]
    ) -> np.ndarray:
        """``x.T @ matrix @ y`` for n x K arrays ``x`` and ``y`` split this way.

        ``matrix`` is the n x n array when the arrays are :attr:`whole`, and
        otherwise the pair of its inside rows and its outside rows.  The
        result's rows and columns are those of ``x`` and ``y`` in ``order``.
        """
        if self.whole:
            return (x.T @ matrix @ y).take(order, axis=0).take(order, axis=1)
        top, below = matrix
        r, s, o = self.reaches, self.singles, self.outside
        # each column's place in the result, and the outside node of each
        # one-node reach by its place; the reach columns are filled in after
        at = np.empty(len(order), dtype=int)
        at[order] = np.arange(len(order))
        at_r, at_s = at[r], at[s]
        cols = np.zeros(len(order), dtype=int)
        cols[at_s] = o
        yo = np.zeros(len(order))
        yo[at_s] = y[o, s]
        # the reach columns, zero off the inside rows, are multiplied whole
        xo, yr = x[o, s][:, None], y[:, r]
        top = self.core(x).T @ top
        out = np.empty((x.shape[1], y.shape[1]), dtype=np.result_type(x, top, below, y))
        # gathered straight into the result's column order, then scaled in place
        rows = top.take(cols, axis=1)
        rows *= yo
        rows[:, at_r] = top @ yr
        out[at_r] = rows
        rows = below.take(cols, axis=1)
        rows *= xo
        rows *= yo
        rows[:, at_r] = xo * (below @ yr)
        out[at_s] = rows
        return out

    def pairing_residual(self, x: np.ndarray, y: np.ndarray) -> float:
        """Largest entry of ``|x.T @ y - I|`` for n x K arrays split this way.

        On the blocks, each nonzero (or NaN) entry of ``x`` or ``y`` off
        them adds 1, so that no array the whole product would reject passes.
        """
        if self.whole:
            return float(np.abs(x.T @ y - np.eye(x.shape[1])).max(initial=0.0))
        (x_core, x_diag, x_off), (y_core, y_diag, y_off) = self.blocks(x), self.blocks(y)
        core = x_core.T @ y_core
        core.flat[:: len(core) + 1] -= 1.0
        diagonal = x_diag * y_diag - 1.0
        resid = np.maximum(np.abs(core).max(initial=0.0), np.abs(diagonal).max(initial=0.0))
        return float(resid) + x_off + y_off

    def permuted(self, perm: list[int]) -> ClusterSplit:
        """The split of the same arrays with column j moved from ``perm[j]``."""
        if perm == sorted(perm):
            return self
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
    ``split`` gives their two blocks.  :attr:`cluster_block`, which the
    harness reads, is built from the cluster cells on first read and kept.
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
        """The cluster Laplacian of ``kind`` on the inside nodes, where it is nonzero.

        Built from the cluster cells on first read, like the builders' own.
        """
        weights = _cluster_weights(self.cluster_set, self.split.inside)
        return _cluster_laplacian(weights, self.graph, self.split.inside, self.kind)

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


def _cluster_weights(cluster_set: ClusterSet, inside: np.ndarray) -> np.ndarray:
    """The cluster subgraph's weights on the ascending ``inside`` nodes, scattered from its cells."""
    rows, cols = cluster_set.cells
    block = np.zeros((len(inside), len(inside)))
    block[np.searchsorted(inside, rows), np.searchsorted(inside, cols)] = (
        cluster_set.graph.weights[rows, cols])
    return block


def _row_sums(block: np.ndarray, inside: np.ndarray, n: int) -> np.ndarray:
    """Row sums of the ``inside`` block of an n x n array that is zero off it.

    A row of at most two nonzero entries sums to the same value in any
    order.  A wider one is summed over its n entries, as ``graph.degrees``
    sums a whole array's rows, so a block Laplacian equals the whole one's
    block to the bit.
    """
    sums = block.sum(axis=1)
    wide = np.flatnonzero(np.count_nonzero(block, axis=1) > 2)
    if wide.size:
        rows = np.zeros((wide.size, n))
        rows[:, inside] = block[wide]
        sums[wide] = rows.sum(axis=1)
    return sums


def _cluster_laplacian(
    weights: np.ndarray, graph: Graph, inside: np.ndarray, kind: Kind
) -> np.ndarray:
    """``laplacian`` of ``kind`` on the ``inside`` block, from that block's ``weights``."""
    # numpy adds the rows of a C-ordered array in turn for its column sums,
    # so the zero rows off the block change none of them
    deg = _row_sums(weights, inside, graph.n) if kind == "in" else weights.sum(axis=0)
    return _laplacian(weights, graph.masses[inside], deg)


def _indicator_vectors(
    block: np.ndarray, dec: ReachDecomposition, index: dict[str, int], inside: np.ndarray
) -> np.ndarray:
    """Columns equal to 1 on exclusive parts, solved on common parts.

    ``block`` is the Laplacian on the ascending ``inside`` nodes, and
    ``index`` gives each node's row of the result.
    """
    out = np.zeros((len(index), len(dec)))
    for col, reach in enumerate(dec):
        if len(reach.nodes) == 1:
            continue
        H = [index[v] for v in sorted(reach.exclusive)]
        C = [index[v] for v in sorted(reach.common)]
        out[H, col] = 1.0
        if C:
            h, c = np.searchsorted(inside, H), np.searchsorted(inside, C)
            # dividing each row by the block's diagonal leaves the solution
            # unchanged and keeps the pivots independent of the weight scale
            diag = np.diagonal(block)[c, np.newaxis]
            rhs = -(block[np.ix_(c, h)] / diag) @ np.ones(len(H))
            try:
                out[C, col] = solve(block[np.ix_(c, c)] / diag, rhs)
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


# Nodes censored per panel of the GTH elimination.  On one BLAS thread,
# widths 24 to 64 took about the same time on 100- to 400-node cabals, and
# 8 and 16 up to 1.5 times longer: narrow panels leave more of the work to
# the per-node matrix-vector products, which wide panels make longer.
_GTH_PANEL = 32


def _gth_null_vector(W: np.ndarray) -> np.ndarray:
    """Left null vector of diag(W.sum(axis=1)) - W, with entry 0 equal to 1.

    ``W`` holds the nonnegative off-diagonal weights of a strongly
    connected subgraph.  The backward pass censors nodes from last to
    first in panels of ``_GTH_PANEL``.  Inside a panel, a node's row and
    column are first brought up to date with the panel nodes already
    censored (two matrix-vector products, skipped for the panel's first
    node), and its column is divided by its exit sum; after the panel, one
    product applies it to every earlier row and column.  Each entry gains
    the same nonnegative products as in censoring one node at a time with
    a rank-1 update, summed in another order, and each exit sum is taken
    from the weights instead of from a diagonal, so no step subtracts.
    The forward pass then reads the null vector off column by column.
    """
    A = W.copy()
    for hi in range(A.shape[0], 1, -_GTH_PANEL):
        lo = max(hi - _GTH_PANEL, 1)
        for j in range(hi - 1, lo - 1, -1):
            if j + 1 < hi:
                done = slice(j + 1, hi)
                A[j, :j] += A[j, done] @ A[done, :j]
                A[:j, j] += A[:j, done] @ A[done, j]
            A[:j, j] /= A[j, :j].sum()
        if lo > 1:
            A[:lo, :lo] += A[:lo, lo:hi] @ A[lo:hi, :lo]
    omega = np.zeros(A.shape[0])
    omega[0] = 1.0
    for j in range(1, A.shape[0]):
        omega[j] = omega[:j] @ A[:j, j]
    return omega


def _tree_vectors(
    weights: np.ndarray, masses: np.ndarray, dec: ReachDecomposition,
    index: dict[str, int], inside: np.ndarray,
) -> np.ndarray:
    """Columns of cabal tree weight vectors, each normalized to unit mass sum.

    ``weights`` are the subgraph's weights on the ascending ``inside``
    nodes, and ``index`` gives each node's row of the result.
    """
    out = np.zeros((len(masses), len(dec)))
    for col, reach in enumerate(dec):
        if len(reach.cabal) == 1:
            continue
        idx = [index[v] for v in sorted(reach.cabal)]
        local = np.searchsorted(inside, idx)
        W = weights[np.ix_(local, local)]
        vec = np.zeros(len(masses))
        # symmetric weights make every node's tree weight the same
        vec[idx] = 1.0 if np.array_equal(W, W.T) else _gth_null_vector(W)
        total = float(vec @ masses)
        if not total > 0.0:
            raise KernelDefect(
                f"tree weight vector of reach {reach.label!r} has non-positive "
                f"mass sum {total!r}"
            )
        out[:, col] = vec / total
    # a one-node cabal's vector is that node's indicator over its mass
    cols, rows = _one_node_columns([reach.cabal for reach in dec], index)
    out[rows, cols] = 1.0 / masses[rows]
    return out


def _check_basis(
    block: np.ndarray, masses: np.ndarray, right: np.ndarray, left: np.ndarray,
    unity: np.ndarray, split: ClusterSplit,
) -> None:
    """Raise KernelDefect unless ``right`` and ``left`` pair into a kernel basis.

    ``block`` is the cluster Laplacian on the inside nodes of ``split``.
    It vanishes elsewhere, so only the inside rows of ``right`` and
    ``left`` meet it.  Small arrays are checked whole on those rows.
    Larger ones are checked on the blocks: the block annihilates the
    one-node reaches' columns, so it multiplies the cores only, and the
    pairing residual counts every entry off the blocks.
    """
    # scaled before the products, which overflow on extreme masses otherwise
    block = block / max(1.0, float(np.abs(block).max(initial=0.0)))
    weighted = left * masses[:, None]
    if split.whole:
        sums = unity.sum(axis=1)
        right_in, weighted_in = right[split.inside], weighted[split.inside]
    else:
        sums = np.concatenate([split.core(unity).sum(axis=1), split.diagonal(unity)])
        right_in, weighted_in = split.core(right), split.core(weighted)
    residuals = {
        "right": float(np.abs(block @ right_in).max(initial=0.0)),
        "left": float(np.abs(weighted_in.T @ block).max(initial=0.0)),
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
    dec = cluster_set.decomposition
    index = {v: k for k, v in enumerate(graph.nodes)}
    split = _split(graph, dec)
    inside = split.inside
    weights = _cluster_weights(cluster_set, inside)
    block = _cluster_laplacian(weights, graph, inside, "in")
    right = _indicator_vectors(block, dec, index, inside)
    left = _tree_vectors(weights, graph.masses, dec, index, inside)
    _check_basis(block, graph.masses, right, left, right, split)
    return KernelBasis("in", graph, cluster_set, dec, right, left, split)


def kernels_out(graph: Graph, cluster_set: ClusterSet) -> KernelBasis:
    """Kernel basis of the out-degree Laplacian of the cluster subgraph.

    Built on the transposed subgraph: its tree vectors are right kernel
    vectors here and its indicator vectors are left kernel vectors, by the
    mass-adjoint duality between the two Laplacian orientations.  Its
    weights are the transposed p x p block and its reaches the cluster
    set's :attr:`~ClusterSet.transposed_decomposition`.
    """
    _check_graph(graph, cluster_set)
    dec = cluster_set.transposed_decomposition
    index = {v: k for k, v in enumerate(graph.nodes)}
    split = _split(graph, dec)
    inside = split.inside
    weights = _cluster_weights(cluster_set, inside)
    transposed = np.ascontiguousarray(weights.T)
    right = _tree_vectors(transposed, graph.masses, dec, index, inside)
    left = _indicator_vectors(
        _cluster_laplacian(transposed, graph, inside, "in"), dec, index, inside)
    block = _cluster_laplacian(weights, graph, inside, "out")
    _check_basis(block, graph.masses, right, left, left, split)
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

