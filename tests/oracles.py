"""Slow or independent routes that the tests check the package against.

The package needs none of these.  Each recomputes something the package
computes another way (spanning-tree weights by enumeration and cofactors,
the Riesz projector by a contour integral, null spaces by SVD, components
by union-find, Laplacians by the plain three-pass formula), or builds an
input the package never forms itself (scaled and matrix-built graphs).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from lapcoarse import build_cluster_set, is_undirected, kernels_in, kernels_out, laplacian, transpose
from lapcoarse.errors import (
    InvariantViolation,
    NonPositiveMass,
    NonPositiveWeight,
    NotUndirected,
    ProjectorDefect,
    UnknownEndpoint,
    ValidationError,
)
from lapcoarse.graph import Graph, degrees
from lapcoarse.kernels import _restricted_weights
from lapcoarse.kernels import riesz_from_kernels

EPS = np.finfo(float).eps
TOL_IMAG_RESIDUE = 1e-9      # allowed imaginary part when realifying a contour integral
SPECTRAL_COLLAPSE = 1e-12    # below this, "0 is isolated" is numerically meaningless
CONTOUR_POINTS = 256
ENUMERATION_LIMIT = 12       # max reach size for brute-force tree enumeration


class ReachTooLargeForEnumeration(ValidationError):
    pass


class SpectralGapCollapse(InvariantViolation):
    """No usable isolated eigenvalue at 0 (min nonzero |lambda| ~ 0)."""


# -- graphs ------------------------------------------------------------------------


def from_weight_matrix(nodes: tuple[str, ...], masses, weights) -> Graph:
    """Build a Graph from an already-indexed weight matrix."""
    w = np.array(weights, dtype=float)
    m = np.array(masses, dtype=float)
    if np.any(m <= 0):
        raise NonPositiveMass("all node masses must be strictly positive")
    if np.any(w < 0):
        raise NonPositiveWeight("weight matrix has negative entries")
    return Graph(tuple(nodes), m, w)


def scale_edges(graph: Graph, pairs: Iterable[tuple[str, str]], factor: float) -> Graph:
    """Multiply the weights of the given drawn edges by ``factor``."""
    if not (factor > 0) or not np.isfinite(factor):
        raise NonPositiveWeight(f"scale factor must be positive, got {factor!r}")
    weights = graph.weights.copy()
    for src, dst in pairs:
        i, j = graph.index(dst), graph.index(src)
        if weights[i, j] <= 0.0:
            raise UnknownEndpoint(f"({src!r}, {dst!r}) is not an edge of the graph")
        weights[i, j] *= factor
    return Graph(graph.nodes, graph.masses.copy(), weights)


def laplacian_three_pass(graph: Graph, kind: str) -> np.ndarray:
    """``(diag(deg) - W) / m`` with the n x n diagonal matrix formed."""
    return (np.diag(degrees(graph, kind)) - graph.weights) / graph.masses[:, np.newaxis]


def dirichlet_form(graph: Graph, f) -> float:
    """Energy ``1/2 sum_(i,j) a(i,j) |f(i) - f(j)|^2`` of an undirected graph.

    Because undirected graphs store each edge in both orientations, the
    half factor makes the value coincide exactly with ``<f, L f>`` in the
    mass-weighted inner product.
    """
    if not is_undirected(graph):
        raise NotUndirected("Dirichlet form requires an undirected graph")
    vec = np.asarray(f)
    diff = vec[:, np.newaxis] - vec[np.newaxis, :]
    return float(0.5 * np.sum(graph.weights * np.abs(diff) ** 2))


# -- connectivity ------------------------------------------------------------------


def reachable_set(graph: Graph, node: str) -> frozenset[str]:
    """All nodes reachable from ``node`` along drawn arrows, itself included."""
    start = graph.index(node)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        # the drawn arrows out of x are the nonzero entries of column x
        for y in np.flatnonzero(graph.weights[:, x]).tolist():
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(graph.nodes[k] for k in seen)


def components_by_union_find(
    graph: Graph, pairs: Iterable[tuple[str, str]] | None = None
) -> tuple[frozenset[str], ...]:
    """Components of the node set joined by ``pairs`` (default: every edge).

    Singletons are included; components are sorted by smallest member.
    """
    if pairs is None:
        pairs = graph.edge_pairs()
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst in pairs:
        a, b = find(graph.index(src)), find(graph.index(dst))
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, set[str]] = {}
    for k, v in enumerate(graph.nodes):
        groups.setdefault(find(k), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def transpose_cluster_set(cluster_set):
    """Cluster set of the transposed graph with every edge reversed."""
    reversed_edges = [(d, s) for s, d in cluster_set.total_edges]
    return build_cluster_set(
        transpose(cluster_set.graph), reversed_edges, cluster_set.mode
    )


# -- spanning-tree weight vectors ----------------------------------------------------


def weight_vector_bruteforce(graph: Graph, nodes: Iterable[str]) -> dict[str, float]:
    """Spanning-out-tree weights by explicit enumeration.

    For each node r of the subset, sums the products of edge weights over
    all spanning trees of the induced subgraph whose edges are all drawn
    away from r.  Exact integer-combinatorial semantics: a node with no
    spanning out-tree gets exactly 0.0.  Guarded by the enumeration size
    limit.
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
    determinants overflow on large heavy reaches.
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


# -- kernels and projectors ----------------------------------------------------------


def right_kernel_in(graph: Graph, cluster_set) -> tuple[np.ndarray, ...]:
    """Right kernel vectors of the in-degree cluster Laplacian, one per reach."""
    basis = kernels_in(graph, cluster_set)
    return tuple(basis.right[:, k] for k in range(basis.size))


def left_kernel_in(graph: Graph, cluster_set) -> tuple[np.ndarray, ...]:
    """Left kernel vectors (mass pairing), one per reach, cabal-supported."""
    basis = kernels_in(graph, cluster_set)
    return tuple(basis.left[:, k] for k in range(basis.size))


def riesz_projector(graph: Graph, cluster_set, kind: str) -> np.ndarray:
    """Kernel-route projector for either Laplacian orientation."""
    basis = kernels_in(graph, cluster_set) if kind == "in" else kernels_out(
        graph, cluster_set
    )
    return riesz_from_kernels(basis)


def riesz_contour_oracle(
    graph: Graph,
    cluster_set,
    kind: str = "in",
    points: int = CONTOUR_POINTS,
) -> np.ndarray:
    """Spectral projector by a discretized resolvent contour integral.

    Integrates the resolvent of the cluster-subgraph Laplacian over a
    circle centered at the origin with radius half the smallest nonzero
    eigenvalue modulus, using the trapezoidal rule on ``points`` equally
    spaced nodes.  Entirely independent of the kernel construction.
    """
    lap = laplacian(cluster_set.subgraph(), kind)
    spectrum = np.linalg.eigvals(lap)
    moduli = np.abs(spectrum)
    top = float(moduli.max(initial=0.0))
    zero_tol = lap.shape[0] * EPS * max(top, 1.0)
    nonzero = moduli[moduli > zero_tol]
    if nonzero.size == 0:
        raise SpectralGapCollapse(
            "cluster Laplacian has no nonzero eigenvalue to separate"
        )
    gap = float(nonzero.min())
    if gap < SPECTRAL_COLLAPSE:
        raise SpectralGapCollapse(
            f"smallest nonzero eigenvalue modulus {gap:.3e} is below "
            f"{SPECTRAL_COLLAPSE:.1e}"
        )
    radius = 0.5 * gap
    n = lap.shape[0]
    eye = np.eye(n)
    acc = np.zeros((n, n), dtype=complex)
    for k in range(points):
        z = radius * np.exp(2j * np.pi * k / points)
        acc += z * np.linalg.solve(z * eye - lap, eye)
    acc /= points
    imag = float(np.abs(acc.imag).max())
    if imag > TOL_IMAG_RESIDUE:
        raise ProjectorDefect(
            f"contour integral has imaginary residue {imag:.3e} above "
            f"{TOL_IMAG_RESIDUE:.1e}"
        )
    return acc.real


# -- spectra and subspaces -----------------------------------------------------------


def spectrum_in_right_half_plane(a, tol: float = 1e-10) -> bool:
    """True when every eigenvalue satisfies ``Re(lambda) >= -tol``."""
    return bool(np.all(np.linalg.eigvals(a).real >= -tol))


def svd_nullspace(a, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``a``.

    Singular values at or below ``n * eps * sigma_max`` (or ``rtol * sigma_max``)
    count as zero.
    """
    a = np.asarray(a)
    if a.size == 0:
        return np.eye(a.shape[1])
    _, sigma, vh = np.linalg.svd(a)
    sigma_max = sigma[0] if sigma.size else 0.0
    cut = (rtol if rtol is not None else max(a.shape) * EPS) * sigma_max
    rank = int(np.sum(sigma > cut))
    return vh[rank:].conj().T


def principal_angle_gap(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal-angle sine between two subspaces given by bases.

    Computed as the largest singular value of the component of one
    orthonormalized basis outside the span of the other, which stays
    accurate for tiny angles (the arccos-of-inner-products route loses
    half the digits there).
    """
    qa, _ = np.linalg.qr(basis_a)
    qb, _ = np.linalg.qr(basis_b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    resid = qb - qa @ (qa.conj().T @ qb)
    sines = np.linalg.svd(resid, compute_uv=False)
    return float(min(1.0, sines[0])) if sines.size else 0.0
