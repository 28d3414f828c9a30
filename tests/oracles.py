"""Slow or independent routes that the tests check the package against.

The package needs none of these.  Each recomputes something the package
computes another way (spanning-tree weights by enumeration, cofactors and
one-node-at-a-time GTH elimination, the Riesz projector by a contour
integral, null spaces by SVD, components by union-find, Laplacians by the
plain three-pass formula, the resolvent difference in exact rational
arithmetic), or builds an input the package never forms
itself (scaled and matrix-built graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from lapcoarse import build_cluster_set, is_undirected, kernels_in, kernels_out, laplacian
from lapcoarse.errors import (
    InvariantViolation,
    NonPositiveMass,
    NonPositiveWeight,
    NotUndirected,
    ProjectorDefect,
    UnknownEndpoint,
    ValidationError,
)
from lapcoarse.graph import Graph, degrees, transpose
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


def restricted_weights(graph: Graph, nodes: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The sorted ``nodes`` and the weights among them."""
    order = sorted(nodes)
    idx = [graph.index(v) for v in order]
    return order, graph.weights[np.ix_(idx, idx)]


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
    order, W = restricted_weights(graph, nodes)
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
    order, W = restricted_weights(graph, nodes)
    B = np.diag(W.sum(axis=1)) - W
    k = len(order)
    out: dict[str, float] = {}
    for r in range(k):
        keep = [i for i in range(k) if i != r]
        minor = B[np.ix_(keep, keep)]
        out[order[r]] = float(np.linalg.det(minor)) if keep else 1.0
    return out


def gth_null_vector_sequential(W: np.ndarray) -> np.ndarray:
    """Left null vector of diag(W.sum(axis=1)) - W, with entry 0 equal to 1.

    GTH elimination censoring one node at a time, last to first, each with
    a rank-1 update of all earlier rows and columns: the order the package
    blocks into panels, summed one product at a time.  O(k^3) and free of
    subtraction, but a k x k update per node.
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


# -- the resolvent difference in exact arithmetic ------------------------------------
#
# Matrices are lists of rows of Fractions.  A complex matrix X + iY is carried
# as its real embedding [[X, -Y], [Y, X]], which Fraction arithmetic inverts
# like any real matrix, since the embedding of a product or an inverse is the
# product or inverse of the embeddings.

Exact = list[list[Fraction]]


def _exact(a) -> Exact:
    return [[Fraction(float(x)) for x in row] for row in np.asarray(a, dtype=float)]


def _identity(n: int) -> Exact:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _transposed(a: Exact) -> Exact:
    return [list(col) for col in zip(*a)]


def _product(a: Exact, b: Exact) -> Exact:
    cols = _transposed(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def _combine(a: Exact, b: Exact, t: Fraction = Fraction(1)) -> Exact:
    """``a + t b``."""
    return [[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _embedding(re: Exact, im: Exact) -> Exact:
    top = [r + [-x for x in i] for r, i in zip(re, im)]
    return top + [i + r for r, i in zip(re, im)]


def _rref(a: Exact) -> tuple[Exact, list[int]]:
    """Reduced row echelon form of ``a`` and its pivot columns."""
    rows = [list(r) for r in a]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(len(pivots), len(rows)) if rows[i][col] != 0), None)
        if pick is None:
            continue
        top = len(pivots)
        rows[top], rows[pick] = rows[pick], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    return rows, pivots


def _null_space(a: Exact) -> Exact:
    """Columns spanning the right null space of ``a``, from its RREF."""
    reduced, pivots = _rref(a)
    n = len(a[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return _transposed(basis) if basis else [[] for _ in range(n)]


def _inverse(a: Exact) -> Exact:
    """Gauss-Jordan inverse; ValueError when ``a`` is singular."""
    n = len(a)
    reduced, pivots = _rref([row + unit for row, unit in zip(a, _identity(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def _exact_laplacian(graph: Graph, kind: str) -> Exact:
    w, masses = _exact(graph.weights), _exact(graph.masses[None, :])[0]
    n = len(masses)
    deg = [sum(w[i]) if kind == "in" else sum(w[j][i] for j in range(n)) for i in range(n)]
    return [[((deg[i] if i == j else 0) - w[i][j]) / masses[i] for j in range(n)]
            for i in range(n)]


@dataclass
class ExactResolvent:
    """The exact pieces of ``(B + beta A - z)^-1 - U (D (B - z) U)^-1 D``.

    ``a`` is the cluster Laplacian and ``b = L - a``; ``right`` (U) and
    ``left`` (N_l) span the right and left null spaces of ``a``, and
    ``down`` (D) is ``(N_l^T U)^-1 N_l^T``.  ``shifted`` and ``resolvent``
    are ``B + beta A - z`` and its inverse, both as real embeddings.
    """

    a: Exact
    b: Exact
    right: Exact
    left: Exact
    down: Exact
    shifted: Exact
    resolvent: Exact
    difference: np.ndarray


def exact_resolvent(
    graph: Graph, cluster_set, mode: str, beta: float, z: complex
) -> ExactResolvent:
    """The resolvent difference of a coarsening, in exact rational arithmetic.

    Nothing here reads the package's kernel bases or transfer operators:
    the null spaces of the cluster Laplacian come from its RREF, and the
    reduced resolvent is taken in that basis, which is exact because the
    lifted resolvent ``U (D (B - z) U)^-1 D`` does not depend on the basis
    of the null space.  The difference is rounded to floating point once,
    at the end.  Every input must be exact in floating point: integer
    weights and power-of-two masses do that.

    Measured against this oracle, the engine that the low-rank one
    replaced, which subtracted two O(1) resolvents, lost digits like
    beta^2.  Its relative error over 8 random in-mode fixtures with n = 5
    to 8 had median 4.4e-9 and max 1.5e-8 at beta = 1e4, 5.2e-5 and
    1.6e-4 at 1e6, 0.22 and 1.3 at 1e8, 5.3e3 and 2.3e4 at 1e10.  On the
    fixtures of ``support.exact_cases`` (all modes, z = -1 and -1 + 0.5j)
    it had median 8.1e-11 and max 3.3e-8 at 1e4, 9.0e-7 and 1.9e-4 at 1e6,
    0.11 and 80 at 1e8, 7.3e3 and 6.5e5 at 1e10.  The low-rank engine
    stays within 1.6e-15 there at every beta.
    """
    kind = "out" if mode == "out" else "in"
    lap = _exact_laplacian(graph, kind)
    a = _exact_laplacian(cluster_set.subgraph(), kind)
    b = _combine(lap, a, Fraction(-1))
    right, left = _null_space(a), _null_space(_transposed(a))
    left_t = _transposed(left)
    down = _product(_inverse(_product(left_t, right)), left_t)
    zr, zi = Fraction(complex(z).real), Fraction(complex(z).imag)
    n, k = len(lap), len(down)
    eye_n, eye_k = _identity(n), _identity(k)
    scaled = _combine(_combine(b, a, Fraction(beta)), eye_n, -zr)
    shifted = _embedding(scaled, [[-zi * x for x in row] for row in eye_n])
    resolvent = _inverse(shifted)
    reduced = _combine(_product(down, _product(b, right)), eye_k, -zr)
    inner = _inverse(_embedding(reduced, [[-zi * x for x in row] for row in eye_k]))
    # the real and imaginary parts are the left blocks of an embedding
    real, imag = (_product(right, _product([row[:k] for row in half], down))
                  for half in (inner[:k], inner[k:]))
    difference = np.array([[x - y for x, y in zip(row[:n], lifted)]
                           for row, lifted in zip(resolvent, real + imag)], dtype=float)
    difference = difference[:n] + 1j * difference[n:]
    return ExactResolvent(a, b, right, left, down, shifted, resolvent, difference)


def exact_resolvent_diff(graph: Graph, cluster_set, mode: str, beta: float, z: complex) -> float:
    """Mass operator norm of :func:`exact_resolvent`'s difference, by SVD."""
    diff = exact_resolvent(graph, cluster_set, mode, beta, z).difference
    s = np.sqrt(graph.masses)
    return float(np.linalg.svd(diff * s[:, None] / s[None, :], compute_uv=False)[0])
