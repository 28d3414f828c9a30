"""Riesz projector onto the kernel of a cluster-subgraph Laplacian.

Two routes that must agree:

* algebraic: sum of rank-one products of biorthogonal kernel pairs,
  P = sum_R (right_R)(left_R * m)^T;
* analytic: discretized contour integral of the resolvent around the zero
  eigenvalue group.

The projector annihilates the cluster Laplacian on both sides (the zero
eigenvalue carries no nilpotent part) and its rank equals the number of
reaches of the cluster subgraph.
"""

from __future__ import annotations

import numpy as np

from .connectivity import ClusterSet
from .errors import ProjectorDefect, SpectralGapCollapse
from .graph import Graph, Kind, laplacian
from .kernels import KernelBasis, kernels_in, kernels_out
from .numerics import (
    CONTOUR_POINTS,
    SPECTRAL_COLLAPSE,
    TOL_DEFECT,
    TOL_IMAG_RESIDUE,
    eigvals,
)

__all__ = ["riesz_contour_oracle", "riesz_from_kernels"]


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
    stray = r_stray + w_stray
    worst = float(np.array([idem, annih, rank_resid, stray]).max())
    if not worst <= TOL_DEFECT:
        raise ProjectorDefect(
            "projector residual {:.3e} exceeds {:.1e} (idempotency {:.3e}, "
            "annihilation {:.3e}, rank {:.3e}, off-block entries {})".format(
                worst, TOL_DEFECT, idem, annih, rank_resid, stray
            )
        )
    return core, diagonal


def _largest(*arrays: np.ndarray) -> float:
    """Largest absolute entry over the arrays; NaN when any entry is."""
    out = 0.0
    for a in arrays:
        out = np.maximum(out, np.abs(a).max(initial=0.0))
    return float(out)


def riesz_projector(graph: Graph, cluster_set: ClusterSet, kind: Kind) -> np.ndarray:
    """Kernel-route projector for either Laplacian orientation."""
    basis = kernels_in(graph, cluster_set) if kind == "in" else kernels_out(
        graph, cluster_set
    )
    return riesz_from_kernels(basis)


def riesz_contour_oracle(
    graph: Graph,
    cluster_set: ClusterSet,
    kind: Kind = "in",
    points: int = CONTOUR_POINTS,
) -> np.ndarray:
    """Spectral projector by a discretized resolvent contour integral.

    Integrates the resolvent of the cluster-subgraph Laplacian over a
    circle centered at the origin with radius half the smallest nonzero
    eigenvalue modulus, using the trapezoidal rule on ``points`` equally
    spaced nodes.  Entirely independent of the kernel construction, so it
    serves as an oracle for it.
    """
    lap = laplacian(cluster_set.subgraph(), kind).matrix
    spectrum = eigvals(lap)
    moduli = np.abs(spectrum)
    top = float(moduli.max(initial=0.0))
    zero_tol = lap.shape[0] * np.finfo(float).eps * max(top, 1.0)
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
