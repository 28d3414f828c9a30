"""Riesz projector onto the kernel of a cluster-subgraph Laplacian.

The projector is the sum of rank-one products of biorthogonal kernel
pairs, P = sum_R (right_R)(left_R * m)^T.  It annihilates the cluster
Laplacian on both sides (the zero eigenvalue carries no nilpotent part)
and its rank equals the number of reaches of the cluster subgraph; a gate
checks both, with idempotency, on the two blocks off which it is zero.
The tests compare it with a contour integral of the resolvent around the
zero eigenvalue group, kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import ProjectorDefect
from .kernels import KernelBasis
from .numerics import TOL_DEFECT

__all__ = ["riesz_from_kernels"]


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

