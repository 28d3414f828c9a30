"""Convergence harness for coarsening under cluster weight scaling.

Multiplying the cluster edge weights by a factor beta pushes the cluster
dynamics to infinite speed; the resolvent and the heat kernel of the full
graph then converge to their reduced counterparts lifted through the
transfer operators, at rate 1/beta.  The transfer operators themselves do
not depend on beta, so each harness call coarsens once and compares
against a ladder of scaled graphs.

The scaled Laplacian is L + (beta - 1) A, A the Laplacian of the cluster
edges.  A is zero off the p cluster nodes, where up, down and the kernel
projector are diagonal: every other node is its own reduced node, the
nearly decomposable structure of Courtois (1977).  One cluster-block
engine, built once per call, holds the p x p blocks L_cc and A_cc, the
Gershgorin disks of the other rows and columns and the elimination of
the outside block of L - z; per beta it forms only L_cc + (beta - 1) A_cc,
the cluster rows of the z-guard and the Schur complement.  ``sweep`` and
``resolvent_diff`` run on it; each difference is still the dense norm of
the whole resolvent difference.

The gap bound check measures the distance between the resolvent of the
scaled cluster subgraph and the rank-preserving part of its kernel
projector; for mass-symmetrizable cluster subgraphs and negative real z
it equals 1/|gap - z| exactly, which pins both the projector and the
spectral gap at once.  It is taken on the p x p block and the outside
diagonal, where that resolvent is -1/z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .coarsen import CoarsenMode, CoarseningResult, coarsen
from .connectivity import ClusterSet
from .errors import (
    BetaLadderTooShort,
    ClusterViolation,
    NonPositiveTime,
    NonPositiveWeight,
    NotSymmetrizable,
    SingularMatrix,
    ZOnSpectrumAxis,
)
from .graph import Graph, laplacian
from .kernels import projector_blocks
from .numerics import (
    EPS,
    TOL_LEMMA_EQUALITY,
    TOL_Z_CLEARANCE,
    eigvals,
    inverse,
    matrix_exp,
    spectral_gap,
    weighted_opnorm,
)

__all__ = [
    "GapBoundReport",
    "SweepReport",
    "gap_bound_check",
    "heat_diff",
    "resolvent_diff",
    "sweep",
]

_UNDERFLOW = 1e-15


def _multiplier(value: float) -> float:
    if not (value > 0) or not np.isfinite(value):
        raise NonPositiveWeight(f"scaling factor must be positive and finite, got {value!r}")
    return float(value)


def _disks(matrix: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Gershgorin disks of a real ``matrix``: centres, row radii, radii of the
    columns of ``M matrix M^-1``, and the diagonal."""
    mags, disks = np.abs(matrix), np.empty((4, len(matrix)))
    disks[0] = mags.diagonal()
    np.subtract(np.add.reduce(mags, axis=1), disks[0], out=disks[1])
    np.subtract((masses @ mags) / masses, disks[0], out=disks[2])
    disks[3] = matrix.diagonal()
    return disks


def _clearance(disks: np.ndarray, z: complex) -> float:
    """Lower bound on the distance from ``z`` to the spectrum ``disks`` enclose.

    The row and the column disks each enclose it; the better bound is kept,
    less a slack ``2 n eps (max centre + max radius + |z|)`` for rounding.
    The disks of an in-Laplacian (rows) and of an out-Laplacian (columns)
    lie in Re >= 0, so for Re z < 0 the bound is |Re z| less the slack.
    """
    centre, rows, cols = disks[:3].max(axis=1, initial=0.0).tolist()
    bound = float((np.abs(disks[3] - z) - disks[1:3]).min(axis=1, initial=np.inf).max())
    return bound - 2 * disks.shape[1] * EPS * (centre + max(rows, cols) + abs(z))


def _gershgorin_clearance(matrix: np.ndarray, masses: np.ndarray, z: complex) -> float:
    return _clearance(_disks(matrix, masses), z)


def _guard_z(z: complex, clearance: float, matrix: Callable[[], np.ndarray]) -> None:
    """Raise ZOnSpectrumAxis when ``z`` comes within clearance of the spectrum.

    ``z`` must keep ``TOL_Z_CLEARANCE`` from the nonnegative real axis and from
    every eigenvalue of ``matrix()``, a Laplacian.  The Gershgorin bound
    ``clearance`` settles the common case (every Re z < 0); only when it
    does not clear ``z`` is the matrix built and its eigenvalues computed.
    """
    zc = complex(z)
    axis_dist = abs(zc.imag) if zc.real >= 0 else abs(zc)
    if axis_dist < TOL_Z_CLEARANCE:
        raise ZOnSpectrumAxis(f"z = {z!r} lies on the nonnegative real axis")
    if clearance >= TOL_Z_CLEARANCE:
        return
    clearance = float(np.abs(eigvals(matrix()) - zc).min())
    if clearance < TOL_Z_CLEARANCE:
        raise ZOnSpectrumAxis(f"z = {z!r} is within {clearance:.3e} of the spectrum")


def _resolvent(matrix: np.ndarray, masses: np.ndarray, z: complex) -> np.ndarray:
    _guard_z(z, _gershgorin_clearance(matrix, masses, complex(z)), lambda: matrix)
    return inverse(matrix - z * np.eye(matrix.shape[0]))


def _eliminate_outside(
    matrix: np.ndarray, p: int, z: complex
) -> Callable[[np.ndarray], np.ndarray]:
    """Resolvents of matrices that agree with ``matrix`` off its leading p x p block.

    Split ``matrix - z`` at ``p`` as ``[[A, B], [C, D]]``.  ``D^-1``,
    ``-D^-1 C``, ``-B D^-1`` and ``-B D^-1 C`` are formed here, once; given
    another leading block ``m``, the returned function inverts the matrix
    minus z by one inverse of ``S = m - z - B D^-1 C`` and three products:

        [[S^-1, -S^-1 B D^-1], [-D^-1 C S^-1, D^-1 + D^-1 C S^-1 B D^-1]]

    Raises SingularMatrix when ``D`` fails the pivot gate, and the
    returned function does when ``S`` does.
    """
    n = matrix.shape[0]
    d_inv = inverse(matrix[p:, p:] - z * np.eye(n - p))
    c = matrix[p:, :p].copy()  # a copy, so that ``matrix`` can be freed
    lower = -(d_inv @ c)
    right = -(matrix[:p, p:] @ d_inv)
    schur_shift = right @ c

    def resolve(block: np.ndarray) -> np.ndarray:
        schur = block.astype(np.result_type(block, z))
        schur.flat[:: p + 1] -= z
        schur += schur_shift
        s_inv = inverse(schur)
        out = np.empty((n, n), dtype=np.result_type(s_inv, d_inv))
        out[:p, :p] = s_inv
        np.matmul(s_inv, right, out=out[:p, p:])
        np.matmul(lower, s_inv, out=out[p:, :p])
        np.matmul(out[p:, :p], right, out=out[p:, p:])
        out[p:, p:] += d_inv
        return out

    return resolve


def _coarsening(
    graph: Graph, cluster_set: ClusterSet, mode: CoarsenMode, result: CoarseningResult | None
) -> CoarseningResult:
    """``result``, once it matches ``graph``, ``cluster_set`` and ``mode``; a new one if None."""
    if result is None:
        return coarsen(graph, cluster_set, mode)
    if (result.mode, result.graph, result.cluster_set) != (mode, graph, cluster_set):
        raise ClusterViolation(f"result is not the {mode} coarsening of this cluster set")
    return result


def _resolvent_diffs(
    result: CoarseningResult, multipliers: list[float], z: complex
) -> list[float]:
    """The engine: norms of ``(L + (m - 1) A - z)^-1`` minus the lifted reduced resolvent.

    In ``order``, the p cluster nodes first, A vanishes off the leading
    p x p block, so the other rows and columns and their Gershgorin disks
    are those of L for every m.  Only L's p x p block is kept; L is built
    again if the disks do not clear z, or for every m if the outside block
    fails the pivot gate (only possible for Re z >= 0).
    """
    graph, split, p = result.graph, result.split, len(result.split.inside)
    order = np.concatenate([split.inside, split.outside])
    masses = graph.masses[order]

    def whole(block: np.ndarray | None = None) -> np.ndarray:
        out = laplacian(graph, result.basis.kind)[order[:, None], order]
        if block is not None:
            out[:p, :p] = block
        return out

    lap = whole()
    red = _resolvent(result.reduced_laplacian, result.reduced.masses, z)
    lifted = split.lift(result.up, red, result.down.T)
    disks = _disks(lap, masses)
    # the outside columns' part of the cluster row radii, and conversely
    rest = [np.abs(lap[:p, p:]).sum(axis=1), (masses[p:] @ np.abs(lap[p:, :p])) / masses[:p]]
    top = lap[:p, :p].copy()
    try:
        resolve = _eliminate_outside(lap, p, z)
    except SingularMatrix:

        def resolve(block: np.ndarray) -> np.ndarray:
            return inverse(whole(block) - z * np.eye(len(masses)))

    del lap
    diffs = []
    for m in multipliers:
        block = top + (m - 1.0) * result.basis.cluster_block
        disks[:, :p] = _disks(block, masses[:p])
        disks[1:3, :p] += rest
        _guard_z(z, _clearance(disks, complex(z)), lambda: whole(block))
        # each n x n and p x p temporary is dropped once used
        full = resolve(block)
        del block
        full -= lifted
        diffs.append(weighted_opnorm(full, masses))
        del full
    return diffs


def resolvent_diff(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    beta: float,
    z: float = -1.0,
    result: CoarseningResult | None = None,
) -> float:
    """Mass operator norm of resolvent(full, scaled) minus lifted resolvent(reduced)."""
    beta = _multiplier(beta)
    return _resolvent_diffs(_coarsening(graph, cluster_set, mode, result), [beta], z)[0]


def heat_diff(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    beta: float,
    t: float,
    result: CoarseningResult | None = None,
) -> float:
    """Mass operator norm of exp(-t L_scaled) minus the lifted reduced heat kernel."""
    if not (t > 0) or not np.isfinite(t):
        raise NonPositiveTime(f"time must be positive, got {t!r}")
    beta = _multiplier(beta)
    result = _coarsening(graph, cluster_set, mode, result)
    inside = result.split.inside
    lap = laplacian(graph, result.basis.kind).copy()
    lap[inside[:, None], inside] += (beta - 1.0) * result.basis.cluster_block
    full = matrix_exp(lap, -t)
    full -= result.up @ matrix_exp(result.reduced_laplacian, -t) @ result.down
    return weighted_opnorm(full, graph.masses)


@dataclass(frozen=True)
class GapBoundReport:
    """Measured sharpness of the cluster-resolvent projection bound.

    ``distance`` is the cluster-side quantity that equals ``bound``
    exactly in the symmetrizable case; ``full_diff`` is the resolvent
    difference of the whole graph at the same scaling, so that
    ``constant`` can be compared across betas (it should stay of order
    one when the 1/gap rate is sharp).
    """

    beta: float
    z: float
    distance: float
    gap: float
    full_diff: float

    @property
    def bound(self) -> float:
        return 1.0 / abs(self.gap - self.z)

    @property
    def residual(self) -> float:
        return abs(self.distance - self.bound)

    @property
    def is_equality(self) -> bool:
        return self.residual <= TOL_LEMMA_EQUALITY

    @property
    def constant(self) -> float:
        return self.full_diff * self.gap


def gap_bound_check(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    beta: float,
    z: float = -1.0,
) -> GapBoundReport:
    """Compare the cluster resolvent against its kernel-projector limit.

    The distance is the mass operator norm of (L_cluster - z)^-1 - P/(-z)
    on the scaled cluster subgraph; for negative real z and a
    mass-symmetrizable cluster subgraph it equals 1/(gap - z) exactly.
    L_cluster is zero and P diagonal off the p cluster nodes, so the
    inverse, z-guard and gap are those of the p x p block (the zero block
    adds the eigenvalue 0, which the axis check keeps z clear of; the gap
    still cuts zero at ``n eps lambda_max``), and the norm is the larger of
    the block's and the outside diagonal's.  The full-graph difference at
    the same scaling comes alongside, for the constant of the 1/gap bound.
    Raises NotSymmetrizable when the gap is not defined by a real spectrum.
    """
    beta = _multiplier(beta)
    result = coarsen(graph, cluster_set, mode)
    projector, outside = projector_blocks(result.basis)
    masses = graph.masses[result.basis.split.inside]
    lap = beta * result.basis.cluster_block
    res = _resolvent(lap, masses, z) + projector / z
    off = np.abs(1.0 / (-z) - outside / (-z)).max(initial=0.0)
    distance = float(np.maximum(weighted_opnorm(res, masses), off))
    gap = spectral_gap(lap, masses, graph.n)
    full = resolvent_diff(graph, cluster_set, mode, beta, z, result=result)
    return GapBoundReport(beta, z, distance, gap, full)


@dataclass(frozen=True)
class SweepReport:
    """Resolvent convergence measured over a ladder of scaling factors.

    ``betas`` and ``diffs`` are parallel arrays; ``gap_values``, when
    present, parallels them with the spectral gap of the scaled cluster
    subgraph (it is dropped for clusters without a real spectrum).
    """

    mode: CoarsenMode
    z: float
    betas: tuple[float, ...]
    diffs: tuple[float, ...]
    fitted_slope: float | None
    gap_values: tuple[float, ...] | None
    notes: tuple[str, ...]

    def as_dict(self) -> dict:
        z = complex(self.z)
        return {
            "mode": self.mode,
            "z": {"re": z.real, "im": z.imag},
            "betas": list(self.betas),
            "diffs": list(self.diffs),
            "fittedSlope": self.fitted_slope,
            "gapValues": None if self.gap_values is None else list(self.gap_values),
            "notes": list(self.notes),
        }


def sweep(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    betas: Iterable[float],
    z: float = -1.0,
    cluster_scale: Callable[[float], float] | None = None,
    result: CoarseningResult | None = None,
) -> SweepReport:
    """Measure resolvent convergence along an increasing ladder of betas.

    Each difference is the mass operator norm of the dense scaled resolvent
    minus the lifted reduced one, from the cluster-block engine: the rows
    and columns of ``L_beta - z`` off the p cluster nodes are eliminated
    once, and each beta forms ``L_cc + (beta - 1) A_cc``, guards z on the
    whole matrix through its cluster rows and inverts the Schur complement.

    The log-log slope of the differences against beta is fitted by least
    squares; the smallest beta is left out of the fit when more than three
    are given, since it is the least asymptotic.  Entries whose difference
    underflows are excluded from the fit and flagged.  A custom
    ``cluster_scale`` (mapping beta to the actual multiplier) may be
    supplied, but then no convergence rate is guaranteed.  ``result`` must
    coarsen the same graph and cluster set in ``mode``; made when omitted.
    """
    ladder = sorted(set(float(b) for b in betas))
    if len(ladder) < 3:
        raise BetaLadderTooShort(
            f"sweep needs at least three distinct scaling factors, got {len(ladder)}"
        )
    notes: list[str] = []
    if cluster_scale is not None:
        notes.append("custom cluster scaling in effect: no rate guarantee")
    multipliers = [_multiplier(cluster_scale(b) if cluster_scale else b) for b in ladder]
    result = _coarsening(graph, cluster_set, mode, result)
    try:
        # the cluster subgraph's Laplacian scales exactly with the multiplier
        cluster = result.basis.cluster_block
        gap: float | None = spectral_gap(cluster, graph.masses[result.split.inside], graph.n)
    except NotSymmetrizable:
        gap = None
        notes.append("cluster subgraph is not mass-symmetrizable; gaps omitted")
    diffs = _resolvent_diffs(result, multipliers, z)
    if any(b > a for a, b in zip(diffs, diffs[1:])):
        notes.append("resolvent differences are not monotone along the ladder")
    usable = [i for i, d in enumerate(diffs) if d > _UNDERFLOW]
    if len(usable) < len(diffs):
        dropped = ", ".join(str(ladder[i]) for i in range(len(diffs)) if i not in usable)
        notes.append(f"differences underflowed at beta = {dropped}; fit excludes them")
    fit = usable[1:] if len(usable) >= 4 else usable
    slope: float | None = None
    if len(fit) >= 2:
        xs = np.log([ladder[i] for i in fit])
        ys = np.log([diffs[i] for i in fit])
        slope = float(np.polyfit(xs, ys, 1)[0])
        if slope > -0.9:
            notes.append(
                "fitted slope exceeds -1: decay slower than 1/beta on this "
                "ladder (strong-only or pre-asymptotic regime)"
            )
    else:
        notes.append("too few usable entries for a slope fit")
    gaps = None if gap is None else tuple(gap * m for m in multipliers)
    return SweepReport(mode, z, tuple(ladder), tuple(diffs), slope, gaps, tuple(notes))
