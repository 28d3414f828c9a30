"""Convergence harness for coarsening under cluster weight scaling.

Multiplying the cluster edge weights by a factor beta pushes the cluster
dynamics to infinite speed; the resolvent and the heat kernel of the full
graph then converge to their reduced counterparts lifted through the
transfer operators, at rate 1/beta.  The transfer operators themselves do
not depend on beta, so each harness call coarsens once and compares
against a ladder of scaled graphs.

The gap bound check measures the distance between the resolvent of the
scaled cluster subgraph and the rank-preserving part of its kernel
projector; for mass-symmetrizable cluster subgraphs and negative real z
this distance equals 1/|gap - z| exactly, which pins both the projector
and the spectral gap computation at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .coarsen import CoarsenMode, CoarseningResult, coarsen
from .connectivity import ClusterSet
from .errors import (
    BetaLadderTooShort,
    NonPositiveTime,
    NonPositiveWeight,
    NotSymmetrizable,
    ZOnSpectrumAxis,
)
from .graph import Graph, Kind, laplacian, scale_edges
from .kernels import kernels_in
from .numerics import (
    EPS,
    TOL_LEMMA_EQUALITY,
    eigvals,
    inverse,
    matrix_exp,
    spectral_gap,
    weighted_opnorm,
)
from .riesz import riesz_from_kernels

__all__ = [
    "GapBoundReport",
    "SweepReport",
    "gap_bound_check",
    "heat_diff",
    "resolvent_diff",
    "scaled_graph",
    "sweep",
]

_UNDERFLOW = 1e-15
_Z_CLEARANCE = 1e-12


def _kind(mode: CoarsenMode) -> Kind:
    return "out" if mode == "out" else "in"


def scaled_graph(graph: Graph, cluster_set: ClusterSet, beta: float) -> Graph:
    """Parent graph with every cluster edge weight multiplied by ``beta``."""
    if not (beta > 0) or not np.isfinite(beta):
        raise NonPositiveWeight(f"scaling factor must be positive, got {beta!r}")
    return scale_edges(graph, cluster_set.total_edges, beta)


def _gershgorin_clearance(matrix: np.ndarray, masses: np.ndarray, z: complex) -> float:
    """Lower bound on the distance from ``z`` to the spectrum of ``matrix``.

    The row disks of ``matrix`` and the column disks of the similar matrix
    ``M matrix M^-1`` each enclose the spectrum, so each gives a bound; the
    larger is kept, less a rounding slack of
    ``2 n eps (max centre + max radius + |z|)`` so that it is never
    optimistic.  The disks of an in-Laplacian (rows) and of an
    out-Laplacian (mass-similar columns) touch 0 and lie in Re >= 0, so
    for Re z < 0 the bound is at least |Re z| less the slack.
    """
    mags = np.abs(matrix)
    centres = np.diagonal(mags)
    rows = mags.sum(axis=1) - centres
    cols = (masses @ mags) / masses - centres
    offsets = np.abs(np.diagonal(matrix) - z)
    bound = max(np.min(offsets - rows), np.min(offsets - cols))
    radius = max(rows.max(), cols.max())
    slack = 2 * len(mags) * EPS * (centres.max() + radius + abs(z))
    return float(bound - slack)


def _guard_z(matrix: np.ndarray, masses: np.ndarray, z: complex) -> None:
    """Raise ZOnSpectrumAxis when ``z`` comes within clearance of the spectrum.

    ``z`` must keep ``_Z_CLEARANCE`` from the nonnegative real axis and from
    every eigenvalue of ``matrix``, a Laplacian with node ``masses``.  The
    Gershgorin bound settles the common case (every Re z < 0) in O(n^2);
    only when it does not clear ``z`` are the eigenvalues computed.
    """
    zc = complex(z)
    axis_dist = abs(zc.imag) if zc.real >= 0 else abs(zc)
    if axis_dist < _Z_CLEARANCE:
        raise ZOnSpectrumAxis(
            f"z = {z!r} lies on the nonnegative real axis"
        )
    if _gershgorin_clearance(matrix, masses, zc) >= _Z_CLEARANCE:
        return
    clearance = float(np.abs(eigvals(matrix) - zc).min())
    if clearance < _Z_CLEARANCE:
        raise ZOnSpectrumAxis(
            f"z = {z!r} is within {clearance:.3e} of the spectrum"
        )


def _resolvent(matrix: np.ndarray, masses: np.ndarray, z: complex) -> np.ndarray:
    _guard_z(matrix, masses, z)
    eye = np.eye(matrix.shape[0])
    shifted = matrix - z * eye
    if np.iscomplexobj(shifted):
        return np.linalg.solve(shifted, np.eye(matrix.shape[0], dtype=complex))
    return inverse(shifted)


def resolvent_diff(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    beta: float,
    z: float = -1.0,
    result: CoarseningResult | None = None,
) -> float:
    """Mass operator norm of resolvent(full, scaled) minus lifted resolvent(reduced)."""
    if result is None:
        result = coarsen(graph, cluster_set, mode)
    scaled = scaled_graph(graph, cluster_set, beta)
    full = _resolvent(laplacian(scaled, _kind(mode)).matrix, graph.masses, z)
    red = _resolvent(result.reduced_laplacian.matrix, result.reduced.masses, z)
    diff = full - result.up @ red @ result.down
    return weighted_opnorm(diff, graph.masses)


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
    if result is None:
        result = coarsen(graph, cluster_set, mode)
    scaled = scaled_graph(graph, cluster_set, beta)
    full = matrix_exp(laplacian(scaled, _kind(mode)).matrix, -t)
    red = matrix_exp(result.reduced_laplacian.matrix, -t)
    diff = full - result.up @ red @ result.down
    return weighted_opnorm(diff, graph.masses)


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

    The reported distance is the mass operator norm of
    (L_cluster - z)^-1 - P/(-z) on the scaled cluster subgraph; for
    negative real z and a mass-symmetrizable cluster subgraph it equals
    1/(gap - z) exactly.  The full-graph resolvent difference at the
    same scaling is measured alongside, so callers can fit the constant
    in the 1/gap convergence bound.  Raises NotSymmetrizable when the
    gap is not defined by a real spectrum.
    """
    kind = _kind(mode)
    sub = scaled_graph(cluster_set.subgraph(), cluster_set, beta)
    lap = laplacian(sub, kind).matrix
    result = coarsen(graph, cluster_set, mode)
    basis = result.basis
    if basis is None:  # undirected coarsening keeps no basis; its kind is "in"
        basis = kernels_in(graph, cluster_set)
    projector = riesz_from_kernels(basis)
    if z == 0:
        raise ZOnSpectrumAxis("z = 0 lies in the cluster Laplacian spectrum")
    res = _resolvent(lap, graph.masses, z)
    distance = weighted_opnorm(res - projector / (-z), graph.masses)
    gap = spectral_gap(lap, graph.masses)
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
) -> SweepReport:
    """Measure resolvent convergence along an increasing ladder of betas.

    The log-log slope of the differences against beta is fitted by least
    squares; the smallest beta is left out of the fit when more than three
    are given, since it is the least asymptotic.  Entries whose difference
    underflows are excluded from the fit and flagged.  A custom
    ``cluster_scale`` (mapping beta to the actual multiplier) may be
    supplied, but then no convergence rate is guaranteed.
    """
    ladder = sorted(set(float(b) for b in betas))
    if len(ladder) < 3:
        raise BetaLadderTooShort(
            f"sweep needs at least three distinct scaling factors, got {len(ladder)}"
        )
    notes: list[str] = []
    if cluster_scale is not None:
        notes.append("custom cluster scaling in effect: no rate guarantee")
    result = coarsen(graph, cluster_set, mode)
    kind = _kind(mode)
    red = _resolvent(result.reduced_laplacian.matrix, result.reduced.masses, z)
    lifted = result.up @ red @ result.down
    try:
        # the cluster subgraph's Laplacian scales exactly with the multiplier
        sub_lap = laplacian(cluster_set.subgraph(), kind).matrix
        gap: float | None = spectral_gap(sub_lap, graph.masses)
    except NotSymmetrizable:
        gap = None
        notes.append("cluster subgraph is not mass-symmetrizable; gaps omitted")
    diffs: list[float] = []
    multipliers: list[float] = []
    for beta in ladder:
        multiplier = float(cluster_scale(beta)) if cluster_scale else beta
        if not (multiplier > 0) or not np.isfinite(multiplier):
            raise NonPositiveWeight(
                f"cluster scale produced a non-positive multiplier {multiplier!r}"
            )
        multipliers.append(multiplier)
        scaled = scale_edges(graph, cluster_set.total_edges, multiplier)
        full = _resolvent(laplacian(scaled, kind).matrix, graph.masses, z)
        diffs.append(weighted_opnorm(full - lifted, graph.masses))
    if any(b > a for a, b in zip(diffs, diffs[1:])):
        notes.append("resolvent differences are not monotone along the ladder")
    usable = [i for i, d in enumerate(diffs) if d > _UNDERFLOW]
    if len(usable) < len(diffs):
        dropped = ", ".join(
            str(ladder[i]) for i in range(len(diffs)) if i not in usable
        )
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
    return SweepReport(
        mode,
        z,
        tuple(ladder),
        tuple(diffs),
        slope,
        None if gap is None else tuple(gap * m for m in multipliers),
        tuple(notes),
    )
