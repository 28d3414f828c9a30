"""Convergence harness for coarsening under cluster weight scaling.

Multiplying the cluster edge weights by a factor beta pushes the cluster
dynamics to infinite speed; the resolvent and the heat kernel of the full
graph then converge to their reduced counterparts lifted through the
transfer operators, at rate 1/beta.  The transfer operators themselves do
not depend on beta, so each harness call coarsens once and compares
against a ladder of scaled graphs.

The scaled Laplacian is ``L_beta = B + beta A``, A the Laplacian of the cluster
edges and B that of the others.  A is zero off the p cluster nodes, each other
node its own reduced node (the nearly decomposable structure of Courtois 1977).

The resolvent difference ``R_beta - X0``, ``R_beta = (L_beta - z)^-1`` and
``X0 = U (L_red - z)^-1 D`` (U = up, D = down), is O(1/beta) while both
terms are O(1), so it is never formed by subtraction.  With V spanning the
null space of D and rows W such that ``W U = 0`` and ``W V = I``, block
elimination in the basis ``[U V]`` gives exactly ``R_beta - X0 =
Y Sigma_beta^-1 Z`` with ``Sigma_beta = beta K_A + K_B``, ``R0 =
(L_red - z)^-1``, ``F = D B V``, ``G = W B U``, ``Y = V - U R0 F``,
``Z = W - G R0 D``, ``K_A = W A V`` and ``K_B = W (B - z) V - G R0 F``.
Sigma_beta, the Schur complement of ``L_red - z`` (the counterpart of the
stochastic complement of Meyer 1989), is q x q for q = n - K, K reduced
nodes, and only it depends on beta: each beta takes the 2-norm of
``R_Y Sigma_beta^-1 C``, where ``R_Y^H R_Y`` and ``C C^H`` are the Gram
matrices of ``M^1/2 Y`` and ``Z M^-1/2``.

The z-guard reads the diagonal of ``L_beta``; only when that bound does not
clear z is the matrix built for an eigensolve.  Clearing z proves
``L_beta - z`` nonsingular, and likewise ``L_red - z``; as ``det(L_beta - z)
= det(L_red - z) det(Sigma_beta)``, the two prove Sigma_beta nonsingular,
so such small inverses skip the pivot gate and scipy (``numerics.inverse``).

The heat comparison exponentiates L_beta and the reduced Laplacian as
whole matrices.  A self-adjoint one (symmetric weights) of at least
``numerics._EIGH_HEAT_FROM`` = 100 rows goes to one certified symmetric
eigensolve, ``numerics.symmetric_heat``; every other one, and one whose
eigensolve is not certified, goes to scipy's ``expm``.

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
    HeatKernelDefect,
    NonPositiveTime,
    NonPositiveWeight,
    NotSymmetrizable,
    SingularMatrix,
    ZOnSpectrumAxis,
)
from .graph import Graph, is_undirected, laplacian
from .kernels import projector_blocks
from .numerics import (
    _EIGH_HEAT_FROM,
    EPS,
    TOL_HEAT_INVARIANT,
    TOL_LEMMA_EQUALITY,
    TOL_Z_CLEARANCE,
    _as_matrix,
    _opnorm,
    eigvals,
    heat_residual,
    inverse,
    matrix_exp,
    require,
    spectral_gap,
    symmetric_heat,
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


def _clearance(centres: np.ndarray, z: complex) -> float:
    """Lower bound on the distance from ``z`` to the spectrum of a Laplacian with diagonal c.

    Off the diagonal, ``L + (beta - 1) A``, the reduced Laplacian and the
    cluster block hold ``-W/m <= 0``, and their rows (in kind) or the
    columns of ``M L M^-1`` (out kind) sum to zero: those Gershgorin disks
    are ``D(c_i, c_i)``, at least ``|c_i - z| - c_i`` from z.  In the computed
    matrix a radius is within about ``(n + 4) eps c_i`` of its centre, which
    the slack ``2 n eps (2 max c + |z|)`` covers for n >= 2 (1 x 1 has no radius).

    A positive bound also makes ``L - z`` strictly diagonally dominant, so
    it is nonsingular.
    """
    bound = float((np.abs(centres - z) - centres).min(initial=np.inf))
    return bound - 2 * len(centres) * EPS * (2 * centres.max(initial=0.0) + abs(z))


def _guard_z(z: complex, centres: np.ndarray, matrix: Callable[[], np.ndarray]) -> bool:
    """Raise ZOnSpectrumAxis when ``z`` is not finite or comes near the spectrum.

    ``z`` must keep ``TOL_Z_CLEARANCE`` from the nonnegative real axis and from
    every eigenvalue of ``matrix()``, a Laplacian with diagonal ``centres``;
    its eigenvalues are computed only if ``_clearance`` does not clear ``z``.
    Returns whether ``_clearance`` cleared ``z``, which certifies that
    ``matrix() - z`` is nonsingular.
    """
    zc = complex(z)
    if not np.isfinite(zc):
        raise ZOnSpectrumAxis(f"z = {z!r} is not finite")
    axis_dist = abs(zc.imag) if zc.real >= 0 else abs(zc)
    if axis_dist < TOL_Z_CLEARANCE:
        raise ZOnSpectrumAxis(f"z = {z!r} lies on the nonnegative real axis")
    if _clearance(centres, zc) >= TOL_Z_CLEARANCE:
        return True
    clearance = float(np.abs(eigvals(matrix()) - zc).min())
    if clearance < TOL_Z_CLEARANCE:
        raise ZOnSpectrumAxis(f"z = {z!r} is within {clearance:.3e} of the spectrum")
    return False


def _coarsening(
    graph: Graph, cluster_set: ClusterSet, mode: CoarsenMode, result: CoarseningResult | None
) -> CoarseningResult:
    """``result``, once it matches ``graph``, ``cluster_set`` and ``mode``; a new one if None."""
    if result is None:
        return coarsen(graph, cluster_set, mode)
    if (result.mode, result.graph, result.cluster_set) != (mode, graph, cluster_set):
        raise ClusterViolation(f"result is not the {mode} coarsening of this cluster set")
    return result


def _scaled_laplacian(result: CoarseningResult, multiplier: float) -> np.ndarray:
    """``L + (multiplier - 1) A`` of the coarsened graph, as a new array."""
    lap, inside = laplacian(result.graph, result.basis.kind).copy(), result.split.inside
    lap[inside[:, None], inside] += (multiplier - 1.0) * result.basis.cluster_block
    return lap


def _difference_factors(
    result: CoarseningResult, lap: np.ndarray, z: complex, certified: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``K_A``, ``K_B``, ``R_Y`` and ``C`` of the module docstring, in ``M^1/2 . M^-1/2``.

    V and W are grounded on the node of each reach where up is largest on a
    row no other reach touches: ``V = (I - U D) E_J`` on the other cluster
    nodes J and ``W = E_J^T - H E_G^T``, so products with them are gathers plus
    rank-k corrections.  ``certified``: z cleared ``L_red``'s diagonal bound.
    """
    split = result.split
    inside, outside, reach = split.inside, split.outside, split.reaches
    root, root_r = np.sqrt(result.graph.masses), np.sqrt(result.reduced.masses)
    up_c = split.core(result.up) * (root[inside, None] / root_r[reach])
    # the ground of a reach: its largest entry of up on a row no other reach touches
    lone = (up_c != 0.0).sum(axis=1) == 1
    ground = np.argmax(np.where(lone[:, None], up_c, 0.0), axis=0)
    perm = np.concatenate([np.delete(np.arange(len(inside)), ground), ground])
    p, k, q = len(inside), len(reach), len(inside) - len(reach)
    # nodes in the order J, grounds, outside, and reduced nodes in the order
    # reaches, outside: in this frame up and down are the identity on the outside
    order, kp = np.concatenate([inside[perm], outside]), np.concatenate([reach, split.singles])
    r, rr = root[order], root_r[kp]
    up_c = up_c[perm]
    down_c = split.core(result.down.T)[perm].T * (root_r[reach, None] / r[:p])
    h = up_c[:q] / up_c[q:].max(axis=0)  # a ground row holds its reach's entry alone
    dj = down_c[:, :q]  # D E_J
    # scaled and reduced in place: at these sizes a new array costs about as much as its arithmetic
    rows = lap.take(order[:p], axis=0).take(order, axis=1)
    rows *= r[:p, None]
    rows /= r
    out_j = lap.take(outside, axis=0).take(order[:q], axis=1) * (r[p:, None] / r[:q])
    a = result.basis.cluster_block.take(perm, axis=0).take(perm, axis=1)
    a *= r[:p, None]
    a /= r[:p]
    reduced = result.reduced_laplacian.take(kp, axis=0).take(kp, axis=1) * (rr[:, None] / rr)
    r0 = inverse(reduced - z * np.eye(len(kp)), certified)
    # B U = L U and D B = D L, since A U = 0 and D A = 0
    f = np.concatenate([down_c @ rows[:, :q], out_j]) - reduced[:, :k] @ dj
    wl = rows[:q]
    wl -= h @ rows[q:]
    g = np.concatenate([wl[:, :p] @ up_c, wl[:, p:]], axis=1)
    k_a = a[:q, :q]
    k_a -= h @ a[q:, :q]
    g_r0 = g @ r0
    k_b = wl[:, :q]
    k_b -= k_a + g[:, :k] @ dj
    k_b = k_b - g_r0 @ f  # complex when z is
    k_b.flat[:: q + 1] -= z
    m1 = r0 @ f
    m1[:k] += dj
    y = np.concatenate([up_c @ -m1[:k], -m1[k:]])  # Y = E_J - U (D E_J + R0 F)
    zt = np.concatenate([down_c.T @ -g_r0[:, :k].T, -g_r0[:, k:].T])  # Z^T = W^T - D^T (G R0)^T
    zt[q:p] -= h.T
    for x in (y, zt):
        x.flat[: q * q : q + 1] += 1.0
    return k_a, k_b, _gram_factor(y).conj().T, _gram_factor(zt).conj()


def _gram_factor(x: np.ndarray) -> np.ndarray:
    """Lower triangular L with ``L L^H = x^H x``, after scaling ``x`` in place."""
    scale = float(np.abs(x).max())
    x /= scale
    try:  # x.T @ x of a real x is a symmetric rank-k update in numpy
        return scale * np.linalg.cholesky((x.conj() if np.iscomplexobj(x) else x).T @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"difference factor is rank deficient: {exc}") from exc


def _resolvent_diffs(
    result: CoarseningResult, multipliers: list[float], z: complex
) -> list[float]:
    """The engine: mass norms of ``(L + (m - 1) A - z)^-1 - X0`` for each multiplier m.

    Without cluster edges (q = 0) they are zero, and only z is guarded."""
    graph, inside = result.graph, result.split.inside
    lap = laplacian(graph, result.basis.kind)
    centres = lap.diagonal().copy()
    if result.size == graph.n:
        _guard_z(z, centres, lambda: lap)
        return [0.0] * len(multipliers)
    reduced = result.reduced_laplacian
    reduced_certified = _guard_z(z, reduced.diagonal(), lambda: reduced)
    k_a, k_b, r_y, c = _difference_factors(result, lap, z, reduced_certified)
    top, cluster = centres[inside].copy(), result.basis.cluster_block.diagonal()
    diffs = []
    for m in multipliers:
        centres[inside] = top + (m - 1.0) * cluster
        certified = _guard_z(z, centres, lambda: _scaled_laplacian(result, m))
        sigma_inv = inverse(m * k_a + k_b, certified and reduced_certified)
        diffs.append(_opnorm(_as_matrix(r_y @ sigma_inv @ c)))
    return diffs


def resolvent_diff(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    beta: float,
    z: float = -1.0,
    result: CoarseningResult | None = None,
) -> float:
    """Mass operator norm of resolvent(full, scaled) minus lifted resolvent(reduced).

    That is ``Y Sigma_beta^-1 Z`` of the module docstring; no resolvent is formed.
    """
    beta = _multiplier(beta)
    return _resolvent_diffs(_coarsening(graph, cluster_set, mode, result), [beta], z)[0]


def _heat(lap: np.ndarray, masses: np.ndarray, t: float, self_adjoint: Callable[[], bool]):
    """``exp(-t lap)`` by the route :func:`heat_diff` describes."""
    if lap.shape[0] < _EIGH_HEAT_FROM or not self_adjoint():
        return matrix_exp(lap, -t)
    heat = symmetric_heat(lap, masses, t)
    if heat is None:
        with np.errstate(over="ignore", invalid="ignore"):  # the residual fails instead
            heat = matrix_exp(lap, -t)
        residual = {"row sums": heat_residual(heat)}
        require(HeatKernelDefect, "heat kernel", TOL_HEAT_INVARIANT, residual)
    return heat


def heat_diff(
    graph: Graph,
    cluster_set: ClusterSet,
    mode: CoarsenMode,
    beta: float,
    t: float,
    result: CoarseningResult | None = None,
) -> float:
    """Mass operator norm of exp(-t L_scaled) minus the lifted reduced heat kernel.

    Each exponential takes one of two routes.  A Laplacian of at least
    ``numerics._EIGH_HEAT_FROM`` = 100 rows whose weights equal their
    transpose exactly (for ``L_scaled``, the graph's and the cluster
    subgraph's) goes to ``numerics.symmetric_heat``, one symmetric
    eigensolve.  If that is not certified, scipy's expm answers but must
    pass the same ``heat_residual``, or HeatKernelDefect is raised.  Every
    other exponential, the README triangle's and every directed graph's
    among them, is scipy's expm, unchecked.
    """
    if not (t > 0) or not np.isfinite(t):
        raise NonPositiveTime(f"time must be positive, got {t!r}")
    beta = _multiplier(beta)
    result = _coarsening(graph, cluster_set, mode, result)
    lap = _scaled_laplacian(result, beta)
    full = _heat(lap, graph.masses, t, lambda: is_undirected(graph)
                 and result.cluster_set.symmetric)
    reduced = result.reduced
    full -= result.up @ _heat(result.reduced_laplacian, reduced.masses, t,
                              lambda: is_undirected(reduced)) @ result.down
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
    certified = _guard_z(z, lap.diagonal(), lambda: lap)
    res = inverse(lap - z * np.eye(len(lap)), certified) + projector / z
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

    Each difference is the mass operator norm of ``Y Sigma_beta^-1 Z`` of the
    module docstring: set up once per call, and per beta a z-guard on the
    diagonal, a q x q inverse and a q x q norm.  No two O(1) resolvents are
    subtracted, so the differences keep their accuracy however large beta grows.

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
