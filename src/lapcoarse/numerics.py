"""Dense linear-algebra kernel.

Thin, contract-enforcing wrappers over numpy/scipy: complex LU solves,
mass-weighted operator norms, spectral gaps of symmetrizable operators,
matrix exponentials (scaling and squaring, Pade 13 inside scipy), QR
eigenvalues and an SVD null-space oracle.  Everything is dense; the guard
:data:`SIZE_LIMIT` keeps callers honest about the desk-scale design.

All numerical tolerances used across the package live in the table below
so tests and acceptance criteria pin a single source.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import (
    MatrixTooLarge,
    NonFiniteMatrix,
    NotSymmetrizable,
    SingularMatrix,
)

# ---------------------------------------------------------------------------
# Tolerance table.  Acceptance tests import these; do not tune casually.
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52
SIZE_LIMIT = 2000

TOL_KERNEL = 1e-10           # kernel residuals, partition of unity, biorthogonality
TOL_PROJECTOR = 1e-10        # idempotency and annihilation of Riesz projectors
TOL_RIESZ_CROSS = 1e-8       # closed form vs contour oracle
TOL_REDUCED_LAPLACIAN = 1e-10  # J-down L J-up vs reduced-graph Laplacian
TOL_MASS_CONSERVATION = 1e-12
TOL_TRANSPORT = 1e-12        # probability transport conservation
TOL_LEMMA_EQUALITY = 1e-9    # projection-lemma equality for cluster resolvents
TOL_WEIGHT_VECTOR = 1e-10    # relative agreement of the two weight-vector routes
TOL_IMAG_RESIDUE = 1e-9      # allowed imaginary part when realifying a contour integral
TOL_TRANSPOSE_DUALITY = 1e-14
SPECTRAL_COLLAPSE = 1e-12    # below this, "0 is isolated" is numerically meaningless
CONTOUR_POINTS = 256
ENUMERATION_LIMIT = 12       # max reach size for brute-force tree enumeration


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise NonFiniteMatrix(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] > SIZE_LIMIT or arr.shape[1] > SIZE_LIMIT:
        raise MatrixTooLarge(
            f"{name} has shape {arr.shape}, above the dense-kernel limit {SIZE_LIMIT}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteMatrix(f"{name} contains NaN or Inf entries")
    return arr


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU with partial pivoting.

    Raises :class:`SingularMatrix` when the smallest pivot falls below
    ``n * eps * norm(a, inf)``, i.e. when the factorization cannot be
    trusted rather than only on exact singularity.
    """
    a = _as_matrix(a, "coefficient matrix")
    b_arr = np.asarray(b)
    if not np.all(np.isfinite(b_arr)):
        raise NonFiniteMatrix("right-hand side contains NaN or Inf entries")
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise NonFiniteMatrix(f"coefficient matrix must be square, got {a.shape}")
    if n == 0:
        return np.zeros_like(b_arr)
    with warnings.catch_warnings():
        # scipy warns on exactly singular input; the pivot check below
        # turns that condition into a typed error instead.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    threshold = n * EPS * np.linalg.norm(a, np.inf)
    if np.min(pivots) <= threshold:
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below threshold {threshold:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b_arr, check_finite=False)


def inverse(a) -> np.ndarray:
    """Matrix inverse via :func:`solve` against the identity."""
    a = _as_matrix(a)
    return solve(a, np.eye(a.shape[0], dtype=a.dtype))


def weighted_opnorm(a, masses) -> float:
    """Operator 2-norm of ``a`` on the mass-weighted space l2(m).

    Equal to the largest singular value of ``sym = M^(1/2) a M^(-1/2)``,
    taken as the square root of the top eigenvalue of the Gram matrix
    ``sym^H sym`` (relative accuracy eps, at the cost of one symmetric
    eigensolve instead of a full SVD).  ``sym`` is first divided by its
    largest entry, so the Gram matrix neither overflows nor underflows.
    """
    sym = mass_symmetrize(a, masses)
    scale = float(np.max(np.abs(sym), initial=0.0))
    if scale == 0.0:
        return 0.0
    sym = sym / scale
    top = float(np.linalg.eigvalsh(sym.conj().T @ sym)[-1])
    return scale * float(np.sqrt(max(top, 0.0)))


def mass_symmetrize(a, masses) -> np.ndarray:
    """Return ``M^(1/2) a M^(-1/2)``; symmetric for mass-self-adjoint ``a``."""
    a = _as_matrix(a)
    s = np.sqrt(np.asarray(masses, dtype=float))
    return (a * (1.0 / s)[np.newaxis, :]) * s[:, np.newaxis]


def spectral_gap(laplacian, masses) -> float:
    """Smallest nonzero eigenvalue of a mass-symmetrizable PSD operator.

    Eigenvalues at or below ``n * eps * lambda_max`` count as zero.  Returns
    0.0 when no eigenvalue clears the threshold (the zero operator).
    """
    sym = mass_symmetrize(laplacian, masses)
    asym = np.max(np.abs(sym - sym.T)) if sym.size else 0.0
    scale = max(1.0, float(np.max(np.abs(sym))) if sym.size else 0.0)
    if asym > 1e-10 * scale:
        raise NotSymmetrizable(
            f"mass symmetrization left asymmetry {asym:.3e} (scale {scale:.3e})"
        )
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    threshold = len(eigs) * EPS * max(lam_max, 0.0)
    nonzero = eigs[eigs > threshold]
    return float(nonzero[0]) if nonzero.size else 0.0


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """``exp(t * a)`` by scipy's scaling-and-squaring Pade 13."""
    a = _as_matrix(a)
    if a.shape[0] == 0:
        return np.zeros_like(a)
    return scipy.linalg.expm(t * a)


def eigvals(a) -> np.ndarray:
    """All eigenvalues (complex) via LAPACK's Hessenberg QR."""
    a = _as_matrix(a)
    return np.linalg.eigvals(a)


def spectrum_in_right_half_plane(a, tol: float = 1e-10) -> bool:
    """True when every eigenvalue satisfies ``Re(lambda) >= -tol``."""
    return bool(np.all(eigvals(a).real >= -tol))


def svd_nullspace(a, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``a``.

    Singular values at or below ``n * eps * sigma_max`` (or ``rtol * sigma_max``)
    count as zero.  Test oracle for the closed-form kernel bases.
    """
    a = _as_matrix(a)
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
