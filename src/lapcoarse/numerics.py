"""Dense linear-algebra kernel.

Thin, contract-enforcing wrappers over numpy/scipy: LU solves and
inverses behind one pivot gate, mass-weighted operator norms, spectral
gaps of symmetrizable operators, matrix exponentials (scaling and
squaring, Pade 13 inside scipy), heat kernels of self-adjoint Laplacians
and QR eigenvalues.  Everything is dense; the guard :data:`SIZE_LIMIT`
keeps callers honest about the desk-scale design.

scipy loads on the first LAPACK, BLAS or ``expm`` use, not at import:
coarsening runs on numpy alone, and ``scipy.linalg`` takes about 0.3 s.

An inverse takes one of two routes.  The pivot gate needs the LU
factors, which only scipy's ``getrf`` returns, so an inverse is gated
``getrf`` and ``getri`` by default.  A caller that has proved the matrix
nonsingular, as the harness does when a Laplacian's diagonal bound
clears z (``L - z`` is then strictly diagonally dominant) or when two such
bounds prove a Schur complement nonsingular, passes ``certified``; below
:data:`_NUMPY_INVERSE_BELOW` rows such a matrix goes to numpy's LU solve
against the identity, which is cheaper there (9 against 19 us at three
rows) and needs no scipy.  So ``verify`` at the default real z on a small
graph runs on numpy alone.

A heat kernel ``exp(-tL)`` takes one of two routes.  scipy's ``expm``
takes any matrix.  A Laplacian self-adjoint in l2(m) (symmetric weights)
can instead go to :func:`symmetric_heat`: one ``eigh`` of ``M^(1/2) L
M^(-1/2)``, the method of choice for symmetric matrices (Moler and Van
Loan 2003; Higham 2008, section 10), and at beta = 1e3 about twice as
fast as ``expm`` at n = 300 to 500 (one BLAS thread on a Xeon).  Its
result is certified by :func:`heat_residual`, since a heat kernel is
nonnegative with unit row sums.  The caller (``harness.heat_diff``)
takes this route from :data:`_EIGH_HEAT_FROM` rows on, where it is the
cheaper one.

The operator norm is the top singular value, taken from the Gram matrix,
which a symmetric or Hermitian rank-k update forms in one triangle; every
reader of it reads that triangle.  On larger matrices a Lanczos estimate
replaces the full eigensolve, and a Cholesky factorization proves it is
the top eigenvalue to a stated relative bound (the floating-point
criterion of Rump 2006); without that proof the eigensolve answers.

Every tolerance the package's gates read lives in the table below, and
the gates that hold residuals to one raise through :func:`require`; the
tests keep their own thresholds beside their fixtures.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    MatrixTooLarge,
    NonFiniteMatrix,
    NotSymmetrizable,
    ShapeMismatch,
    SingularMatrix,
)

# ---------------------------------------------------------------------------
# Tolerance table.  The package's gates read these; do not tune casually.
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52
SIZE_LIMIT = 2000

TOL_DEFECT = 1e-7            # gate: kernel-basis and Riesz-projector residuals
TOL_REDUCED_LAPLACIAN = 1e-10  # J-down L J-up vs reduced-graph Laplacian
TOL_MASS_CONSERVATION = 1e-12
TOL_DISTRIBUTION = 1e-9      # gate: sign and unit total of a transported distribution
TOL_LEMMA_EQUALITY = 1e-9    # projection-lemma equality for cluster resolvents
TOL_AGGREGATE = 1e-12        # gate: negative aggregated weights; smaller ones are dropped
TOL_SYMMETRIC = 1e-10        # gate: asymmetry left by mass symmetrization
TOL_Z_CLEARANCE = 1e-12      # gate: distance of z from the spectrum and the real axis
TOL_HEAT_INVARIANT = 1e-7    # gate: row sums of a self-adjoint heat kernel (heat_residual)

# Certified top eigenvalue in weighted_opnorm.  Below _LANCZOS_MIN_N rows a
# full eigensolve is cheaper than the Python-level Lanczos loop (one BLAS
# thread on a Xeon: 0.42 against 0.46 ms at n = 80, 0.66 against 0.44 ms
# at n = 100).
# Lanczos settles in 8 to 14 steps on resolvent and heat differences; at
# n = 500 a step costs about 0.11 ms, so a run to the step cap adds about
# a tenth to the eigensolve it then falls back to.
_LANCZOS_MIN_N = 100
_LANCZOS_STEPS = 20
_LANCZOS_SEED = 20260
_CERTIFY_SLACK = 4

# Certified inverses below this many rows go to np.linalg.inv, the others
# to the gated getrf + getri (one BLAS thread on a Xeon: 9 against 19 us at
# n = 3, 21 against 28 us at n = 16, parity at n = 24, and numpy 1.3 to 1.6
# times slower from n = 48 on).
_NUMPY_INVERSE_BELOW = 24

# Heat kernels of self-adjoint Laplacians from this many rows on go to
# symmetric_heat, the others to scipy's expm (one BLAS thread on a Xeon,
# check and certificate included: parity at n = 100 at beta = 1e3, expm 1.2
# times faster at n = 88, eigh 1.3 times faster at n = 112 and 2 at n = 256;
# at beta = 10 expm squares less and parity moves to about n = 120).
_EIGH_HEAT_FROM = 100


def require(error: type[Exception], what: str, tolerance: float, residuals: dict) -> None:
    """Raise ``error`` unless every residual is at most ``tolerance``; NaN fails.

    The message names the worst residual, the tolerance and each residual.
    """
    if all(value <= tolerance for value in residuals.values()):
        return
    worst = float(np.max(list(residuals.values())))
    parts = ", ".join(f"{name} {value:.3e}" for name, value in residuals.items())
    raise error(f"{what} residual {worst:.3e} exceeds {tolerance:.3e} ({parts})")


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] > SIZE_LIMIT or arr.shape[1] > SIZE_LIMIT:
        raise MatrixTooLarge(
            f"{name} has shape {arr.shape}, above the dense-kernel limit {SIZE_LIMIT}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteMatrix(f"{name} contains NaN or Inf entries")
    return arr


@functools.lru_cache(maxsize=None)
def _lapack(name: str, dtype: np.dtype):
    """LAPACK routine ``name`` for ``dtype``, looked up once: the lookup
    costs more than the call on the small matrices of a reduced graph."""
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs((name,), dtype=dtype)[0]


@functools.lru_cache(maxsize=None)
def _blas(name: str, dtype: np.dtype):
    import scipy.linalg
    return scipy.linalg.get_blas_funcs((name,), dtype=dtype)[0]


def _lu_factor(a: np.ndarray):
    """LU factors and pivots of a square ``a``, behind the pivot gate.

    Raises :class:`SingularMatrix` when the smallest pivot falls below
    ``n * eps * norm(a, inf)``, i.e. when the factorization cannot be
    trusted rather than only on exact singularity.
    """
    lu, piv, _ = _lapack("getrf", a.dtype)(a)
    smallest = float(np.abs(lu.diagonal()).min())
    threshold = a.shape[0] * EPS * np.abs(a).sum(axis=1).max()
    if smallest <= threshold:
        raise SingularMatrix(f"pivot {smallest:.3e} below threshold {threshold:.3e}")
    return lu, piv


def _square(a, name: str) -> np.ndarray:
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {a.shape}")
    return a


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU with partial pivoting.

    Raises :class:`SingularMatrix` when a pivot fails the gate of
    :func:`_lu_factor`.
    """
    a = _square(a, "coefficient matrix")
    b_arr = np.asarray(b)
    if not np.all(np.isfinite(b_arr)):
        raise NonFiniteMatrix("right-hand side contains NaN or Inf entries")
    if a.shape[0] == 0:
        return np.zeros_like(b_arr)
    lu, piv = _lu_factor(a)
    return _lapack("getrs", np.result_type(lu, b_arr))(lu, piv, b_arr)[0]


def inverse(a, certified: bool = False) -> np.ndarray:
    """Matrix inverse from one LU factorization with partial pivoting.

    ``certified`` says the caller has proved ``a`` nonsingular (by strict
    diagonal dominance, up to a diagonal similarity).  Below
    :data:`_NUMPY_INVERSE_BELOW` rows such a matrix goes to
    ``np.linalg.inv``, whose only failure, an exactly zero pivot, raises
    :class:`SingularMatrix`.  Every other matrix takes ``getrf``, then
    ``getri``, and raises :class:`SingularMatrix` when a pivot fails the
    gate of :func:`_lu_factor`.
    """
    a = _square(a, "matrix")
    n = a.shape[0]
    if n == 0:
        return np.zeros_like(a)
    if certified and n < _NUMPY_INVERSE_BELOW:
        try:
            return np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"certified matrix is singular: {exc}") from exc
    lu, piv = _lu_factor(a)
    lwork = int(_lapack("getri_lwork", lu.dtype)(n)[0].real)
    inv, _ = _lapack("getri", lu.dtype)(lu, piv, lwork=lwork, overwrite_lu=True)
    return inv


def weighted_opnorm(a, masses) -> float:
    """Operator 2-norm of ``a`` on the mass-weighted space l2(m).

    Equal to the largest singular value of ``sym = M^(1/2) a M^(-1/2)``,
    the square root of the top eigenvalue of the Gram matrix
    ``G = sym^H sym``.  ``sym`` is first divided by its largest entry, so
    ``G`` neither overflows nor underflows.

    From :data:`_LANCZOS_MIN_N` rows on, the top eigenvalue is a Lanczos
    estimate ``theta`` (a Rayleigh quotient, so ``theta <= lambda_max``),
    certified by a Cholesky factorization of ``theta (1 + tau) I - G`` with
    ``tau = _CERTIFY_SLACK * n * eps``.  Its success proves, by the
    Cholesky backward error, ``lambda_max <= theta (1 + tau)(1 + (n + 1)^2
    eps)``, so the returned ``sqrt(theta)`` is within half that factor of
    the top singular value of the computed ``sym``.  When Lanczos does not
    settle or the factorization fails, and on smaller matrices, the value
    is the top eigenvalue from a full symmetric eigensolve (relative
    accuracy eps).
    """
    return _opnorm(mass_symmetrize(a, masses))


def _opnorm(sym: np.ndarray) -> float:
    """Operator 2-norm of the matrix ``sym``, by the route :func:`weighted_opnorm` describes.

    Divides ``sym`` in place by its largest entry.  The caller has checked
    it with :func:`_as_matrix`, as :func:`mass_symmetrize` does.
    """
    scale = float(np.abs(sym).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    sym /= scale
    gram = _gram(sym)
    if gram.shape[0] >= _LANCZOS_MIN_N:
        theta = _lanczos_top(gram)
        if theta is not None and _bounds_spectrum(gram, theta):
            return scale * float(np.sqrt(theta))
        gram = _gram(sym)
    top = float(np.linalg.eigvalsh(gram, UPLO="L")[-1])
    return scale * float(np.sqrt(max(top, 0.0)))


def _gram(sym: np.ndarray) -> np.ndarray:
    """A matrix with the spectrum of ``sym^H sym``, Fortran-ordered, valid in its lower triangle.

    Complex: BLAS ``herk`` forms ``sym^T conj(sym)``, the transpose of the
    Gram matrix, without a conjugated copy.  Real: numpy already forms
    ``sym^T sym`` by a symmetric rank-k update; its transpose is the same.
    """
    if np.iscomplexobj(sym):
        return _blas("herk", sym.dtype)(1.0, sym.T, lower=1)
    return (sym.T @ sym).T


def _lanczos_top(gram: np.ndarray) -> float | None:
    """Top Ritz value of a :func:`_gram` matrix by Lanczos, or None if unsettled.

    Full reorthogonalization (two passes against every earlier vector)
    keeps the basis orthonormal, so the Ritz value is a Rayleigh quotient
    of ``gram``.  The start vector is drawn from a fixed seed, so the
    result is deterministic.  Stops when the Ritz value moves by at most
    eps relative, or when the Krylov space becomes invariant; returns None
    after :data:`_LANCZOS_STEPS` steps without settling.
    """
    n = gram.shape[0]
    product = _blas("hemv" if np.iscomplexobj(gram) else "symv", gram.dtype)
    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((steps, n), dtype=gram.dtype)
    tri = np.zeros((steps, steps))
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    basis[0] = q / np.linalg.norm(q)
    theta = 0.0
    for k in range(steps):
        done = basis[: k + 1]
        w = product(1.0, gram, done[k], lower=1)
        coeffs = done.conj() @ w
        w -= coeffs @ done
        w -= (done.conj() @ w) @ done
        tri[k, k] = coeffs[k].real
        ritz = float(np.linalg.eigvalsh(tri[: k + 1, : k + 1])[-1])
        beta = float(np.linalg.norm(w))
        if ritz - theta <= EPS * ritz or beta <= EPS * ritz:
            return ritz
        theta = ritz
        if k + 1 < steps:
            tri[k, k + 1] = tri[k + 1, k] = beta
            basis[k + 1] = w / beta
    return None


def _bounds_spectrum(gram: np.ndarray, theta: float) -> bool:
    """True when ``theta (1 + tau) I - gram`` has a Cholesky factorization.

    Overwrites the :func:`_gram` matrix ``gram``, whose lower triangle
    LAPACK factors in place.
    """
    n = gram.shape[0]
    shifted = np.negative(gram, out=gram)
    diagonal = np.arange(n)
    shifted[diagonal, diagonal] += theta * (1.0 + _CERTIFY_SLACK * n * EPS)
    _, info = _lapack("potrf", shifted.dtype)(shifted, lower=True, clean=False, overwrite_a=True)
    return info == 0


def mass_symmetrize(a, masses) -> np.ndarray:
    """Return ``M^(1/2) a M^(-1/2)``; symmetric for mass-self-adjoint ``a``."""
    a = _as_matrix(a)
    s = np.sqrt(np.asarray(masses, dtype=float))
    # rows first: a Laplacian's row is W / m_i, and sqrt(m_i) times it stays bounded
    sym = a * s[:, np.newaxis]
    sym /= s[np.newaxis, :]
    return sym


def spectral_gap(laplacian, masses, dim: int | None = None) -> float:
    """Smallest nonzero eigenvalue of a mass-symmetrizable PSD operator.

    Eigenvalues at or below ``dim * eps * lambda_max`` count as zero, where
    ``dim`` defaults to the order of ``laplacian``.  For the nonzero block
    of a larger operator that is zero elsewhere, pass the larger order to
    cut where the whole operator would.  Returns 0.0 when no eigenvalue
    clears the threshold (the zero operator).
    """
    sym = mass_symmetrize(laplacian, masses)
    asym = np.max(np.abs(sym - sym.T)) if sym.size else 0.0
    scale = max(1.0, float(np.max(np.abs(sym))) if sym.size else 0.0)
    require(NotSymmetrizable, "mass symmetrization", TOL_SYMMETRIC * scale, {"asymmetry": asym})
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    threshold = (len(eigs) if dim is None else dim) * EPS * max(lam_max, 0.0)
    nonzero = eigs[eigs > threshold]
    return float(nonzero[0]) if nonzero.size else 0.0


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """``exp(t * a)`` by scipy's scaling-and-squaring Pade 13."""
    a = _as_matrix(a)
    if a.shape[0] == 0:
        return np.zeros_like(a)
    import scipy.linalg
    return scipy.linalg.expm(t * a)


def symmetric_heat(lap, masses, t: float) -> np.ndarray | None:
    """``exp(-t * lap)`` for a Laplacian self-adjoint in l2(m), or None if uncertified.

    ``S = M^(1/2) lap M^(-1/2)`` is symmetric, and with ``S = Q diag(lam)
    Q^T`` from one ``eigh`` (of its lower triangle) the exponential is
    ``M^(-1/2) Q diag(exp(-t lam)) Q^T M^(1/2)``.  The result is returned
    only when it passes :func:`heat_residual` to :data:`TOL_HEAT_INVARIANT`:
    in S's basis, ``exp(-tS)`` and its absolute value keep ``sqrt(m)``,
    entrywise relative.  The absolute value also catches a wrong eigenvalue
    whose eigenvector is orthogonal to ``sqrt(m)``.
    """
    sym = mass_symmetrize(lap, masses)
    try:
        lam, q = np.linalg.eigh(sym, UPLO="L")
    except np.linalg.LinAlgError:
        return None
    root = np.sqrt(np.asarray(masses, dtype=float))
    # a wrong eigenvalue below zero, or wrong entries at extreme masses, may
    # overflow here; the residual of the result is then not finite
    with np.errstate(over="ignore", invalid="ignore"):
        half = q * np.sqrt(np.exp(-t * lam))
        heat = half @ half.T  # numpy forms a product with its own transpose by syrk
        heat *= root[np.newaxis, :]
        heat /= root[:, np.newaxis]
    return heat if heat_residual(heat) <= TOL_HEAT_INVARIANT else None


def heat_residual(heat: np.ndarray) -> float:
    """Largest ``|heat 1 - 1|`` or ``|heat| 1 - 1``; NaN or Inf when ``heat`` is not finite.

    Zero for ``exp(-tL)`` of a Laplacian L that kills the constants: ``-L``
    is zero or positive off its diagonal, so the exponential is nonnegative
    with unit row sums.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = heat.sum(axis=1) - 1.0
        absolute = np.abs(heat).sum(axis=1) - 1.0
    return float(np.maximum(np.abs(sums), absolute).max())


def eigvals(a) -> np.ndarray:
    """All eigenvalues (complex) via LAPACK's Hessenberg QR."""
    a = _as_matrix(a)
    return np.linalg.eigvals(a)

