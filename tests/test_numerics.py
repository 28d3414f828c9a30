"""Dense linear algebra: solves, weighted norms, gaps, exponentials, null spaces."""

import numpy as np
import pytest
import scipy.linalg

import support as S
from support import TOL_LU_SOLVE, TOL_OPNORM
from lapcoarse import numerics
from lapcoarse.errors import (
    KernelDefect,
    MatrixTooLarge,
    NonFiniteMatrix,
    NotSymmetrizable,
    SingularMatrix,
)
from lapcoarse.connectivity import build_cluster_set
from lapcoarse.graph import build_graph, laplacian
from lapcoarse.harness import sweep
from lapcoarse.numerics import (
    eigvals,
    inverse,
    mass_symmetrize,
    matrix_exp,
    require,
    solve,
    spectral_gap,
    weighted_opnorm,
)
from oracles import (
    principal_angle_gap,
    scale_edges,
    spectrum_in_right_half_plane,
    svd_nullspace,
)


def adjugate_3x3(a):
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(a, j, axis=0), i, axis=1)
            adj[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


# -- solve -----------------------------------------------------------------------


def test_identity_solve_returns_the_right_hand_side():
    b = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(solve(np.eye(3), b), b)


def test_shifted_triangle_solve_matches_explicit_inverse():
    g = scale_edges(S.triangle(), S.TRIANGLE_CLUSTER, 10.0)
    a = laplacian(g, "in") + np.eye(3)
    x = solve(a.astype(complex), np.eye(3))
    explicit = adjugate_3x3(a) / np.linalg.det(a)
    assert np.abs(x - explicit).max() <= 1e-12 * np.abs(explicit).max()


def test_singular_solve_raises():
    with pytest.raises(SingularMatrix):
        solve(np.ones((2, 2)), np.eye(2))


def test_solve_backward_error_on_well_conditioned_systems():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(2, 51))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=(n, 3))
        x = solve(a, b)
        backward = np.linalg.norm(a @ x - b) / (np.linalg.norm(a) * np.linalg.norm(x))
        assert backward <= 1e-12


@pytest.mark.parametrize("rhs_shape", [(6,), (6, 3)])
@pytest.mark.parametrize(
    "a_complex, b_complex", [(False, False), (False, True), (True, True), (True, False)]
)
def test_solve_matches_scipy_lu_solve(rhs_shape, a_complex, b_complex):
    rng = np.random.default_rng(79)
    a = rng.normal(size=(6, 6)) + (1j * rng.normal(size=(6, 6)) if a_complex else 0)
    b = rng.normal(size=rhs_shape) + (1j * rng.normal(size=rhs_shape) if b_complex else 0)
    b_before = b.copy()
    x = solve(a, b)
    expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
    assert x.shape == expected.shape and x.dtype == expected.dtype
    assert np.abs(x - expected).max() <= TOL_LU_SOLVE * np.abs(expected).max()
    assert np.array_equal(b, b_before)


def test_solve_of_an_empty_system_is_empty():
    for rhs in (np.zeros(0), np.zeros((0, 2), dtype=complex)):
        x = solve(np.zeros((0, 0)), rhs)
        assert x.shape == rhs.shape and x.dtype == rhs.dtype


def test_solve_rejects_a_pivot_that_lu_solve_would_accept():
    a = np.diag([1.0, 1e-17])
    assert np.isfinite(scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.ones(2))).all()
    with pytest.raises(SingularMatrix, match="pivot 1.000e-17 below threshold"):
        solve(a, np.ones(2))


def test_inverse_round_trips():
    rng = np.random.default_rng(78)
    a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
    assert np.abs(inverse(a) @ a - np.eye(5)).max() <= 1e-12


def test_non_finite_and_oversized_inputs_are_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrix):
        solve(bad, np.eye(2))
    with pytest.raises(MatrixTooLarge):
        solve(np.eye(2001), np.zeros(2001))


# -- weighted operator norm --------------------------------------------------------


def test_opnorm_of_identity_is_one_for_any_masses():
    masses = np.array([0.25, 1.0, 9.0])
    assert abs(weighted_opnorm(np.eye(3), masses) - 1.0) <= 1e-14
    assert weighted_opnorm(np.zeros((0, 0)), np.zeros(0)) == 0.0


def test_opnorm_of_rank_one_matrix_matches_closed_form():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = rng.uniform(0.5, 2.0, size=n)
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        norm = weighted_opnorm(np.outer(u, v), m)
        expected = np.sqrt((u * u * m).sum()) * np.sqrt((v * v / m).sum())
        assert abs(norm - expected) <= 1e-12 * expected


def test_opnorm_matches_the_largest_singular_value_at_any_scale():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        m = rng.uniform(0.1, 10.0, size=n)
        a = rng.normal(size=(n, n))
        if rng.random() < 0.5:
            a = a + 1j * rng.normal(size=(n, n))
        for scale in (1.0, 1e-200, 1e150):
            sym = mass_symmetrize(scale * a, m)
            want = np.linalg.svd(sym, compute_uv=False)[0]
            assert abs(weighted_opnorm(scale * a, m) - want) <= TOL_OPNORM * want
    assert weighted_opnorm(np.zeros((4, 4)), np.ones(4)) == 0.0


def decaying_matrix(rng, n: int, complex_entries: bool):
    """Random n x n matrix with singular values 1/(k + 1), like a resolvent difference."""
    def unitary():
        a = rng.normal(size=(n, n))
        if complex_entries:
            a = a + 1j * rng.normal(size=(n, n))
        return np.linalg.qr(a)[0]

    return (unitary() * (1.0 / np.arange(1, n + 1))) @ unitary()


def spy_certificates(monkeypatch):
    outcomes = []
    original = numerics._bounds_spectrum

    def spy(gram, theta):
        outcomes.append(original(gram, theta))
        return outcomes[-1]

    monkeypatch.setattr(numerics, "_bounds_spectrum", spy)
    return outcomes


@pytest.mark.parametrize("offset", [-1, 0, 100, 400])
def test_certified_opnorm_matches_the_largest_singular_value(offset, monkeypatch):
    n = numerics._LANCZOS_MIN_N + offset
    rng = np.random.default_rng(n)
    m = rng.uniform(0.1, 10.0, size=n)
    outcomes = spy_certificates(monkeypatch)
    for complex_entries in (False, True):
        a = decaying_matrix(rng, n, complex_entries)
        want = np.linalg.svd(mass_symmetrize(a, m), compute_uv=False)[0]
        for scale in (1e-200, 1e150):
            got = weighted_opnorm(scale * a, m)
            assert abs(got - scale * want) <= TOL_OPNORM * scale * want
    # below the crossover the eigensolve answers; from it on, Lanczos, certified
    assert outcomes == ([] if offset < 0 else [True] * 4)


@pytest.mark.parametrize("n", [numerics._LANCZOS_MIN_N, 200])
def test_opnorm_of_a_repeated_top_singular_value(n):
    rng = np.random.default_rng(n + 1)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    for c in (3.0, 1e-200, 1e150):
        assert abs(weighted_opnorm(c * q, np.ones(n)) - c) <= TOL_OPNORM * c


def test_an_uncertified_lanczos_estimate_falls_back_to_the_eigensolve(monkeypatch):
    n = 200
    rng = np.random.default_rng(n + 2)
    a = decaying_matrix(rng, n, False)
    m = rng.uniform(0.5, 2.0, size=n)
    sym = mass_symmetrize(a, m)
    scale = np.abs(sym).max()
    unit = sym / scale
    gram = unit.T @ unit
    eig_value = scale * np.sqrt(np.linalg.eigvalsh(gram)[-1])
    original = numerics._lanczos_top
    monkeypatch.setattr(numerics, "_lanczos_top", lambda g: (1.0 - 1e-11) * original(g))
    outcomes = spy_certificates(monkeypatch)
    assert weighted_opnorm(a, m) == eig_value
    assert outcomes == [False]
    want = np.linalg.svd(sym, compute_uv=False)[0]
    assert abs(eig_value - want) <= TOL_OPNORM * want


def test_an_uncertified_complex_estimate_falls_back_to_the_eigensolve(monkeypatch):
    n = 200
    rng = np.random.default_rng(n + 3)
    a = decaying_matrix(rng, n, True)
    m = rng.uniform(0.5, 2.0, size=n)
    sym = mass_symmetrize(a, m)
    want = np.linalg.svd(sym, compute_uv=False)[0]
    original = numerics._lanczos_top
    monkeypatch.setattr(numerics, "_lanczos_top", lambda g: (1.0 - 1e-11) * original(g))
    outcomes = spy_certificates(monkeypatch)
    got = weighted_opnorm(a, m)
    assert outcomes == [False]
    assert abs(got - want) <= TOL_OPNORM * want


def test_the_complex_gram_is_read_from_its_lower_triangle():
    rng = np.random.default_rng(7)
    sym = rng.normal(size=(120, 120)) + 1j * rng.normal(size=(120, 120))
    gram = numerics._gram(sym)
    full = sym.conj().T @ sym
    lower = np.tril(gram)
    hermitian = lower + np.tril(lower, -1).conj().T
    # the transpose of sym^H sym: the same Hermitian matrix up to conjugation
    assert np.abs(hermitian - full.T).max() <= 1e-12 * np.abs(full).max()


def test_projector_opnorm_is_at_least_one():
    p = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]])
    assert weighted_opnorm(p, np.ones(3)) >= 1.0


def test_mass_symmetrization_is_a_similarity_transform():
    masses = np.array([4.0, 1.0])
    a = np.array([[2.0, -1.0], [-4.0, 2.0]])
    sym = mass_symmetrize(a, masses)
    assert np.allclose(sym, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-14)
    assert np.allclose(sorted(np.linalg.eigvals(sym).real), sorted(eigvals(a).real))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mass_symmetrization_of_extreme_masses_stays_finite():
    """Row i of a Laplacian is W / m_i: scaled by sqrt(m_i) first, no step overflows."""
    masses = np.array([1e300, 1e-300, 1.0])
    g = build_graph(list(zip("abc", masses)), S.sym("a", "b") + S.sym("a", "c") + S.sym("b", "c"))
    s = np.sqrt(masses)
    want = -1.0 / (s[:, None] * s[None, :])
    np.fill_diagonal(want, 2.0 / masses)
    assert np.allclose(mass_symmetrize(laplacian(g, "in"), g.masses), want, rtol=1e-15, atol=0.0)
    for mode in ("undirected", "in", "out"):
        kind = "undirected" if mode == "undirected" else "directed"
        cs = build_cluster_set(g, S.TRIANGLE_CLUSTER, kind)
        with pytest.raises(SingularMatrix):
            sweep(g, cs, mode, [1e1, 1e2, 1e3])


# -- spectral gap -------------------------------------------------------------------


def test_clique_gap_equals_the_node_count():
    for n in (4, 8, 16, 32):
        g = S.clique(n)
        gap = spectral_gap(laplacian(g, "in"), g.masses)
        assert abs(gap - n) <= 1e-10 * n


def test_single_edge_gap_is_twice_the_weight():
    beta = 1e3
    g = build_graph([("u", 1.0), ("v", 1.0)], S.sym("u", "v", beta))
    gap = spectral_gap(laplacian(g, "in"), g.masses)
    assert abs(gap - 2 * beta) <= 1e-12 * beta


def test_disconnected_gap_is_the_minimum_over_components():
    g = build_graph(
        [(v, 1.0) for v in "uvxy"],
        S.sym("u", "v", 5.0) + S.sym("x", "y", 2.0),
    )
    gap = spectral_gap(laplacian(g, "in"), g.masses)
    pieces = []
    for pair, w in ((("u", "v"), 5.0), (("x", "y"), 2.0)):
        piece = build_graph([(v, 1.0) for v in pair], S.sym(*pair, w))
        pieces.append(spectral_gap(laplacian(piece, "in"), piece.masses))
    assert abs(gap - min(pieces)) <= 1e-12 * max(pieces)


def test_gap_requires_a_symmetrizable_operator_and_handles_zero():
    g = S.hub_pair()
    with pytest.raises(NotSymmetrizable):
        spectral_gap(laplacian(g, "in"), g.masses)
    assert spectral_gap(np.zeros((3, 3)), np.ones(3)) == 0.0


# -- matrix exponential ----------------------------------------------------------------


def test_exponential_of_zero_is_the_identity():
    assert np.array_equal(matrix_exp(np.zeros((4, 4)), 3.7), np.eye(4))


def test_exponential_semigroup_property():
    rng = np.random.default_rng(88)
    for _ in range(20):
        a = 0.5 * rng.normal(size=(6, 6))
        lhs = matrix_exp(a, 0.4) @ matrix_exp(a, 0.8)
        rhs = matrix_exp(a, 1.2)
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_heat_semigroup_preserves_constants():
    rng = np.random.default_rng(89)
    ones_errors = []
    for _ in range(30):
        g = S.random_graph(rng)
        flow = matrix_exp(-laplacian(g, "in"), 1.7)
        ones_errors.append(np.abs(flow @ np.ones(g.n) - 1.0).max())
    assert max(ones_errors) <= 1e-10


# -- eigenvalues ----------------------------------------------------------------------


def test_symmetric_psd_spectra_are_real_and_nonnegative():
    g = S.clique(5)
    vals = eigvals(laplacian(g, "in"))
    assert np.abs(vals.imag).max() <= 1e-10
    assert vals.real.min() >= -1e-10


def test_scaled_cluster_laplacian_spectrum_stays_right_of_the_axis():
    g = S.hub_pair()
    for beta in (1.0, 1e2, 1e4):
        scaled = scale_edges(g, S.HUB_PAIR_CLUSTER, beta)
        mat = laplacian(scaled, "in")
        assert eigvals(mat).real.min() >= -1e-10 * max(1.0, beta)
        assert spectrum_in_right_half_plane(mat, tol=1e-10 * beta)
    assert not spectrum_in_right_half_plane(-np.eye(2))


def test_eigvals_of_a_diagonal_matrix():
    vals = eigvals(np.diag([3.0, -1.0, 2.0]))
    assert sorted(vals.real) == [-1.0, 2.0, 3.0]
    assert np.abs(vals.imag).max() == 0.0


# -- null spaces and angles --------------------------------------------------------------


def test_nullspace_dimension_counts_reaches():
    g = S.two_chains()
    null = svd_nullspace(laplacian(g, "in"))
    assert null.shape == (4, 2)
    assert np.abs(null.T @ null - np.eye(2)).max() <= 1e-12
    lap = laplacian(g, "in")
    assert np.abs(lap @ null).max() <= 1e-12 * np.abs(lap).max()


def test_nullspace_threshold_override():
    a = np.diag([1.0, 1e-6])
    assert svd_nullspace(a).shape[1] == 0
    assert svd_nullspace(a, rtol=1e-3).shape[1] == 1


def test_principal_angle_gap_extremes_and_small_rotations():
    e1 = np.eye(3)[:, :1]
    e2 = np.eye(3)[:, 1:2]
    assert principal_angle_gap(e1, e1) == 0.0
    assert principal_angle_gap(e1, e2) == 1.0
    theta = 1e-9
    rotated = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
    gap = principal_angle_gap(e1, rotated)
    assert 1e-10 <= gap <= 1e-8
    assert principal_angle_gap(np.eye(3)[:, :2], e1) == 1.0


def test_require_fails_on_nan_and_names_every_residual():
    require(KernelDefect, "basis", 1e-7, {"right": 1e-7, "left": 0.0})
    with pytest.raises(KernelDefect) as info:
        require(KernelDefect, "basis", 1e-7, {"right": 2e-7, "left": 0.0})
    assert str(info.value) == (
        "basis residual 2.000e-07 exceeds 1.000e-07 (right 2.000e-07, left 0.000e+00)"
    )
    nan_message = r"basis residual nan exceeds .* \(right 0\.000e\+00, left nan\)"
    with pytest.raises(KernelDefect, match=nan_message):
        require(KernelDefect, "basis", 1e-7, {"right": 0.0, "left": float("nan")})
