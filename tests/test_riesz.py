"""Spectral projectors onto the cluster kernel: closed form vs contour integral."""

import numpy as np
import pytest

import support as S
from support import TOL_PROJECTOR, TOL_RIESZ_CROSS
from lapcoarse.connectivity import build_cluster_set, transpose_cluster_set
from lapcoarse.errors import SpectralGapCollapse
from lapcoarse.graph import laplacian, transpose
from lapcoarse.kernels import kernels_in, kernels_out
from lapcoarse.numerics import weighted_opnorm
from lapcoarse.riesz import riesz_contour_oracle, riesz_from_kernels, riesz_projector


def test_source_pair_projector_matrix():
    g = S.two_sources()
    p = riesz_projector(g, S.two_sources_cluster(g), "in")
    assert np.array_equal(p, [[1, 0, 0], [0, 1, 0], [0, 1, 0]])


def test_projector_without_clusters_is_the_identity():
    g = S.hub_pair()
    cs = build_cluster_set(g, [], "directed")
    for kind in ("in", "out"):
        assert np.array_equal(riesz_projector(g, cs, kind), np.eye(3))


def test_undirected_cluster_projector_is_mass_orthogonal():
    g = S.triangle()
    cs = build_cluster_set(g, S.TRIANGLE_CLUSTER, "directed")
    p = riesz_projector(g, cs, "in")
    assert np.allclose(p, [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]], atol=1e-14)
    m = np.diag(g.masses)
    assert np.abs(m @ p - p.T @ m).max() <= 1e-12


def test_projector_restricted_to_outside_nodes_is_identity_block():
    g = S.hub_pair()
    p = riesz_projector(g, S.hub_pair_cluster(g), "in")
    i = g.index("1")
    assert p[i, i] == 1.0
    assert np.abs(np.delete(p[i], i)).max() == 0.0


def test_contour_oracle_agrees_with_kernel_formula():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    for kind in ("in", "out"):
        formula = riesz_projector(g, cs, kind)
        oracle = riesz_contour_oracle(g, cs, kind)
        assert np.abs(formula - oracle).max() <= TOL_RIESZ_CROSS


def test_contour_rule_converges_in_the_point_count():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    formula = riesz_projector(g, cs, "in")
    errors = {
        points: np.abs(riesz_contour_oracle(g, cs, "in", points=points) - formula).max()
        for points in (8, 256)
    }
    assert errors[8] >= 1e-5
    assert errors[256] <= 1e-10


def test_contour_oracle_needs_a_nonzero_eigenvalue():
    g = S.hub_pair()
    with pytest.raises(SpectralGapCollapse):
        riesz_contour_oracle(g, build_cluster_set(g, [], "directed"))


def test_projector_properties_on_random_cluster_fixtures():
    rng = np.random.default_rng(909)
    for _ in range(40):
        g = S.random_graph(rng)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        sub = cs.subgraph()
        for kind in ("in", "out"):
            p = riesz_projector(g, cs, kind)
            lap = laplacian(sub, kind).matrix
            assert np.abs(p @ p - p).max() <= TOL_PROJECTOR
            scale = max(1.0, np.abs(lap).max())
            assert np.abs(p @ lap).max() <= TOL_PROJECTOR * scale
            assert np.abs(lap @ p).max() <= TOL_PROJECTOR * scale
            assert np.abs(p - riesz_contour_oracle(g, cs, kind)).max() <= TOL_RIESZ_CROSS
            basis = kernels_in(g, cs) if kind == "in" else kernels_out(g, cs)
            rank = basis.right.shape[1]
            assert round(float(np.trace(p))) == rank
            assert np.linalg.matrix_rank(p, tol=1e-8) == rank


def test_in_projector_is_the_mass_adjoint_of_the_transposed_out_projector():
    rng = np.random.default_rng(123)
    for _ in range(50):
        g = S.random_graph(rng)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        m = g.masses
        p_in = riesz_projector(g, cs, "in")
        p_out = riesz_projector(transpose(g), transpose_cluster_set(cs), "out")
        adjoint = (p_out.T * m[np.newaxis, :]) / m[:, np.newaxis]
        assert np.abs(p_in - adjoint).max() <= TOL_PROJECTOR


def test_dispatcher_matches_direct_assembly():
    g = S.two_sources()
    cs = S.two_sources_cluster(g)
    assert np.array_equal(
        riesz_projector(g, cs, "in"), riesz_from_kernels(kernels_in(g, cs))
    )
    assert np.array_equal(
        riesz_projector(g, cs, "out"), riesz_from_kernels(kernels_out(g, cs))
    )


def test_projector_norm_is_at_least_one():
    g = S.two_sources()
    p = riesz_projector(g, S.two_sources_cluster(g), "in")
    assert weighted_opnorm(p, g.masses) >= 1.0
