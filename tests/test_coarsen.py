"""Reduced graphs, interpolation/projection operators, probability transport."""

import dataclasses
import importlib
import types

import numpy as np
import pytest

import support as S
from lapcoarse.coarsen import (
    _aggregate_edges,
    _cross_check,
    coarsen,
    coarsen_in,
    coarsen_out,
    coarsen_undirected,
    probability_transport_check,
)
from lapcoarse.connectivity import build_cluster_set
from lapcoarse.errors import (
    ClusterViolation,
    InvariantViolation,
    KernelDefect,
    NegativeAggregateWeight,
    NotADistribution,
    NotUndirected,
    ProjectorDefect,
    ReductionMismatch,
)
from lapcoarse.graph import build_graph, laplacian
from lapcoarse.kernels import _check_basis, kernels_in
from lapcoarse.riesz import riesz_from_kernels


def test_triangle_reduction_values():
    g = S.triangle()
    result = coarsen_undirected(g, S.triangle_cluster(g))
    red = result.reduced
    assert red.nodes == ("a", "b+c")
    assert red.masses.tolist() == [1.0, 2.0]
    assert sorted(red.edges()) == [("a", "b+c", 2.0), ("b+c", "a", 2.0)]
    assert np.array_equal(
        result.reduced_laplacian.matrix, [[2.0, -2.0], [-1.0, 1.0]]
    )
    assert result.node_map == {"a": ("a",), "b+c": ("b", "c")}


def test_triangle_interpolation_operators():
    g = S.triangle()
    result = coarsen_undirected(g, S.triangle_cluster(g))
    assert np.array_equal(result.up, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(result.down, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    background = laplacian(S.triangle_cluster(g).background(), "in").matrix
    projected = result.down @ background @ result.up
    assert np.abs(projected - result.reduced_laplacian.matrix).max() <= 1e-12


def test_no_clusters_means_identity_coarsening():
    g = S.triangle()
    cs = build_cluster_set(g, [], "undirected")
    result = coarsen_undirected(g, cs)
    assert result.reduced == g
    assert np.array_equal(result.up, np.eye(3))
    assert np.array_equal(result.down, np.eye(3))


def test_hub_pair_reductions_with_unit_attachment_coincide():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    for result in (coarsen_in(g, cs), coarsen_out(g, cs)):
        red = result.reduced
        assert red.nodes == ("1", "2+3")
        assert np.allclose(red.masses, [1.0, 2.0], atol=1e-12)
        weights = {(s, d): w for s, d, w in red.edges()}
        assert abs(weights[("1", "2+3")] - 2.0) <= 1e-12
        assert abs(weights[("2+3", "1")] - 2.0) <= 1e-12


def test_asymmetric_attachment_separates_the_two_reductions():
    g = S.hub_pair(w13=2.0)
    cs = S.hub_pair_cluster(g)
    into_pair_in = {(s, d): w for s, d, w in coarsen_in(g, cs).reduced.edges()}
    into_pair_out = {(s, d): w for s, d, w in coarsen_out(g, cs).reduced.edges()}
    assert abs(into_pair_in[("1", "2+3")] - 2 * 29 / 18) <= 1e-12
    assert abs(into_pair_out[("1", "2+3")] - 3.0) <= 1e-12
    assert coarsen_in(g, cs).reduced != coarsen_out(g, cs).reduced


def test_source_pair_reduction_loses_connectivity():
    g = S.two_sources()
    result = coarsen_in(g, S.two_sources_cluster(g))
    assert list(result.reduced.edges()) == []
    assert result.reduced.masses.tolist() == [1.0, 2.0]
    assert np.array_equal(result.reduced_laplacian.matrix, np.zeros((2, 2)))


def test_all_three_modes_agree_on_undirected_input():
    g = S.triangle()
    und = coarsen_undirected(g, S.triangle_cluster(g))
    directed_cs = build_cluster_set(g, S.TRIANGLE_CLUSTER, "directed")
    for result in (coarsen_in(g, directed_cs), coarsen_out(g, directed_cs)):
        assert result.reduced.nodes == und.reduced.nodes
        assert np.allclose(result.reduced.masses, und.reduced.masses, atol=1e-12)
        assert np.allclose(result.reduced.weights, und.reduced.weights, atol=1e-12)
        assert np.allclose(result.up, und.up, atol=1e-12)
        assert np.allclose(result.down, und.down, atol=1e-12)


def test_intra_cluster_background_edges_drop_as_self_loops():
    g = build_graph(
        [("x", 1.0), ("y", 1.0), ("z", 1.0)],
        S.sym("x", "y") + S.sym("y", "z") + S.sym("x", "z"),
    )
    cluster = S.sym_pairs("x", "y") + S.sym_pairs("y", "z")
    result = coarsen_undirected(g, build_cluster_set(g, cluster, "undirected"))
    assert result.reduced.nodes == ("x+y+z",)
    assert list(result.reduced.edges()) == []
    assert result.reduced_laplacian.matrix.tolist() == [[0.0]]


def test_mode_and_orientation_mismatches_are_rejected():
    g = S.hub_pair()
    directed_cs = S.hub_pair_cluster(g)
    with pytest.raises(ClusterViolation):
        coarsen_undirected(g, directed_cs)
    undirected_cs = build_cluster_set(g, S.HUB_PAIR_CLUSTER, "undirected")
    with pytest.raises(NotUndirected):
        coarsen_undirected(g, undirected_cs)
    with pytest.raises(ClusterViolation):
        coarsen_in(g, undirected_cs)
    with pytest.raises(ValueError):
        coarsen(g, directed_cs, "diagonal")


def test_coarsening_result_is_read_only():
    g = S.triangle()
    result = coarsen_undirected(g, S.triangle_cluster(g))
    assert not result.down.flags.writeable
    assert not result.up.flags.writeable
    with pytest.raises(ValueError):
        result.projector[0, 0] = 7.0


def test_structural_invariants_on_random_undirected_fixtures():
    rng = np.random.default_rng(37)
    for _ in range(25):
        g = S.random_graph(rng, undirected=True)
        pairs = S.random_cluster_pairs(rng, g, undirected=True)
        result = coarsen_undirected(g, build_cluster_set(g, pairs, "undirected"))
        assert np.abs(result.up @ result.down - result.projector).max() <= 1e-10
        assert np.abs(result.down @ result.up - np.eye(result.size)).max() <= 1e-10
        assert abs(result.reduced.masses.sum() - g.masses.sum()) <= 1e-12 * g.masses.sum()
        mat = result.reduced_laplacian.matrix
        scale = max(1.0, np.abs(mat).max())
        assert np.abs(mat @ np.ones(result.size)).max() <= 1e-10 * scale
        off = mat - np.diag(np.diag(mat))
        assert off.max(initial=0.0) <= 1e-12 * scale


def test_structural_invariants_on_random_directed_fixtures():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = S.random_graph(rng)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        for result in (coarsen_in(g, cs), coarsen_out(g, cs)):
            assert np.abs(result.up @ result.down - result.projector).max() <= 1e-10
            assert np.abs(result.down @ result.up - np.eye(result.size)).max() <= 1e-10
            total = g.masses.sum()
            assert abs(result.reduced.masses.sum() - total) <= 1e-12 * total
            mat = result.reduced_laplacian.matrix
            scale = max(1.0, np.abs(mat).max())
            if result.mode == "in":
                annihilated = mat @ np.ones(result.size)
            else:
                annihilated = result.reduced.masses @ mat
            assert np.abs(annihilated).max() <= 1e-10 * scale
            off = mat - np.diag(np.diag(mat))
            assert off.max(initial=0.0) <= 1e-12 * scale


def aggregate_edges_by_loop(labels, aggregate):
    """Reference edge list: every off-diagonal entry above the noise floor."""
    tol = 1e-12 * max(1.0, float(np.abs(aggregate).max()))
    edges = []
    for r in range(len(labels)):
        for s in range(len(labels)):
            if r != s and float(aggregate[r, s]) > tol:
                edges.append((labels[s], labels[r], float(aggregate[r, s])))
    return edges


def test_aggregated_edges_match_the_entrywise_loop(monkeypatch):
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(15):
        g = S.random_graph(rng, undirected=True)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g, undirected=True), "undirected")
        cases.append((g, cs, "undirected"))
        g = S.random_graph(rng)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        cases += [(g, cs, "in"), (g, cs, "out")]
    reduced = [coarsen(g, cs, mode).reduced for g, cs, mode in cases]
    module = importlib.import_module("lapcoarse.coarsen")
    monkeypatch.setattr(module, "_aggregate_edges", aggregate_edges_by_loop)
    for (g, cs, mode), want in zip(cases, reduced):
        assert coarsen(g, cs, mode).reduced == want
    aggregate = rng.uniform(0.0, 2.0, size=(6, 6))
    aggregate[aggregate < 0.7] = 0.0
    aggregate[0, 1] = 1e-13
    labels = list("abcdef")
    assert _aggregate_edges(labels, aggregate) == aggregate_edges_by_loop(labels, aggregate)


@pytest.mark.parametrize("k", [120, 400])
def test_heavy_cycle_directed_reductions_equal_the_undirected_one(k):
    """A reach whose tree weights overflow a product of k weights still reduces."""
    g, cluster = S.heavy_cycle(k)
    want = coarsen_undirected(g, build_cluster_set(g, cluster, "undirected")).reduced
    cs = build_cluster_set(g, cluster, "directed")
    for result in (coarsen_in(g, cs), coarsen_out(g, cs)):
        red = result.reduced
        assert red.nodes == want.nodes
        assert np.allclose(red.masses, want.masses, rtol=1e-12, atol=0.0)
        got = {(s, d): w for s, d, w in red.edges()}
        expected = {(s, d): w for s, d, w in want.edges()}
        assert set(got) == set(expected) and len(got) == 2
        for edge, w in expected.items():
            assert abs(got[edge] - w) <= 1e-12 * w


def _nan_at(array, index):
    out = np.array(array, dtype=float)
    out[index] = np.nan
    return out


def _basis_gate(field):
    g = S.hub_pair()
    basis = kernels_in(g, S.hub_pair_cluster(g))
    lap = laplacian(basis.cluster_set.subgraph(), "in").matrix
    right, left = basis.right, basis.left
    if field == "right":
        right = _nan_at(right, (1, 1))
    else:
        left = _nan_at(left, (2, 1))
    _check_basis(lap, g.masses, right, left, right)


def _projector_gate():
    g = S.hub_pair()
    basis = kernels_in(g, S.hub_pair_cluster(g))
    riesz_from_kernels(dataclasses.replace(basis, left=_nan_at(basis.left, (2, 1))))


def _cross_check_gate(field):
    g = S.triangle()
    r = coarsen_undirected(g, S.triangle_cluster(g))
    compressed, down = r.reduced_laplacian.matrix, r.down
    graph = g
    if field == "laplacian":
        compressed = _nan_at(compressed, (0, 1))
    elif field == "identity":
        down = _nan_at(down, (1, 2))
    else:
        graph = types.SimpleNamespace(masses=_nan_at(g.masses, 0))
    _cross_check("undirected", graph, down, r.up, r.reduced, compressed, "in")


@pytest.mark.parametrize(
    "gate, error",
    [
        (lambda: _basis_gate("right"), KernelDefect),
        (lambda: _basis_gate("left"), KernelDefect),
        (_projector_gate, ProjectorDefect),
        (lambda: _cross_check_gate("laplacian"), ReductionMismatch),
        (lambda: _cross_check_gate("identity"), ReductionMismatch),
        (lambda: _cross_check_gate("mass"), ReductionMismatch),
        (
            lambda: _aggregate_edges(["p", "q"], np.array([[0.0, np.nan], [1.0, 0.0]])),
            NegativeAggregateWeight,
        ),
    ],
    ids=[
        "basis-right",
        "basis-left",
        "projector",
        "cross-check-laplacian",
        "cross-check-identity",
        "cross-check-mass",
        "aggregate",
    ],
)
def test_invariant_gates_fail_on_nan(gate, error):
    assert issubclass(error, InvariantViolation)
    with pytest.raises(error):
        gate()


# -- probability transport -------------------------------------------------------


def test_uniform_distribution_survives_undirected_transport():
    g = S.triangle()
    result = coarsen_undirected(g, S.triangle_cluster(g))
    report = probability_transport_check(result, np.ones(3) / 3.0, "down")
    assert report.residual <= 1e-12
    back = probability_transport_check(result, report.transported, "up")
    assert back.residual <= 1e-12


def test_point_mass_survives_in_mode_transport():
    g = S.two_sources()
    result = coarsen_in(g, S.two_sources_cluster(g))
    down = probability_transport_check(result, [0.0, 0.0, 1.0], "down")
    assert down.input_total == 1.0
    assert down.residual <= 1e-12
    up = probability_transport_check(result, down.transported, "up")
    assert up.residual <= 1e-12


def test_transport_rejects_non_distributions():
    g = S.triangle()
    result = coarsen_undirected(g, S.triangle_cluster(g))
    with pytest.raises(NotADistribution):
        probability_transport_check(result, [0.5, 0.5, -0.5])
    with pytest.raises(NotADistribution):
        probability_transport_check(result, [1.0, 1.0, 1.0])
    with pytest.raises(NotADistribution):
        probability_transport_check(result, [0.5, 0.5])
    with pytest.raises(ValueError):
        probability_transport_check(result, np.ones(3) / 3.0, "sideways")
