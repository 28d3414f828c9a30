"""Reduced graphs, interpolation/projection operators, probability transport."""

import dataclasses
import importlib
import types

import numpy as np
import pytest

import support as S
from support import TOL_TRANSPORT
from lapcoarse.coarsen import (
    _aggregate_edges,
    _cross_check,
    coarsen,
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
from lapcoarse.graph import build_graph, is_undirected, laplacian
from lapcoarse.io import export_dot, serialize_graph
from lapcoarse.kernels import _check_basis, kernels_in
from lapcoarse.riesz import riesz_from_kernels


def test_triangle_reduction_values():
    g = S.triangle()
    result = coarsen(g, S.triangle_cluster(g), "undirected")
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
    result = coarsen(g, S.triangle_cluster(g), "undirected")
    assert np.array_equal(result.up, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(result.down, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    background = laplacian(S.triangle_cluster(g).background(), "in").matrix
    projected = result.down @ background @ result.up
    assert np.abs(projected - result.reduced_laplacian.matrix).max() <= 1e-12


def test_no_clusters_means_identity_coarsening():
    g = S.triangle()
    cs = build_cluster_set(g, [], "undirected")
    result = coarsen(g, cs, "undirected")
    assert result.reduced == g
    assert np.array_equal(result.up, np.eye(3))
    assert np.array_equal(result.down, np.eye(3))


def test_hub_pair_reductions_with_unit_attachment_coincide():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    for result in (coarsen(g, cs, "in"), coarsen(g, cs, "out")):
        red = result.reduced
        assert red.nodes == ("1", "2+3")
        assert np.allclose(red.masses, [1.0, 2.0], atol=1e-12)
        weights = {(s, d): w for s, d, w in red.edges()}
        assert abs(weights[("1", "2+3")] - 2.0) <= 1e-12
        assert abs(weights[("2+3", "1")] - 2.0) <= 1e-12


def test_asymmetric_attachment_separates_the_two_reductions():
    g = S.hub_pair(w13=2.0)
    cs = S.hub_pair_cluster(g)
    into_pair_in = {(s, d): w for s, d, w in coarsen(g, cs, "in").reduced.edges()}
    into_pair_out = {(s, d): w for s, d, w in coarsen(g, cs, "out").reduced.edges()}
    assert abs(into_pair_in[("1", "2+3")] - 2 * 29 / 18) <= 1e-12
    assert abs(into_pair_out[("1", "2+3")] - 3.0) <= 1e-12
    assert coarsen(g, cs, "in").reduced != coarsen(g, cs, "out").reduced


def test_source_pair_reduction_loses_connectivity():
    g = S.two_sources()
    result = coarsen(g, S.two_sources_cluster(g), "in")
    assert list(result.reduced.edges()) == []
    assert result.reduced.masses.tolist() == [1.0, 2.0]
    assert np.array_equal(result.reduced_laplacian.matrix, np.zeros((2, 2)))


def test_all_three_modes_agree_on_undirected_input():
    g = S.triangle()
    und = coarsen(g, S.triangle_cluster(g), "undirected")
    directed_cs = build_cluster_set(g, S.TRIANGLE_CLUSTER, "directed")
    for result in (coarsen(g, directed_cs, "in"), coarsen(g, directed_cs, "out")):
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
    result = coarsen(g, build_cluster_set(g, cluster, "undirected"), "undirected")
    assert result.reduced.nodes == ("x+y+z",)
    assert list(result.reduced.edges()) == []
    assert result.reduced_laplacian.matrix.tolist() == [[0.0]]


def test_mode_and_orientation_mismatches_are_rejected():
    g = S.hub_pair()
    directed_cs = S.hub_pair_cluster(g)
    with pytest.raises(ClusterViolation):
        coarsen(g, directed_cs, "undirected")
    undirected_cs = build_cluster_set(g, S.HUB_PAIR_CLUSTER, "undirected")
    with pytest.raises(NotUndirected):
        coarsen(g, undirected_cs, "undirected")
    with pytest.raises(ClusterViolation):
        coarsen(g, undirected_cs, "in")
    with pytest.raises(ValueError):
        coarsen(g, directed_cs, "diagonal")


def test_coarsening_result_is_read_only():
    g = S.triangle()
    result = coarsen(g, S.triangle_cluster(g), "undirected")
    assert not result.down.flags.writeable
    assert not result.up.flags.writeable
    with pytest.raises(ValueError):
        result.down[0, 0] = 7.0


def test_structural_invariants_on_random_undirected_fixtures():
    rng = np.random.default_rng(37)
    for _ in range(25):
        g = S.random_graph(rng, undirected=True)
        pairs = S.random_cluster_pairs(rng, g, undirected=True)
        cs = build_cluster_set(g, pairs, "undirected")
        result = coarsen(g, cs, "undirected")
        assert is_undirected(result.reduced)
        assert np.abs(result.up @ result.down - riesz_from_kernels(result.basis)).max() <= 1e-10
        assert np.abs(result.down @ result.up - np.eye(result.size)).max() <= 1e-10
        assert abs(result.reduced.masses.sum() - g.masses.sum()) <= 1e-12 * g.masses.sum()
        mat = result.reduced_laplacian.matrix
        scale = max(1.0, np.abs(mat).max())
        assert np.abs(mat @ np.ones(result.size)).max() <= 1e-10 * scale
        off = mat - np.diag(np.diag(mat))
        assert off.max(initial=0.0) <= 1e-12 * scale
        # the closed-form basis is the in-degree one of the same edges
        basis = result.basis
        assert basis.kind == "in"
        _check_basis(laplacian(cs.subgraph(), "in").matrix, g.masses,
                     basis.right, basis.left, basis.right, basis.split)
        directed = kernels_in(g, build_cluster_set(g, pairs, "directed"))
        assert sorted(directed.labels) == sorted(basis.labels)
        for label in basis.labels:
            want = directed.left_vector(label)
            got = basis.left_vector(label)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # component indicators, their exact mass sums and the aggregated weights
        indicator = np.zeros((g.n, result.size))
        for col, label in enumerate(result.reduced.nodes):
            indicator[[g.index(v) for v in result.node_map[label]], col] = 1.0
        assert np.array_equal(result.up, indicator)
        assert np.array_equal(result.reduced.masses, indicator.T @ g.masses)
        aggregate = indicator.T @ cs.background().weights @ indicator
        np.fill_diagonal(aggregate, 0.0)
        resid = np.abs(result.reduced.weights - aggregate).max()
        assert resid <= 1e-14 * np.abs(aggregate).max(initial=1.0)


@pytest.mark.parametrize(
    "masses, edges, cluster, want",
    [
        # 1/49 is inexact, so mass * (weight / mass) is not the weight
        (
            {"p": 24.0, "q": 25.0, "s": 1.0},
            S.sym("p", "q") + S.sym("q", "s"),
            S.sym_pairs("p", "q"),
            [("p+q", "s", 1.0), ("s", "p+q", 1.0)],
        ),
        # the block and its transpose sum 0.1 + 0.1 + 0.2 + 0.3 in two orders
        (
            dict.fromkeys("abcd", 1.0),
            S.sym("a", "b") + S.sym("c", "d") + S.sym("a", "c", 0.1)
            + S.sym("a", "d", 0.1) + S.sym("b", "c", 0.2) + S.sym("b", "d", 0.3),
            S.sym_pairs("a", "b") + S.sym_pairs("c", "d"),
            None,
        ),
    ],
    ids=["non-dyadic-mass", "block-sum-order"],
)
def test_undirected_reduction_is_exactly_symmetric(masses, edges, cluster, want):
    g = build_graph(masses.items(), edges)
    red = coarsen(g, build_cluster_set(g, cluster, "undirected"), "undirected").reduced
    if want is not None:
        assert sorted(red.edges()) == want
    assert is_undirected(red)
    assert '"directed": false' in serialize_graph(red)
    assert export_dot(red).startswith("graph ")
    joined = [(u, v) for u, v, _ in red.edges()]
    again = coarsen(red, build_cluster_set(red, joined, "undirected"), "undirected")
    assert again.reduced.nodes == ("+".join(sorted(g.nodes)),)


def test_structural_invariants_on_random_directed_fixtures():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = S.random_graph(rng)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        for result in (coarsen(g, cs, "in"), coarsen(g, cs, "out")):
            assert np.abs(result.up @ result.down - riesz_from_kernels(result.basis)).max() <= 1e-10
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
    want = coarsen(g, build_cluster_set(g, cluster, "undirected"), "undirected").reduced
    cs = build_cluster_set(g, cluster, "directed")
    for result in (coarsen(g, cs, "in"), coarsen(g, cs, "out")):
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
    _check_basis(lap, g.masses, right, left, right, basis.split)


def _projector_gate():
    g = S.hub_pair()
    basis = kernels_in(g, S.hub_pair_cluster(g))
    riesz_from_kernels(dataclasses.replace(basis, left=_nan_at(basis.left, (2, 1))))


def _cross_check_gate(field):
    g = S.triangle()
    r = coarsen(g, S.triangle_cluster(g), "undirected")
    compressed, down = r.reduced_laplacian.matrix, r.down
    graph = g
    if field == "laplacian":
        compressed = _nan_at(compressed, (0, 1))
    elif field == "identity":
        down = _nan_at(down, (1, 2))
    else:
        graph = types.SimpleNamespace(masses=_nan_at(g.masses, 0))
    _cross_check("undirected", graph, down, r.up, r.reduced, compressed, "in", r.split)


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


@pytest.mark.parametrize(
    "gate, error",
    [
        (lambda: _basis_gate("right"), KernelDefect),
        (lambda: _basis_gate("left"), KernelDefect),
        (_projector_gate, ProjectorDefect),
        (lambda: _cross_check_gate("identity"), ReductionMismatch),
    ],
    ids=["basis-right", "basis-left", "projector", "cross-check-identity"],
)
def test_block_gates_fail_on_nan(gate, error, monkeypatch):
    monkeypatch.setattr(importlib.import_module("lapcoarse.kernels"), "_BLOCKS_FROM", 0)
    with pytest.raises(error):
        gate()


@pytest.mark.parametrize("blocks_from", [0, None], ids=["blocks", "default"])
def test_basis_and_projector_gates_reject_entries_off_the_blocks(blocks_from, monkeypatch):
    if blocks_from is not None:
        kernels = importlib.import_module("lapcoarse.kernels")
        monkeypatch.setattr(kernels, "_BLOCKS_FROM", blocks_from)
    g = S.hub_pair()
    basis = kernels_in(g, S.hub_pair_cluster(g))
    outside, reach = g.index("1"), basis.labels.index("2+3")
    stray = np.array(basis.right)
    stray[outside, reach] = 1e-3
    # on the blocks only the count of entries off them sees this one
    count = r"pairing and off-block entries 1\.0" if blocks_from == 0 else None
    with pytest.raises(KernelDefect, match=count):
        lap = laplacian(basis.cluster_set.subgraph(), "in").matrix
        _check_basis(lap, g.masses, stray, basis.left, stray, basis.split)
    with pytest.raises(ProjectorDefect, match="off-block entries 1"):
        riesz_from_kernels(dataclasses.replace(basis, right=stray))


@pytest.mark.parametrize("blocks_from", [0, None], ids=["blocks", "default"])
def test_identity_gate_rejects_entries_off_the_blocks(blocks_from, monkeypatch):
    if blocks_from is not None:
        kernels = importlib.import_module("lapcoarse.kernels")
        monkeypatch.setattr(kernels, "_BLOCKS_FROM", blocks_from)
    g = S.triangle()
    r = coarsen(g, S.triangle_cluster(g), "undirected")
    stray = np.array(r.down)
    stray[r.reduced.index("b+c"), g.index("a")] = 1e-3
    with pytest.raises(ReductionMismatch, match="down @ up"):
        _cross_check(
            "undirected", g, stray, r.up, r.reduced, r.reduced_laplacian.matrix, "in", r.split
        )


def off_unit_mass_case(rng, mode: str):
    """A random graph whose nodes outside the clusters weigh 49, and its cluster set.

    fl(1/49) * 49 is not 1, so the outside diagonal of ``down`` (in and
    undirected modes) or ``up`` (out mode) is not 1 either.
    """
    undirected = mode == "undirected"
    g = S.random_graph(rng, max_nodes=14, undirected=undirected)
    pairs = S.random_cluster_pairs(rng, g, undirected=undirected)
    kind = "undirected" if undirected else "directed"
    inside = build_cluster_set(g, pairs, kind).cluster_nodes
    nodes = [(v, g.mass(v) if v in inside else 49.0) for v in g.nodes]
    graph = build_graph(nodes, list(g.edges()))
    return graph, build_cluster_set(graph, pairs, kind)


@pytest.mark.parametrize("blocks_from", [0, None], ids=["blocks", "default"])
@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_block_coarsening_equals_the_whole_matrix_products(mode, blocks_from, monkeypatch):
    if blocks_from is not None:
        kernels = importlib.import_module("lapcoarse.kernels")
        monkeypatch.setattr(kernels, "_BLOCKS_FROM", blocks_from)
    assert (1.0 / 49.0) * 49.0 != 1.0
    rng = np.random.default_rng(97)
    off_unit = 0
    for _ in range(12):
        g, cs = off_unit_mass_case(rng, mode)
        result = coarsen(g, cs, mode)
        down, up, aggregate = S.oracle_coarsening(result)
        np.fill_diagonal(aggregate, 0.0)
        scale = max(1.0, float(np.abs(aggregate).max()))
        # formed entrywise, so equal to the last bit
        assert np.array_equal(result.down, down) and np.array_equal(result.up, up)
        assert np.abs(result.reduced.weights - aggregate).max() <= S.TOL_BLOCKS * scale
        split = result.split
        off_unit += int(np.sum(split.diagonal(result.down.T) * split.diagonal(result.up) != 1.0))
    assert off_unit > 0


def test_result_split_follows_the_reduced_node_order():
    # overlapping in-mode reaches whose labels sort out of decomposition order
    rng = np.random.default_rng(5)
    for _ in range(300):
        g = S.random_graph(rng)
        r = coarsen(g, build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed"), "in")
        if list(r.basis.labels) != list(r.reduced.nodes):
            break
    else:
        pytest.fail("no fixture reorders the reduced nodes")
    assert r.split.parts == tuple(frozenset(r.node_map[label]) for label in r.reduced.nodes)
    for vectors in (r.up, r.down.T):
        assert r.split.blocks(vectors)[2] == 0


# -- probability transport -------------------------------------------------------


def test_uniform_distribution_survives_undirected_transport():
    g = S.triangle()
    result = coarsen(g, S.triangle_cluster(g), "undirected")
    report = probability_transport_check(result, np.ones(3) / 3.0, "down")
    assert report.residual <= TOL_TRANSPORT
    back = probability_transport_check(result, report.transported, "up")
    assert back.residual <= TOL_TRANSPORT


def test_point_mass_survives_in_mode_transport():
    g = S.two_sources()
    result = coarsen(g, S.two_sources_cluster(g), "in")
    down = probability_transport_check(result, [0.0, 0.0, 1.0], "down")
    assert down.input_total == 1.0
    assert down.residual <= TOL_TRANSPORT
    up = probability_transport_check(result, down.transported, "up")
    assert up.residual <= TOL_TRANSPORT


def test_transport_rejects_non_distributions():
    g = S.triangle()
    result = coarsen(g, S.triangle_cluster(g), "undirected")
    with pytest.raises(NotADistribution):
        probability_transport_check(result, [0.5, 0.5, -0.5])
    with pytest.raises(NotADistribution):
        probability_transport_check(result, [1.0, 1.0, 1.0])
    with pytest.raises(NotADistribution):
        probability_transport_check(result, [0.5, 0.5])
    with pytest.raises(ValueError):
        probability_transport_check(result, np.ones(3) / 3.0, "sideways")


@pytest.mark.parametrize("direction, distribution", [
    ("down", [np.nan, 0.5, 0.5]),
    ("up", [np.nan, 0.5]),
])
def test_transport_rejects_nan_entries(direction, distribution):
    g = S.triangle()
    result = coarsen(g, S.triangle_cluster(g), "undirected")
    with pytest.raises(NotADistribution):
        probability_transport_check(result, distribution, direction)
