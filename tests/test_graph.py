"""Graph construction, Laplacian assembly, and the mass-weighted geometry."""

import numpy as np
import pytest

import support as S
from lapcoarse.errors import (
    DuplicateEdge,
    DuplicateNode,
    EmptyGraph,
    NonPositiveMass,
    NonPositiveWeight,
    NotUndirected,
    UnknownEndpoint,
)
from lapcoarse.graph import (
    Graph,
    build_graph,
    degrees,
    drop_edges,
    is_undirected,
    laplacian,
    restrict_edges,
    transpose,
    validate_boundedness,
)
from lapcoarse.numerics import weighted_opnorm
from oracles import dirichlet_form, from_weight_matrix, laplacian_three_pass, scale_edges


def triangle_beta(beta):
    """Unit triangle with the b-c edge scaled by beta in both orientations."""
    return scale_edges(S.triangle(), S.TRIANGLE_CLUSTER, beta)


# -- construction -------------------------------------------------------------


def test_nodes_are_ordered_lexicographically():
    g = build_graph([("zeta", 1.0), ("alpha", 2.0), ("mid", 3.0)])
    assert g.nodes == ("alpha", "mid", "zeta")
    assert g.masses.tolist() == [2.0, 3.0, 1.0]


def test_drawn_edge_is_stored_at_terminal_row():
    g = build_graph([("u", 1.0), ("v", 1.0)], [("u", "v", 3.5)])
    assert g.weights[g.index("v"), g.index("u")] == 3.5
    assert g.has_edge("u", "v")
    assert not g.has_edge("v", "u")
    assert list(g.edges()) == [("u", "v", 3.5)]


def test_single_node_graph_has_zero_laplacian():
    g = build_graph([("v", 1.0)])
    for kind in ("in", "out"):
        lap = laplacian(g, kind)
        assert lap.shape == (1, 1)
        assert lap[0, 0] == 0.0


def test_construction_rejects_bad_input():
    nodes = [("a", 1.0), ("b", 1.0)]
    with pytest.raises(NonPositiveWeight):
        build_graph(nodes, [("a", "b", 0.0)])
    with pytest.raises(NonPositiveWeight):
        build_graph(nodes, [("a", "b", -2.0)])
    with pytest.raises(NonPositiveMass):
        build_graph([("a", 0.0)], [])
    with pytest.raises(UnknownEndpoint):
        build_graph(nodes, [("a", "c", 1.0)])
    with pytest.raises(UnknownEndpoint):
        build_graph(nodes, [("c", "a", 1.0)])
    with pytest.raises(DuplicateEdge):
        build_graph(nodes, [("a", "b", 1.0), ("a", "b", 1.0)])
    with pytest.raises(DuplicateNode):
        build_graph([("a", 1.0), ("a", 2.0)])
    with pytest.raises(EmptyGraph):
        build_graph([])
    with pytest.raises(NonPositiveWeight):
        from_weight_matrix(("a", "b"), [1.0, 1.0], [[0.0, -1.0], [0.0, 0.0]])


def test_graph_copies_its_arrays_and_drops_self_loops():
    masses = np.array([1.0, 2.0])
    weights = np.array([[5.0, 1.0], [2.0, 0.0]])
    g = Graph(("a", "b"), masses, weights)
    assert g.weights.tolist() == [[0.0, 1.0], [2.0, 0.0]]
    assert not g.masses.flags.writeable and not g.weights.flags.writeable
    # the caller's arrays stay writable and unchanged
    assert masses.flags.writeable and weights.flags.writeable
    assert masses.tolist() == [1.0, 2.0] and weights.tolist() == [[5.0, 1.0], [2.0, 0.0]]
    masses[0] = 9.0
    assert g.masses.tolist() == [1.0, 2.0]


def test_self_loops_cancel_from_both_laplacians():
    nodes = [("a", 1.0), ("b", 1.0)]
    edges = [("a", "b", 1.0), ("b", "a", 1.0)]
    g = build_graph(nodes, [("a", "a", 1e17)] + edges)
    assert g == build_graph(nodes, edges)
    for kind in ("in", "out"):
        assert laplacian(g, kind).tolist() == [[1.0, -1.0], [-1.0, 1.0]]


# -- Laplacians ----------------------------------------------------------------


def test_triangle_laplacian_matches_closed_form():
    beta = 10.0
    g = triangle_beta(beta)
    base = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    bump = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian(g, "in"), base + beta * bump)

    masses = np.array([1.0, 2.0, 4.0])
    heavy = build_graph(
        [(v, m) for v, m in zip("abc", masses)], list(g.edges())
    )
    expected = (base + beta * bump) / masses[:, np.newaxis]
    assert np.array_equal(laplacian(heavy, "in"), expected)


def test_in_laplacian_annihilates_constants():
    ones = np.ones(3)
    assert np.array_equal(laplacian(triangle_beta(10.0), "in") @ ones, np.zeros(3))
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = S.random_graph(rng)
        mat = laplacian(g, "in")
        scale = max(1.0, np.abs(mat).max())
        assert np.abs(mat @ np.ones(g.n)).max() <= 1e-12 * scale


def test_out_laplacian_mass_weighted_column_sums_vanish():
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = S.random_graph(rng)
        mat = laplacian(g, "out")
        scale = max(1.0, np.abs(mat).max())
        assert np.abs(g.masses @ mat).max() <= 1e-12 * scale


def test_laplacian_sign_pattern():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = S.random_graph(rng)
        for kind in ("in", "out"):
            mat = laplacian(g, kind)
            off = mat - np.diag(np.diag(mat))
            assert off.max(initial=0.0) <= 0.0
            assert np.diag(mat).min(initial=0.0) >= 0.0


def test_laplacian_is_bit_identical_to_the_three_pass_formula():
    """Signed zeros included, in both kinds, on graphs with and without self-loops."""
    rng = np.random.default_rng(11)
    graphs = [S.random_graph(rng) for _ in range(10)]
    names = [f"n{k:02d}" for k in range(50)]
    loops = [(v, v, float(rng.uniform(0.5, 2.0))) for v in names[::3]]
    chain = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in zip(names, names[1:])]
    masses = [(v, float(rng.uniform(0.5, 2.0))) for v in names]
    graphs.append(build_graph(masses, loops + chain))
    for g in graphs:
        for kind in ("in", "out"):
            got, want = laplacian(g, kind), laplacian_three_pass(g, kind)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_degrees_row_and_column_sums():
    g = S.hub_pair()
    assert np.array_equal(degrees(g, "in"), g.weights.sum(axis=1))
    assert np.array_equal(degrees(g, "out"), g.weights.sum(axis=0))
    with pytest.raises(ValueError):
        degrees(g, "sideways")


# -- transpose -----------------------------------------------------------------


def test_transpose_reverses_arrows_and_is_involutive():
    g = S.branching_chain()
    gt = transpose(g)
    assert gt.weights[gt.index("a"), gt.index("b")] == S.ALPHA
    assert not gt.has_edge("a", "b")
    assert gt.has_edge("b", "a")
    assert transpose(gt) == g
    assert np.array_equal(gt.masses, g.masses)

    single = build_graph([("i", 1.0), ("j", 1.0)], [("j", "i", 4.0)])
    assert list(transpose(single).edges()) == [("i", "j", 4.0)]


def test_transpose_of_undirected_graph_is_identity():
    g = triangle_beta(3.0)
    assert transpose(g) == g
    assert is_undirected(g)
    assert not is_undirected(S.hub_pair())


def test_out_laplacian_is_mass_adjoint_of_transposed_in_laplacian():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = S.random_graph(rng)
        m = g.masses
        lhs = laplacian(g, "out")
        rhs = (laplacian(transpose(g), "in").T * m[np.newaxis, :]) / m[:, np.newaxis]
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-14 * scale


def test_undirected_laplacians_coincide_and_symmetrize_psd():
    g = triangle_beta(3.0)
    lin = laplacian(g, "in")
    assert np.array_equal(lin, laplacian(g, "out"))
    s = np.sqrt(g.masses)
    sym = lin * s[:, np.newaxis] / s[np.newaxis, :]
    assert np.linalg.eigvalsh((sym + sym.T) / 2).min() >= -1e-10


# -- boundedness ----------------------------------------------------------------


def test_boundedness_constant_on_fixtures():
    g = S.triangle()
    assert validate_boundedness(g) == 2.0
    for kind in ("in", "out"):
        assert weighted_opnorm(laplacian(g, kind), g.masses) <= 4.0 + 1e-12

    assert validate_boundedness(build_graph([("v", 1.0)])) == 0.0

    for n in (4, 6, 8):
        light = build_graph(
            [(f"v{k}", 1.0 / n) for k in range(n)],
            [
                (f"v{i}", f"v{j}", 1.0)
                for i in range(n)
                for j in range(n)
                if i != j
            ],
        )
        c = validate_boundedness(light)
        assert c == n * (n - 1)
        norm = weighted_opnorm(laplacian(light, "in"), light.masses)
        assert norm <= 2 * c * (1 + 1e-10)


def test_laplacian_norms_bounded_by_twice_degree_mass_ratio():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = S.random_graph(rng)
        bound = 2 * validate_boundedness(g) * (1 + 1e-10)
        for kind in ("in", "out"):
            assert weighted_opnorm(laplacian(g, kind), g.masses) <= bound


# -- Dirichlet form --------------------------------------------------------------


def test_dirichlet_form_of_constants_vanishes():
    assert dirichlet_form(triangle_beta(5.0), np.ones(3)) == 0.0


def test_dirichlet_form_matches_quadratic_form_on_triangle():
    g = S.triangle()
    f = np.array([1.0, 0.0, 0.0])
    energy = dirichlet_form(g, f)
    assert energy == 2.0
    assert g.inner(f, laplacian(g, "in") @ f) == 2.0


def test_dirichlet_form_ignores_edges_inside_level_sets():
    f = np.array([0.0, 1.0, 1.0])
    assert dirichlet_form(triangle_beta(7.0), f) == dirichlet_form(S.triangle(), f)
    assert dirichlet_form(triangle_beta(7.0), f) == 2.0


def test_dirichlet_form_requires_symmetry():
    with pytest.raises(NotUndirected):
        dirichlet_form(S.hub_pair(), np.zeros(3))


def test_dirichlet_form_equals_inner_product_with_laplacian():
    rng = np.random.default_rng(31)
    for _ in range(30):
        g = S.random_graph(rng, undirected=True)
        f = rng.normal(size=g.n)
        energy = dirichlet_form(g, f)
        quad = float(np.real(g.inner(f, laplacian(g, "in") @ f)))
        assert abs(energy - quad) <= 1e-12 * max(1.0, abs(energy))


# -- edge surgery ----------------------------------------------------------------


def test_restrict_keeps_nodes_and_listed_edges_only():
    g = S.hub_pair()
    sub = restrict_edges(g, S.HUB_PAIR_CLUSTER)
    assert sub.nodes == g.nodes
    assert set(sub.edge_pairs()) == set(S.HUB_PAIR_CLUSTER)
    with pytest.raises(UnknownEndpoint):
        restrict_edges(g, [("2", "2")])


def test_drop_is_the_complement_of_restrict():
    g = S.hub_pair()
    bg = drop_edges(g, S.HUB_PAIR_CLUSTER)
    assert set(bg.edge_pairs()) | set(S.HUB_PAIR_CLUSTER) == set(g.edge_pairs())
    assert not set(bg.edge_pairs()) & set(S.HUB_PAIR_CLUSTER)
    # dropping a non-edge between existing nodes is a no-op
    assert drop_edges(g, [("2", "2")]) == g


def test_scale_multiplies_selected_weights():
    g = S.triangle()
    scaled = scale_edges(g, S.TRIANGLE_CLUSTER, 100.0)
    assert scaled.weights[scaled.index("c"), scaled.index("b")] == 100.0
    assert scaled.weights[scaled.index("b"), scaled.index("a")] == 1.0
    with pytest.raises(NonPositiveWeight):
        scale_edges(g, S.TRIANGLE_CLUSTER, 0.0)
    with pytest.raises(UnknownEndpoint):
        scale_edges(g, [("a", "a")], 2.0)


def test_inner_product_is_mass_weighted_and_positive():
    g = build_graph([("a", 2.0), ("b", 3.0)])
    f = np.array([1.0, 2.0])
    assert g.inner(f, f) == 1 * 2.0 + 4 * 3.0
    assert g.norm(f) == np.sqrt(14.0)
    assert g.inner(np.zeros(2), np.zeros(2)) == 0.0
