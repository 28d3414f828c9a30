"""Weight vectors by tree enumeration, cofactors and GTH; biorthogonal kernel bases."""

import numpy as np
import pytest

import support as S
from support import TOL_WEIGHT_VECTOR
from lapcoarse.connectivity import build_cluster_set, reaches
from lapcoarse.errors import ClusterViolation
from lapcoarse.graph import build_graph, laplacian, transpose
from lapcoarse import kernels
from lapcoarse.kernels import kernels_in, kernels_out, kernels_undirected
from lapcoarse.numerics import solve
from oracles import (
    ReachTooLargeForEnumeration,
    left_kernel_in,
    principal_angle_gap,
    right_kernel_in,
    svd_nullspace,
    weight_vector_bruteforce,
    weight_vector_matrix,
)


def reach_by_root(graph, root):
    return reaches(graph).reach_of_cabal_node(root).nodes


def assert_parallel(got: dict, want: dict, rel=1e-12):
    assert set(got) == set(want)
    scale = max(want.values())
    for node, value in want.items():
        assert abs(got[node] - value) <= rel * scale


# -- weight vectors ------------------------------------------------------------


def test_single_root_chain_weight_vector():
    g = S.branching_chain()
    values = weight_vector_bruteforce(g, reach_by_root(g, "a"))
    assert values == {"a": 30.0, "b": 0.0, "c": 0.0, "d": 0.0}


def test_two_chain_weight_vectors():
    g = S.two_chains()
    assert weight_vector_bruteforce(g, reach_by_root(g, "a")) == {"a": 2.0, "b": 0.0}
    assert weight_vector_bruteforce(g, reach_by_root(g, "c")) == {"c": 5.0, "d": 0.0}


def test_braided_chain_weight_vector_counts_every_tree():
    # four rooted spanning trees: 2*11*3 + 2*3*5 + 2*7*5 + 2*7*11 = 320
    g = S.braided_chain()
    values = weight_vector_bruteforce(g, reach_by_root(g, "a"))
    assert values["a"] == 320.0
    assert all(values[v] == 0.0 for v in "bcd")


def test_transposed_chain_weight_vectors():
    g = transpose(S.branching_chain())
    assert weight_vector_bruteforce(g, reach_by_root(g, "b")) == {"a": 0.0, "b": 2.0}
    assert weight_vector_bruteforce(g, reach_by_root(g, "d")) == {
        "a": 0.0,
        "c": 0.0,
        "d": 15.0,
    }

    g2 = transpose(S.two_chains())
    assert weight_vector_bruteforce(g2, reach_by_root(g2, "b"))["b"] == 2.0
    assert weight_vector_bruteforce(g2, reach_by_root(g2, "d"))["d"] == 5.0


def test_transposed_braided_chain_weight_vector():
    # trees rooted at d: 11*2*5 + 5*3*11 + 5*7*3 + 2*7*5 = 450
    g = transpose(S.braided_chain())
    values = weight_vector_bruteforce(g, reach_by_root(g, "d"))
    assert values["d"] == 450.0
    assert all(values[v] == 0.0 for v in "abc")


def test_single_node_reach_has_unit_weight():
    g = S.two_sources()
    assert weight_vector_bruteforce(g, {"1"}) == {"1": 1.0}
    assert weight_vector_matrix(g, {"1"}) == {"1": 1.0}


def test_cluster_subgraph_weight_vector():
    g = S.two_sources()
    sub = S.two_sources_cluster(g).subgraph()
    assert weight_vector_bruteforce(sub, {"2", "3"}) == {"2": 1.0, "3": 0.0}


def test_enumeration_guard_rejects_large_reaches():
    n = 13
    names = [f"c{k:02d}" for k in range(n)]
    ring = build_graph(
        [(v, 1.0) for v in names],
        [(names[k], names[(k + 1) % n], 1.0) for k in range(n)],
    )
    with pytest.raises(ReachTooLargeForEnumeration):
        weight_vector_bruteforce(ring, set(names))
    # the cofactor route has no such size limit
    values = weight_vector_matrix(ring, set(names))
    assert all(abs(v - 1.0) <= 1e-10 for v in values.values())


def test_matrix_route_matches_enumeration_on_fixtures():
    for g in (
        S.branching_chain(),
        S.braided_chain(),
        transpose(S.braided_chain()),
        S.hub_pair(),
    ):
        for reach in reaches(g):
            brute = weight_vector_bruteforce(g, reach.nodes)
            assert_parallel(weight_vector_matrix(g, reach.nodes), brute)


def test_matrix_route_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(47)
    for _ in range(40):
        g = S.random_graph(rng, weight_range=(0.1, 10.0))
        for reach in reaches(g):
            brute = weight_vector_bruteforce(g, reach.nodes)
            assert_parallel(weight_vector_matrix(g, reach.nodes), brute, rel=1e-10)


def wide_weight_graphs(count: int, seed: int):
    """Random digraphs with edge weights log-uniform on 1e-8..1e8."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        g = S.random_graph(rng, max_nodes=9)
        edges = [(s, d, float(10.0 ** rng.uniform(-8, 8))) for s, d, _ in g.edges()]
        graphs.append(build_graph(zip(g.nodes, g.masses.tolist()), edges))
    return graphs


@pytest.mark.parametrize("kind", ["in", "out"])
def test_tree_vectors_match_enumeration_componentwise(kind):
    """Kernel tree vectors equal normalized enumerated weights, entry by entry."""
    graphs = [S.branching_chain(), S.braided_chain(), S.hub_pair(), S.clique(5)]
    for g in graphs + wide_weight_graphs(60, 11):
        cs = build_cluster_set(g, list(g.edge_pairs()), "directed")
        if kind == "in":
            trees = cs.subgraph()
            basis = kernels_in(g, cs)
            dec, vectors = basis.decomposition, basis.left
        else:
            trees = transpose(cs.subgraph())
            basis = kernels_out(g, cs)
            dec, vectors = basis.decomposition, basis.right
        for k, reach in enumerate(dec):
            brute = weight_vector_bruteforce(trees, reach.nodes)
            total = sum(w * g.masses[g.index(v)] for v, w in brute.items())
            got = vectors[:, k]
            for v in g.nodes:
                want = brute.get(v, 0.0) / total
                assert abs(got[g.index(v)] - want) <= TOL_WEIGHT_VECTOR * want


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_common_blocks_solve_at_any_weight_scale(seed):
    """Interpolation values on common parts are probabilities, however wide the weights."""
    for g in wide_weight_graphs(60, seed):
        cs = build_cluster_set(g, list(g.edge_pairs()), "directed")
        for basis in (kernels_in(g, cs), kernels_out(g, cs)):
            indicators = basis.right if basis.kind == "in" else basis.left
            assert indicators.min() >= -1e-12
            assert indicators.max() <= 1.0 + 1e-12


# -- kernel bases ----------------------------------------------------------------


def test_hub_pair_in_kernels():
    g = S.hub_pair()
    basis = kernels_in(g, S.hub_pair_cluster(g))
    assert basis.kind == "in"
    assert basis.labels == ("1", "2+3")
    assert np.array_equal(basis.right_vector("1"), [1.0, 0.0, 0.0])
    assert np.array_equal(basis.right_vector("2+3"), [0.0, 1.0, 1.0])
    assert np.allclose(
        basis.left_vector("2+3"), np.array([0.0, S.RHO, S.ETA]) / 18.0, atol=1e-14
    )
    assert np.array_equal(basis.left_vector("1"), [1.0, 0.0, 0.0])


def test_hub_pair_out_kernels_swap_tree_and_indicator_roles():
    g = S.hub_pair()
    basis = kernels_out(g, S.hub_pair_cluster(g))
    assert basis.kind == "out"
    assert np.allclose(
        basis.right_vector("2+3"), np.array([0.0, S.ETA, S.RHO]) / 18.0, atol=1e-14
    )
    assert np.array_equal(basis.left_vector("2+3"), [0.0, 1.0, 1.0])
    # the indicator family is the partition of unity on the left
    assert np.allclose(basis.left.sum(axis=1), 1.0, atol=1e-14)


def test_source_pair_in_kernels():
    g = S.two_sources()
    basis = kernels_in(g, S.two_sources_cluster(g))
    assert np.array_equal(basis.right_vector("2+3"), [0.0, 1.0, 1.0])
    assert np.array_equal(basis.left_vector("2+3"), [0.0, 1.0, 0.0])


def test_single_reach_right_kernel_is_constant():
    names = ["x", "y", "z"]
    cycle = build_graph(
        [(v, 1.0) for v in names],
        [("x", "y", 2.0), ("y", "z", 3.0), ("z", "x", 5.0)],
    )
    cs = build_cluster_set(cycle, list(cycle.edge_pairs()), "directed")
    basis = kernels_in(cycle, cs)
    assert basis.size == 1
    assert np.array_equal(basis.right[:, 0], np.ones(3))


def test_node_disjoint_reaches_have_indicator_right_kernels():
    g = S.two_chains()
    cs = build_cluster_set(g, list(g.edge_pairs()), "directed")
    basis = kernels_in(g, cs)
    assert basis.labels == ("a+b", "c+d")
    assert np.array_equal(basis.right_vector("a+b"), [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(basis.right_vector("c+d"), [0.0, 0.0, 1.0, 1.0])


def test_undirected_cluster_left_kernel_is_normalized_indicator():
    g = S.triangle()
    cs = build_cluster_set(g, S.TRIANGLE_CLUSTER, "directed")
    basis = kernels_in(g, cs)
    assert np.allclose(basis.left_vector("b+c"), [0.0, 0.5, 0.5], atol=1e-14)
    assert np.array_equal(basis.right_vector("b+c"), [0.0, 1.0, 1.0])

    out = kernels_out(g, cs)
    assert np.allclose(out.right_vector("b+c"), basis.left_vector("b+c"), atol=1e-14)
    assert np.array_equal(out.left_vector("b+c"), basis.right_vector("b+c"))


def test_right_and_left_kernel_convenience_accessors():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    basis = kernels_in(g, cs)
    rights = right_kernel_in(g, cs)
    lefts = left_kernel_in(g, cs)
    assert len(rights) == len(lefts) == basis.size
    for k in range(basis.size):
        assert np.array_equal(rights[k], basis.right[:, k])
        assert np.array_equal(lefts[k], basis.left[:, k])


def test_kernel_basis_properties_on_random_digraphs():
    """Residuals, partition of unity, biorthogonality, and support ranges."""
    rng = np.random.default_rng(258)
    for _ in range(200):
        g = S.random_graph(rng, max_nodes=10, weight_range=(0.1, 10.0))
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        sub = cs.subgraph()
        for kind, basis in (
            ("in", kernels_in(g, cs)),
            ("out", kernels_out(g, cs)),
        ):
            lap = laplacian(sub, kind)
            scale = max(1.0, np.abs(lap).max())
            assert np.abs(lap @ basis.right).max() <= 1e-10 * scale
            assert np.abs((basis.left * g.masses[:, None]).T @ lap).max() <= 1e-10 * scale
            pairing = (basis.left * g.masses[:, None]).T @ basis.right
            assert np.abs(pairing - np.eye(basis.size)).max() <= 1e-10
            unity = basis.right if kind == "in" else basis.left
            assert np.abs(unity.sum(axis=1) - 1.0).max() <= 1e-10
            dec = basis.decomposition
            assert basis.size == len(dec)
            assert svd_nullspace(lap).shape[1] == basis.size
            tree_side = basis.left if kind == "in" else basis.right
            for k, reach in enumerate(dec):
                for v in g.nodes:
                    i = g.index(v)
                    if v not in reach.nodes:
                        assert unity[i, k] == 0.0
                        assert abs(tree_side[i, k]) <= 1e-10
                    elif v in reach.common:
                        assert 0.0 < unity[i, k] < 1.0
                    else:
                        assert abs(unity[i, k] - 1.0) <= 1e-10
                for v in reach.nodes - reach.cabal:
                    assert abs(tree_side[g.index(v), k]) <= 1e-10


def test_kernel_bases_agree_with_svd_null_spaces():
    rng = np.random.default_rng(252)
    for _ in range(50):
        g = S.random_graph(rng)
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        sub = cs.subgraph()
        for kind, basis in (
            ("in", kernels_in(g, cs)),
            ("out", kernels_out(g, cs)),
        ):
            null = svd_nullspace(laplacian(sub, kind))
            assert principal_angle_gap(basis.right, null) <= 1e-8


def loop_indicator_vectors(matrix, dec, index):
    """Reference: one solved column per reach, one-node reaches included."""
    cols = []
    for reach in dec:
        vec = np.zeros(matrix.shape[0])
        H = [index[v] for v in sorted(reach.exclusive)]
        C = [index[v] for v in sorted(reach.common)]
        vec[H] = 1.0
        if C:
            diag = np.diagonal(matrix)[C, np.newaxis]
            rhs = -(matrix[np.ix_(C, H)] / diag) @ np.ones(len(H))
            vec[C] = solve(matrix[np.ix_(C, C)] / diag, rhs)
        cols.append(vec)
    return np.column_stack(cols)


def loop_tree_vectors(sub, dec):
    """Reference: one GTH null vector per reach, one-node cabals included."""
    cols = []
    for reach in dec:
        order, W = kernels._restricted_weights(sub, reach.cabal)
        vec = np.zeros(sub.n)
        vec[[sub.index(v) for v in order]] = kernels._gth_null_vector(W)
        cols.append(vec / float(vec @ sub.masses))
    return np.column_stack(cols)


def test_one_node_reaches_fill_the_same_columns_as_the_loop():
    rng = np.random.default_rng(261)
    graphs = [S.random_graph(rng, max_nodes=12) for _ in range(60)]
    singles = 0
    for g in graphs + wide_weight_graphs(30, 262):
        cs = build_cluster_set(g, S.random_cluster_pairs(rng, g), "directed")
        index = {v: k for k, v in enumerate(g.nodes)}
        sub = cs.subgraph()
        sub_t = transpose(sub)
        for side, dec in ((sub, cs.decomposition), (sub_t, reaches(sub_t))):
            lap = laplacian(side, "in")
            assert np.array_equal(
                kernels._indicator_vectors(lap, dec, index),
                loop_indicator_vectors(lap, dec, index),
            )
            assert np.array_equal(
                kernels._tree_vectors(side, dec, index), loop_tree_vectors(side, dec)
            )
            singles += sum(len(reach.nodes) == 1 for reach in dec)
    assert singles > 100


@pytest.mark.parametrize("build", [kernels_in, kernels_out, kernels_undirected])
def test_builders_reject_a_cluster_set_of_another_graph(build):
    g1, g2 = S.triangle(), S.heavier_triangle()
    kind = "undirected" if build is kernels_undirected else "directed"
    cs1, cs2 = (build_cluster_set(g, S.TRIANGLE_CLUSTER, kind) for g in (g1, g2))
    with pytest.raises(ClusterViolation):
        build(g2, cs1)
    with pytest.raises(ClusterViolation):
        build(g1, cs2)
    # an equal graph built separately is the same graph
    assert np.array_equal(build(S.triangle(), cs1).left, build(g1, cs1).left)
