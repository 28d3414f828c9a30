"""Weight vectors by tree enumeration, cofactors and GTH; biorthogonal kernel bases."""

import numpy as np
import pytest

import support as S
from support import TOL_GTH_ORDER, TOL_SYMMETRIC_TREE, TOL_WEIGHT_VECTOR
from lapcoarse.coarsen import coarsen
from lapcoarse.connectivity import build_cluster_set, reaches
from lapcoarse.errors import ClusterViolation
from lapcoarse.graph import build_graph, laplacian, transpose
from lapcoarse import kernels
from lapcoarse.kernels import kernels_in, kernels_out, kernels_undirected
from lapcoarse.numerics import solve
from oracles import (
    ReachTooLargeForEnumeration,
    gth_null_vector_sequential,
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


# widths below the default put the boundaries between GTH panels inside the
# few-node reaches that enumeration can check
NARROW_PANELS = [1, 2, 3]


@pytest.mark.parametrize("kind, panel", [
    pytest.param(kind, panel, id=kind if panel is None else f"{kind}-panel{panel}")
    for panel in [None, *NARROW_PANELS] for kind in ("in", "out")
])
def test_tree_vectors_match_enumeration_componentwise(kind, panel, monkeypatch):
    """Kernel tree vectors equal normalized enumerated weights, entry by entry."""
    if panel is not None:
        monkeypatch.setattr(kernels, "_GTH_PANEL", panel)
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


def strongly_connected_weights(rng, k: int, density: float) -> np.ndarray:
    """Weights of a cycle through all k nodes in random order, plus each other
    edge with probability ``density``, log-uniform on 1e-8..1e8."""
    order = rng.permutation(k)
    W = np.zeros((k, k))
    W[np.roll(order, -1), order] = 1.0
    W[rng.random((k, k)) < density] = 1.0
    np.fill_diagonal(W, 0.0)
    return W * 10.0 ** rng.uniform(-8, 8, (k, k))


@pytest.mark.parametrize("k", [1, 2, 3, 31, 32, 33, 64, 65, 150, 400])
def test_panel_gth_matches_the_sequential_loop_componentwise(k, monkeypatch):
    """Panels change only the order in which the nonnegative products are summed."""
    rng = np.random.default_rng(k)
    for density in (2.0 / k, 0.5):
        W = strongly_connected_weights(rng, k, density)
        want = gth_null_vector_sequential(W)
        got = kernels._gth_null_vector(W)
        assert np.all(np.abs(got - want) <= TOL_GTH_ORDER * want)
        # one-node panels apply each censored node alone, as the loop does
        with monkeypatch.context() as m:
            m.setattr(kernels, "_GTH_PANEL", 1)
            assert np.array_equal(kernels._gth_null_vector(W), want)


EPS = np.finfo(float).eps


def cabal_graph(rng, blocks):
    """Strongly connected cluster blocks joined one way by unit background arrows.

    ``blocks`` lists ``(k, symmetric)``: k nodes whose weights are those of
    :func:`strongly_connected_weights` at density 0.5, plus their transpose
    when symmetric.  Each block is then a reach and its own cabal, in both
    orientations.  Masses are drawn from [0.5, 2].  Returns the graph and the
    cluster pairs, every block edge.
    """
    names, edges = [], []
    for b, (k, symmetric) in enumerate(blocks):
        block = [f"b{b}n{i:03d}" for i in range(k)]
        W = strongly_connected_weights(rng, k, 0.5)
        if symmetric:
            W = W + W.T
        heads, tails = np.nonzero(W)
        edges += [(block[j], block[i], float(W[i, j])) for i, j in zip(heads, tails)]
        if names:
            edges.append((names[-1], block[0], 1.0))
        names += block
    cluster = [(s, d) for s, d, _ in edges if s[:2] == d[:2]]
    masses = rng.uniform(0.5, 2.0, len(names))
    return build_graph(zip(names, masses.tolist()), edges), cluster


def tree_columns(g, cs, kind):
    """``kind``'s basis, the subgraph whose cabals its tree vectors weigh, and their family."""
    if kind == "in":
        return kernels_in(g, cs), cs.subgraph(), "left"
    return kernels_out(g, cs), transpose(cs.subgraph()), "right"


@pytest.fixture
def gth_calls(monkeypatch):
    """The number of nodes of each cabal sent to GTH elimination."""
    calls, real = [], kernels._gth_null_vector

    def spy(W):
        calls.append(W.shape[0])
        return real(W)

    monkeypatch.setattr(kernels, "_gth_null_vector", spy)
    return calls


@pytest.mark.parametrize("kind", ["in", "out"])
def test_symmetric_cabals_get_the_gth_vector_in_closed_form(kind):
    """On symmetric weights the constant vector is GTH's answer entry by entry, within a few eps."""
    rng = np.random.default_rng(221)
    heavy = S.heavy_cycle(120)
    for g, cluster in [cabal_graph(rng, [(k, True) for k in (2, 3, 33, 150)]), heavy]:
        cs = build_cluster_set(g, cluster, "directed")
        basis, sub, family = tree_columns(g, cs, kind)
        vectors, checked = getattr(basis, family), 0
        for col, reach in enumerate(basis.decomposition):
            if len(reach.cabal) == 1:
                continue
            order, W = kernels._restricted_weights(sub, reach.cabal)
            assert np.array_equal(W, W.T)
            idx = [g.index(v) for v in order]
            want = kernels._gth_null_vector(W)
            want /= want @ g.masses[idx]
            got = vectors[idx, col]
            assert np.all(np.abs(got - want) <= TOL_SYMMETRIC_TREE * EPS * want)
            assert np.count_nonzero(vectors[:, col]) == len(idx)
            checked += 1
        assert checked == (4 if g is not heavy[0] else 1)


def test_gth_runs_once_per_cabal_that_is_not_symmetric(gth_calls):
    rng = np.random.default_rng(222)
    g, cluster = cabal_graph(rng, [(3, True), (40, False), (5, True), (70, False)])
    cs = build_cluster_set(g, cluster, "directed")
    for build in (kernels_in, kernels_out):
        gth_calls.clear()
        build(g, cs)
        assert sorted(gth_calls) == [40, 70]
    g, cluster = cabal_graph(rng, [(3, True), (40, True), (2, True)])
    cs = build_cluster_set(g, cluster, "directed")
    gth_calls.clear()
    for mode in ("in", "out"):
        coarsen(g, cs, mode)
    assert gth_calls == []


def test_a_cabal_one_rounding_from_symmetric_goes_to_gth(gth_calls):
    """Symmetry is exact equality: one weight scaled by 1 + 2^-52 is directed."""
    rng = np.random.default_rng(223)
    g, cluster = cabal_graph(rng, [(6, True)])
    edges = [(s, d, w * (1.0 + 2.0 ** -52) if k == 0 else w)
             for k, (s, d, w) in enumerate(g.edges())]
    g = build_graph(zip(g.nodes, g.masses.tolist()), edges)
    assert not np.array_equal(g.weights, g.weights.T)
    cs = build_cluster_set(g, cluster, "directed")
    for build in (kernels_in, kernels_out):
        gth_calls.clear()
        build(g, cs)
        assert gth_calls == [6]


@pytest.mark.parametrize("k", [120, 400])
def test_heavy_directed_cycle_goes_to_gth_and_matches_its_one_tree(k, gth_calls):
    """A one-way cycle of weights near 1e3, whose k-fold tree products overflow.

    The one spanning out-tree rooted at a node leaves out the arrow into it
    (in kind), or out of it (out kind, on the transpose), so the tree vector
    is proportional to the reciprocal of that arrow's weight.
    """
    rng = np.random.default_rng(k)
    names = [f"c{i:03d}" for i in range(k)]
    u = 1e3 * rng.uniform(0.5, 2.0, k)
    edges = [(names[i], names[(i + 1) % k], float(u[i])) for i in range(k)]
    cluster = [(s, d) for s, d, _ in edges]
    masses = rng.uniform(0.5, 2.0, k + 1)
    g = build_graph(zip(names + ["x"], masses.tolist()), edges + S.sym("x", names[0]))
    cs = build_cluster_set(g, cluster, "directed")
    idx = [g.index(v) for v in names]
    for kind, arrow in (("in", np.roll(u, 1)), ("out", u)):
        gth_calls.clear()
        basis, _, family = tree_columns(g, cs, kind)
        assert gth_calls == [k]
        col = next(c for c, reach in enumerate(basis.decomposition) if len(reach.cabal) == k)
        want = (1.0 / arrow) / ((1.0 / arrow) @ g.masses[idx])
        got = getattr(basis, family)[idx, col]
        assert np.all(np.abs(got - want) <= TOL_WEIGHT_VECTOR * want)
        gth_calls.clear()
        assert coarsen(g, cs, kind).size == 2
        assert gth_calls == [k]


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


@pytest.mark.parametrize("panel", NARROW_PANELS)
def test_one_node_reaches_fill_the_same_columns_at_narrow_panels(panel, monkeypatch):
    monkeypatch.setattr(kernels, "_GTH_PANEL", panel)
    test_one_node_reaches_fill_the_same_columns_as_the_loop()


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
