"""Reach structure of digraphs, components, and cluster-set validation."""

import numpy as np
import pytest

import support as S
from lapcoarse.connectivity import (
    Reach,
    build_cluster_set,
    connected_components,
    reaches,
)
from lapcoarse.errors import (
    ClustersShareNodes,
    ClusterViolation,
    EmptyClusterSet,
    NotSymmetricEdgeSet,
    UnknownEdge,
    UnknownNode,
)
from lapcoarse.graph import build_graph, is_undirected, transpose
from oracles import components_by_union_find, reachable_set, transpose_cluster_set


# -- reachability ----------------------------------------------------------------


def test_reachable_set_follows_drawn_arrows():
    g = S.two_chains()
    assert reachable_set(g, "a") == {"a", "b"}
    assert reachable_set(g, "b") == {"b"}
    assert reachable_set(S.braided_chain(), "a") == {"a", "b", "c", "d"}


def test_reachable_set_of_isolated_node_is_itself():
    g = build_graph([("v", 1.0), ("w", 1.0), ("x", 1.0)], [("w", "x", 1.0)])
    assert reachable_set(g, "v") == {"v"}
    with pytest.raises(UnknownNode):
        reachable_set(g, "nope")


def test_single_root_graph_has_one_reach():
    dec = reaches(S.branching_chain())
    assert len(dec) == 1
    (reach,) = dec
    assert reach.nodes == {"a", "b", "c", "d"}
    assert reach.cabal == {"a"}
    assert reach.exclusive == reach.nodes
    assert reach.common == frozenset()
    assert reach.label == "a+b+c+d"


def test_transposing_can_split_reaches():
    dec = reaches(transpose(S.branching_chain()))
    by_nodes = {r.nodes: r for r in dec}
    assert set(by_nodes) == {frozenset("ab"), frozenset("acd")}
    assert by_nodes[frozenset("ab")].cabal == {"b"}
    assert by_nodes[frozenset("acd")].cabal == {"d"}
    for r in dec:
        assert r.common == {"a"}
        assert "a" not in r.exclusive


def test_undirected_reaches_equal_connected_components():
    g = S.triangle()
    dec = reaches(g)
    assert len(dec) == 1 and next(iter(dec)).cabal == {"a", "b", "c"}

    rng = np.random.default_rng(17)
    for _ in range(25):
        g = S.random_graph(rng, undirected=True)
        oracle = components_by_union_find(g)
        assert tuple(r.nodes for r in reaches(g)) == oracle
        assert connected_components(g) == oracle


def test_reach_partition_invariants_on_random_digraphs():
    rng = np.random.default_rng(19)
    for _ in range(40):
        g = S.random_graph(rng)
        dec = reaches(g)
        union = set()
        counts = {v: 0 for v in g.nodes}
        for r in dec:
            union |= r.nodes
            for v in r.nodes:
                counts[v] += 1
            assert r.cabal and r.cabal <= r.exclusive
            assert r.exclusive | r.common == r.nodes
            assert not (r.exclusive & r.common)
            root = next(iter(r.cabal))
            assert reachable_set(g, root) == r.nodes
        assert union == set(g.nodes)
        for r in dec:
            for v in r.nodes:
                assert (counts[v] >= 2) == (v in r.common)


def test_reach_of_cabal_node_lookup():
    dec = reaches(transpose(S.branching_chain()))
    assert dec.reach_of_cabal_node("d").nodes == {"a", "c", "d"}
    with pytest.raises(UnknownNode):
        dec.reach_of_cabal_node("a")


# -- connected components ----------------------------------------------------------


def test_components_of_restricted_edge_set():
    assert connected_components(S.triangle(), S.TRIANGLE_CLUSTER) == (
        frozenset({"a"}),
        frozenset({"b", "c"}),
    )


def test_components_of_empty_edge_set_are_singletons():
    g = S.triangle()
    assert connected_components(g, []) == (
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    )


def test_components_pair_consecutive_path_nodes():
    g, cluster = S.alternating_path(3)
    comps = connected_components(g, cluster)
    assert comps[0] == frozenset({"p01"})
    assert comps[1:] == (
        frozenset({"p02", "p03"}),
        frozenset({"p04", "p05"}),
        frozenset({"p06", "p07"}),
    )


def test_components_require_a_symmetric_edge_set():
    with pytest.raises(NotSymmetricEdgeSet):
        connected_components(S.triangle(), [("b", "c")])


# -- cluster sets -------------------------------------------------------------------


def test_undirected_cluster_set_on_triangle():
    cs = S.triangle_cluster()
    assert cs.mode == "undirected"
    assert cs.node_sets == (frozenset({"b", "c"}),)
    assert cs.cluster_nodes == {"b", "c"}
    assert cs.outside_nodes == {"a"}
    assert cs.total_edges == frozenset(S.TRIANGLE_CLUSTER)
    assert set(cs.subgraph().edge_pairs()) == set(S.TRIANGLE_CLUSTER)
    assert ("b", "c") not in cs.background().edge_pairs()


def test_pre_grouped_undirected_clusters_must_not_share_nodes():
    g = build_graph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        S.sym("a", "b") + S.sym("b", "c"),
    )
    groups = [S.sym_pairs("a", "b"), S.sym_pairs("b", "c")]
    with pytest.raises(ClustersShareNodes):
        build_cluster_set(g, groups, "undirected")
    # the same edges as one flat list form a single valid cluster
    flat = S.sym_pairs("a", "b") + S.sym_pairs("b", "c")
    cs = build_cluster_set(g, flat, "undirected")
    assert cs.node_sets == (frozenset({"a", "b", "c"}),)


def test_pre_grouped_undirected_cluster_must_be_connected():
    g = build_graph(
        [(v, 1.0) for v in "abcd"],
        S.sym("a", "b") + S.sym("c", "d"),
    )
    groups = [S.sym_pairs("a", "b") + S.sym_pairs("c", "d")]
    with pytest.raises(ClusterViolation):
        build_cluster_set(g, groups, "undirected")


def test_undirected_cluster_sets_are_the_union_find_components():
    """Trivial reaches and per-component clusters; merged or split groupings fail."""
    rng = np.random.default_rng(29)
    merged = split = 0
    for _ in range(60):
        g = S.random_graph(rng, undirected=True)
        pairs = S.random_cluster_pairs(rng, g, undirected=True)
        cs = build_cluster_set(g, pairs, "undirected")
        comps = components_by_union_find(g, pairs)
        assert cs.decomposition.reaches == tuple(Reach(c, c, c, frozenset()) for c in comps)
        edge_sets = [frozenset(p for p in pairs if p[0] in c) for c in comps]
        clusters = tuple(e for e in edge_sets if e)
        assert cs.clusters == clusters
        assert cs.node_sets == tuple(c for c, e in zip(comps, edge_sets) if e)
        groups = [sorted(c) for c in clusters]
        assert build_cluster_set(g, groups, "undirected").clusters == clusters
        if len(groups) >= 2:
            merged += 1
            with pytest.raises(ClusterViolation):
                build_cluster_set(g, [groups[0] + groups[1]] + groups[2:], "undirected")
        for k, grp in enumerate(groups):
            if len(grp) >= 4:
                split += 1
                first = [p for p in grp if set(p) == set(grp[0])]
                rest = [p for p in grp if set(p) != set(grp[0])]
                with pytest.raises(ClustersShareNodes):
                    build_cluster_set(g, groups[:k] + [first, rest] + groups[k + 1:], "undirected")
    assert merged and split


def test_cluster_edges_must_exist():
    with pytest.raises(UnknownEdge):
        build_cluster_set(S.triangle(), [("a", "a")], "undirected")
    with pytest.raises(UnknownEdge):
        S.hub_pair_cluster(S.two_sources())  # no drawn 3 -> 2 on this graph


def test_empty_grouped_cluster_is_rejected_but_empty_flat_list_is_fine():
    g = S.hub_pair()
    with pytest.raises(EmptyClusterSet):
        build_cluster_set(g, [[]], "directed")
    cs = build_cluster_set(g, [], "directed")
    assert cs.clusters == ()
    assert cs.cluster_nodes == frozenset()
    assert cs.outside_nodes == {"1", "2", "3"}
    # every node is its own trivial reach
    assert len(cs.decomposition) == 3


def test_directed_cluster_set_splits_into_reaches():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    assert cs.mode == "directed"
    assert cs.clusters == (frozenset(S.HUB_PAIR_CLUSTER),)
    assert cs.node_sets == (frozenset({"2", "3"}),)
    reach_sets = {r.nodes for r in cs.decomposition}
    assert reach_sets == {frozenset({"1"}), frozenset({"2", "3"})}


def test_directed_pre_grouping_must_match_the_reach_decomposition():
    g = S.hub_pair()
    with pytest.raises(ClusterViolation):
        build_cluster_set(g, [[("2", "3")], [("3", "2")]], "directed")
    cs = build_cluster_set(g, [S.HUB_PAIR_CLUSTER], "directed")
    assert cs.clusters == (frozenset(S.HUB_PAIR_CLUSTER),)


def test_undirected_mode_rejects_one_sided_pairs():
    with pytest.raises(NotSymmetricEdgeSet):
        build_cluster_set(S.triangle(), [("b", "c")], "undirected")


def test_transpose_cluster_set_reverses_every_edge():
    g = S.two_sources()
    cs = S.two_sources_cluster(g)
    tcs = transpose_cluster_set(cs)
    assert tcs.mode == "directed"
    assert tcs.total_edges == {("3", "2")}
    assert tcs.graph == transpose(g)


def test_cluster_cells_list_the_edges_and_tell_whether_they_are_symmetric():
    """The cells are the total edges, and answer ``symmetric`` as the built subgraph does."""
    rng = np.random.default_rng(341)
    answers = []
    for k in range(300):
        undirected = k % 2 == 0
        g = S.random_graph(rng, max_nodes=7, undirected=undirected, weight_range=(1.0, 2.0))
        pairs = S.random_cluster_pairs(rng, g, undirected=undirected and k % 4 == 0)
        cs = build_cluster_set(g, pairs + pairs[:1], "directed")
        rows, cols = cs.cells
        assert not rows.flags.writeable and not cols.flags.writeable
        assert np.all(np.diff(rows * g.n + cols) > 0)
        assert {(g.nodes[j], g.nodes[i]) for i, j in zip(rows, cols)} == cs.total_edges
        answers.append(is_undirected(cs.subgraph()))
        assert cs.symmetric == answers[-1]
        assert build_cluster_set(g, [], "directed").symmetric
    # both orientations are cluster edges, with weights 7 and 11
    assert not S.hub_pair_cluster(S.hub_pair()).symmetric
    assert 0.2 < np.mean(answers) < 0.8
