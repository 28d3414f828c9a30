"""End-to-end acceptance checks, one per contract item.

Each test covers exactly one numbered criterion and prints a single PASS
line when it holds.  Tolerances are pinned in the assertions.
"""

import numpy as np
import pytest

import support as S
from support import TOL_KERNEL, TOL_PROJECTOR, TOL_RIESZ_CROSS, TOL_TRANSPORT
from lapcoarse.coarsen import coarsen, probability_transport_check
from lapcoarse.connectivity import build_cluster_set, reaches
from lapcoarse.graph import build_graph, laplacian, scale_edges, transpose
from lapcoarse.harness import gap_bound_check, heat_diff, resolvent_diff, sweep
from lapcoarse.kernels import (
    kernels_in,
    kernels_out,
    weight_vector_bruteforce,
    weight_vector_matrix,
)
from lapcoarse.numerics import matrix_exp, spectral_gap
from lapcoarse.riesz import riesz_contour_oracle, riesz_projector


def test_criterion_01_triangle_reduction():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    result = coarsen(g, cs, "undirected")
    assert result.reduced.nodes == ("a", "b+c")
    assert np.array_equal(result.reduced.masses, [1.0, 2.0])
    assert result.reduced.weight("a", "b+c") == 2.0
    assert result.reduced.weight("b+c", "a") == 2.0
    background = laplacian(cs.background(), "in").matrix
    projected = result.down @ background @ result.up
    assert np.abs(result.reduced_laplacian.matrix - projected).max() <= 1e-12

    heavy = build_graph(
        [("a", 1.0), ("b", 2.0), ("c", 4.0)],
        S.sym("a", "b", 1.0) + S.sym("a", "c", 1.0) + S.sym("b", "c", 1.0),
    )
    heavy_result = coarsen(heavy, S.triangle_cluster(heavy), "undirected")
    assert np.array_equal(heavy_result.reduced.masses, [1.0, 6.0])
    assert heavy_result.reduced.weight("a", "b+c") == 2.0
    print(
        "PASS criterion 1: triangle reduction yields masses (m(a), m(b)+m(c)), "
        "aggregate weight 2, and the projected background Laplacian"
    )


def test_criterion_02_undirected_resolvent_rate():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    report = sweep(g, cs, "undirected", [1e2, 1e3, 1e4], z=-1.0)
    assert report.fitted_slope == pytest.approx(-1.0, abs=0.1)
    print(
        f"PASS criterion 2: undirected resolvent differences fit slope "
        f"{report.fitted_slope:.4f} (required -1.0 +/- 0.1)"
    )


def test_criterion_03_projection_lemma_equality():
    rng = np.random.default_rng(303)
    checked = 0
    worst = 0.0
    while checked < 50:
        g = S.random_graph(rng, max_nodes=10, undirected=True)
        pairs = S.random_cluster_pairs(rng, g, undirected=True)
        if not pairs:
            continue
        cs = build_cluster_set(g, pairs, "undirected")
        beta = float(rng.choice([1e1, 1e2, 1e3]))
        report = gap_bound_check(g, cs, "undirected", beta)
        worst = max(worst, report.residual)
        checked += 1
    assert worst <= 1e-9
    print(
        f"PASS criterion 3: resolvent-projector distance equals 1/|gap - z| "
        f"on 50 random undirected fixtures, worst residual {worst:.2e}"
    )


def test_criterion_04_clique_gap_and_implosion_rate():
    constants = []
    for n in (4, 8, 16, 32):
        g = S.clique(n)
        lap = laplacian(g, "in").matrix
        probe = np.zeros(n)
        probe[0], probe[1] = 1.0, -1.0
        assert np.array_equal(lap @ probe, n * probe)
        assert np.array_equal(lap @ np.ones(n), np.zeros(n))
        assert abs(spectral_gap(lap, g.masses) - n) <= 1e-12 * n

        hub, pairs = S.clique_with_hub(n)
        cs = build_cluster_set(hub, pairs, "undirected")
        scaled_diff = n * resolvent_diff(hub, cs, "undirected", 1.0)
        assert scaled_diff <= 0.4
        constants.append(scaled_diff)
    assert constants == pytest.approx([0.3704, 0.3036, 0.2646, 0.2438], abs=0.01)
    assert max(constants) / min(constants) <= 2.0
    print(
        "PASS criterion 4: clique gaps are exact integers and the implosion "
        f"constant stays within a factor 2: {['%.4f' % c for c in constants]}"
    )


def test_criterion_05_weight_vectors_match_enumeration():
    # braided chain forward: trees 2*11*3 + 2*3*5 + 2*7*5 + 2*7*11 = 320
    # braided chain reversed: trees 11*2*5 + 5*3*11 + 5*7*3 + 2*7*5 = 450
    cases = [
        (S.branching_chain(), {"a": 30.0, "b": 0.0, "c": 0.0, "d": 0.0}),
        (S.two_chains(), {"a": 2.0, "b": 0.0, "c": 5.0, "d": 0.0}),
        (S.braided_chain(), {"a": 320.0, "b": 0.0, "c": 0.0, "d": 0.0}),
        (transpose(S.branching_chain()), {"a": 0.0, "b": 2.0, "c": 0.0, "d": 15.0}),
        (transpose(S.two_chains()), {"a": 0.0, "b": 2.0, "c": 0.0, "d": 5.0}),
        (transpose(S.braided_chain()), {"a": 0.0, "b": 0.0, "c": 0.0, "d": 450.0}),
    ]
    for graph, expected in cases:
        for reach in reaches(graph):
            brute = weight_vector_bruteforce(graph, reach.nodes)
            for node, value in brute.items():
                assert value == expected[node]
            via_matrix = weight_vector_matrix(graph, reach.nodes)
            for node, value in brute.items():
                assert abs(via_matrix[node] - value) <= 1e-10 * max(1.0, value)
    print(
        "PASS criterion 5: spanning-tree enumeration reproduces the frozen "
        "weight vectors on all six chain fixtures; matrix route agrees to 1e-10"
    )


def test_criterion_06_kernel_structure_on_random_digraphs():
    rng = np.random.default_rng(606)
    for _ in range(200):
        g = S.random_graph(rng, max_nodes=8)
        cs = build_cluster_set(g, [(s, d) for s, d, _ in g.edges()], "directed")
        basis = kernels_in(g, cs)
        assert basis.right.shape[1] == len(list(reaches(g)))
        assert np.abs(basis.right.sum(axis=1) - 1.0).max() <= TOL_KERNEL
        pairing = (basis.left * g.masses[:, None]).T @ basis.right
        assert np.abs(pairing - np.eye(pairing.shape[0])).max() <= TOL_KERNEL
        for k, reach in enumerate(basis.decomposition):
            off_cabal = [g.index(v) for v in g.nodes if v not in reach.cabal]
            if off_cabal:
                assert np.abs(basis.left[off_cabal, k]).max() <= TOL_KERNEL
    print(
        "PASS criterion 6: partition of unity, biorthogonality, cabal support, "
        "and dimension = reach count on 200 random digraphs"
    )


def test_criterion_07_riesz_formula_matches_contour_integrals():
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 100:
        g = S.random_graph(rng)
        pairs = S.random_cluster_pairs(rng, g)
        if not pairs:
            continue
        kind = "in" if checked % 2 == 0 else "out"
        cs = build_cluster_set(g, pairs, "directed")
        projector = riesz_projector(g, cs, kind)
        oracle = riesz_contour_oracle(g, cs, kind=kind)
        assert np.abs(projector - oracle).max() <= TOL_RIESZ_CROSS
        lap = laplacian(cs.subgraph(), kind).matrix
        scale = max(1.0, float(np.abs(lap).max()))
        assert np.abs(projector @ projector - projector).max() <= TOL_PROJECTOR
        assert np.abs(projector @ lap).max() <= TOL_PROJECTOR * scale
        assert np.abs(lap @ projector).max() <= TOL_PROJECTOR * scale
        checked += 1
    print(
        "PASS criterion 7: kernel-formula projectors match contour integrals "
        "to 1e-8 and satisfy P^2 = P, PL = LP = 0 on 100 random fixtures"
    )


def test_criterion_08_directed_reductions_and_their_difference():
    g = S.hub_pair(rho=2.0, eta=3.0)
    cs = S.hub_pair_cluster(g)
    res_in = coarsen(g, cs, "in")
    res_out = coarsen(g, cs, "out")
    for result in (res_in, res_out):
        for src, dst in (("1", "2+3"), ("2+3", "1")):
            assert result.reduced.weight(src, dst) == pytest.approx(2.0, abs=1e-12)

    kin = kernels_in(g, cs)
    kout = kernels_out(g, cs)
    col = kin.labels.index("2+3")
    assert np.allclose(kin.right[:, col], [0.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(kin.left[:, col], [0.0, 0.4, 0.6], atol=1e-12)
    assert np.allclose(kout.right[:, col], [0.0, 0.6, 0.4], atol=1e-12)
    assert np.allclose(kout.left[:, col], [0.0, 1.0, 1.0], atol=1e-12)

    skew = S.hub_pair(rho=2.0, eta=3.0, w13=2.0)
    scs = S.hub_pair_cluster(skew)
    skew_in = coarsen(skew, scs, "in")
    skew_out = coarsen(skew, scs, "out")
    assert skew_in.reduced.weight("1", "2+3") == pytest.approx(3.2, abs=1e-12)
    assert skew_out.reduced.weight("1", "2+3") == pytest.approx(3.0, abs=1e-12)
    assert skew_in.reduced != skew_out.reduced
    print(
        "PASS criterion 8: in/out reductions hit the closed forms at "
        "(rho, eta) = (2, 3) and differ once the hub edge is reweighted"
    )


def test_criterion_09_disconnection_in_the_strong_coupling_limit():
    g = S.two_sources()
    cs = S.two_sources_cluster(g)
    for beta in (1.0, 10.0, 100.0):
        scaled = scale_edges(g, S.TWO_SOURCES_CLUSTER, beta)
        lap = laplacian(scaled, "in").matrix
        rate = beta + 1.0
        for t in (0.1, 1.0, 10.0):
            decay = np.exp(-rate * t)
            expected = np.eye(3)
            expected[2, 0] = (1.0 - decay) / rate
            expected[2, 1] = beta * (1.0 - decay) / rate
            expected[2, 2] = decay
            assert np.abs(matrix_exp(lap, -t) - expected).max() <= 1e-10
    result = coarsen(g, cs, "in")
    assert list(result.reduced.edges()) == []
    for beta in (1.0, 10.0, 100.0):
        assert heat_diff(g, cs, "in", beta, 1.0) <= 3.0 / (beta + 1.0)
    print(
        "PASS criterion 9: heat kernel matches the explicit solution on the "
        "two-source graph; its reduction is edgeless and heat_diff <= 3/(beta+1)"
    )


def test_criterion_10_mass_conservation_in_all_modes():
    runs = [
        (S.triangle(), S.triangle_cluster(), "undirected"),
        (S.hub_pair(), S.hub_pair_cluster(S.hub_pair()), "in"),
        (S.hub_pair(), S.hub_pair_cluster(S.hub_pair()), "out"),
        (S.two_sources(), S.two_sources_cluster(S.two_sources()), "in"),
        (S.two_sources(), S.two_sources_cluster(S.two_sources()), "out"),
    ]
    rng = np.random.default_rng(1010)
    for _ in range(100):
        und = S.random_graph(rng, undirected=True)
        upairs = S.random_cluster_pairs(rng, und, undirected=True)
        runs.append((und, build_cluster_set(und, upairs, "undirected"), "undirected"))
        dg = S.random_graph(rng)
        dcs = build_cluster_set(dg, S.random_cluster_pairs(rng, dg), "directed")
        runs.append((dg, dcs, "in"))
        runs.append((dg, dcs, "out"))
    for graph, cs, mode in runs:
        result = coarsen(graph, cs, mode)
        total = float(graph.masses.sum())
        assert abs(float(result.reduced.masses.sum()) - total) <= 1e-12 * total
    print(
        "PASS criterion 10: reduced masses conserve the parent total to 1e-12 "
        "in all three modes on fixtures and 200 random graphs"
    )


def test_criterion_11_transpose_duality_and_out_mode_rate():
    rng = np.random.default_rng(1111)
    for _ in range(200):
        g = S.random_graph(rng)
        lplus = laplacian(g, "out").matrix
        lminus_t = laplacian(transpose(g), "in").matrix
        dual = (lminus_t.T * g.masses[np.newaxis, :]) / g.masses[:, np.newaxis]
        scale = max(1.0, float(np.abs(lplus).max()))
        assert np.abs(lplus - dual).max() <= 1e-14 * scale
    g = S.hub_pair()
    report = sweep(g, S.hub_pair_cluster(g), "out", [1e1, 1e2, 1e3, 1e4])
    assert report.fitted_slope == pytest.approx(-1.0, abs=0.1)
    print(
        "PASS criterion 11: out-degree Laplacian is the mass adjoint of the "
        f"transposed in-degree one; out-mode sweep slope {report.fitted_slope:.4f}"
    )


def test_criterion_12_probability_transport_conservation():
    rng = np.random.default_rng(1212)
    for mode in ("undirected", "in", "out"):
        for _ in range(100):
            undirected = mode == "undirected"
            g = S.random_graph(rng, undirected=undirected)
            pairs = S.random_cluster_pairs(rng, g, undirected=undirected)
            cs = build_cluster_set(g, pairs, "undirected" if undirected else "directed")
            result = coarsen(g, cs, mode)
            down = probability_transport_check(
                result, S.random_distribution(rng, g.masses), "down"
            )
            assert down.residual <= TOL_TRANSPORT
            up = probability_transport_check(
                result, S.random_distribution(rng, result.reduced.masses), "up"
            )
            assert up.residual <= TOL_TRANSPORT
    print(
        "PASS criterion 12: transport conserves total probability to 1e-12, "
        "100 random distributions per mode in both directions"
    )
