"""Convergence harness: scaled ladders, resolvent and heat comparisons, gap bounds."""

import importlib
import math

import numpy as np
import pytest

import support as S
from support import TOL_SWEEP_ELIMINATION
from lapcoarse.coarsen import coarsen
from lapcoarse.connectivity import build_cluster_set
from lapcoarse.errors import (
    BetaLadderTooShort,
    ClusterViolation,
    NonPositiveTime,
    NonPositiveWeight,
    NotSymmetrizable,
    SingularMatrix,
    ZOnSpectrumAxis,
)
from lapcoarse.graph import build_graph, laplacian
from lapcoarse.harness import (
    _gershgorin_clearance,
    gap_bound_check,
    heat_diff,
    resolvent_diff,
    sweep,
)
from lapcoarse.numerics import spectral_gap, weighted_opnorm
from oracles import scale_edges

LADDER = [1e1, 1e2, 1e3, 1e4]

SLOW_SLOPE_NOTE = (
    "fitted slope exceeds -1: decay slower than 1/beta on this "
    "ladder (strong-only or pre-asymptotic regime)"
)


def edge_pair_graph():
    g = build_graph([("u", 1.0), ("v", 1.0)], S.sym("u", "v", 1.0))
    cs = build_cluster_set(g, S.sym_pairs("u", "v"), "undirected")
    return g, cs


# -- scaling ---------------------------------------------------------------------


def test_scaled_graph_touches_only_cluster_edges():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    scaled = scale_edges(g, cs.total_edges, 10.0)
    assert scaled.weight("2", "3") == 10.0 * S.RHO
    assert scaled.weight("3", "2") == 10.0 * S.ETA
    assert scaled.weight("1", "2") == 1.0
    assert scaled.weight("1", "3") == 1.0


def test_scaling_factor_must_be_positive_and_finite():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    for bad in (0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveWeight):
            scale_edges(g, cs.total_edges, bad)
        for call in (
            lambda: resolvent_diff(g, cs, "undirected", bad),
            lambda: heat_diff(g, cs, "undirected", bad, 1.0),
            lambda: gap_bound_check(g, cs, "undirected", bad),
            lambda: sweep(g, cs, "undirected", LADDER, cluster_scale=lambda b: bad),
        ):
            with pytest.raises(NonPositiveWeight):
                call()


# -- resolvent differences ------------------------------------------------------------


def test_identity_coarsening_has_zero_resolvent_difference():
    g = S.triangle()
    cs = build_cluster_set(g, [], "undirected")
    assert resolvent_diff(g, cs, "undirected", 1e3) <= 1e-12


def test_resolvent_difference_decays_like_one_over_beta():
    g = S.two_sources()
    cs = S.two_sources_cluster(g)
    diffs = {b: resolvent_diff(g, cs, "in", b) for b in (1e2, 1e3, 1e4)}
    for b, d in diffs.items():
        assert 2.0 <= b * d <= 3.0
    assert diffs[1e4] <= diffs[1e2] / 50.0


def test_resolvent_approaches_the_lifted_disconnected_limit():
    # the reduced graph has no edges, so the lifted resolvent at z=-1 is
    # exactly the kernel projector
    g = S.two_sources()
    cs = S.two_sources_cluster(g)
    assert resolvent_diff(g, cs, "in", 1e6) <= 1e-5


def test_resolvent_point_must_avoid_the_nonnegative_real_axis():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    for bad in (0.0, 0.5, 1e-13j):
        with pytest.raises(ZOnSpectrumAxis):
            resolvent_diff(g, cs, "undirected", 1e2, z=bad)
    assert resolvent_diff(g, cs, "undirected", 1e2, z=1j) > 0.0


# -- z-guard ------------------------------------------------------------------------


def count_eigvals(monkeypatch):
    harness = importlib.import_module("lapcoarse.harness")
    calls = []
    original = harness.eigvals
    monkeypatch.setattr(harness, "eigvals", lambda a: calls.append(a) or original(a))
    return calls


@pytest.mark.parametrize("kind", ["in", "out"])
def test_gershgorin_clearance_never_exceeds_the_eigenvalue_clearance(kind):
    rng = np.random.default_rng(53)
    for _ in range(30):
        g = S.random_graph(rng, max_nodes=10)
        for beta in (1.0, 1e3, 1e6):
            mat = beta * laplacian(g, kind)
            eigs = np.linalg.eigvals(mat)
            slack = 1e-9 * max(1.0, float(np.abs(mat).max()))
            for z in (-1.0, -1e-3, -5.0, 1j, 0.5 + 2j, 3.0 + 0.1j, 1e3 - 1e2j):
                bound = _gershgorin_clearance(mat, g.masses, z)
                assert bound <= float(np.abs(eigs - z).min()) + slack
                if z.real < 0 and z.imag == 0:
                    assert bound >= abs(z) / 2


def test_z_near_a_complex_eigenvalue_falls_back_to_the_eigensolve(monkeypatch):
    g = build_graph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)],
    )
    cs = build_cluster_set(g, [], "directed")
    eigs = np.linalg.eigvals(laplacian(g, "in"))
    lam = complex(eigs[np.argmax(eigs.imag)])
    assert lam.imag > 0.5
    calls = count_eigvals(monkeypatch)
    with pytest.raises(ZOnSpectrumAxis):
        resolvent_diff(g, cs, "in", 1.0, z=lam + 1e-13j)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_sweep_at_negative_z_runs_no_eigensolve(mode, monkeypatch):
    g, cluster = S.heavy_cycle(8, weight=1.0)
    cs = build_cluster_set(g, cluster, "undirected" if mode == "undirected" else "directed")
    calls = count_eigvals(monkeypatch)
    report = sweep(g, cs, mode, [1e3, 1e4, 1e5, 1e6])
    assert calls == []
    assert report.fitted_slope is not None


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_sweep_guards_z_with_the_whole_matrix_gershgorin_bound(mode, monkeypatch):
    harness = importlib.import_module("lapcoarse.harness")
    seen = []
    original = harness._guard_z
    monkeypatch.setattr(
        harness, "_guard_z", lambda z, bound, matrix: seen.append((bound, matrix())) or
        original(z, bound, matrix)
    )
    for label, g, pairs, z, _ in elimination_cases(mode):
        cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
        seen.clear()
        sweep(g, cs, mode, LADDER, z=z)
        result = coarsen(g, cs, mode)
        order = np.concatenate([result.split.inside, result.split.outside])
        per_beta = seen[1:]
        assert len(per_beta) == len(LADDER), label
        for bound, matrix in per_beta:
            want = _gershgorin_clearance(matrix, g.masses[order], complex(z))
            # both sum the same radii in another order
            assert abs(bound - want) <= 1e-12 * max(1.0, np.abs(matrix).max()), label


# -- heat differences -------------------------------------------------------------


def test_heat_difference_needs_positive_time():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(NonPositiveTime):
            heat_diff(g, cs, "undirected", 1e2, bad)


def test_heat_difference_at_tiny_times_measures_the_projector_defect():
    g = S.two_sources()
    cs = S.two_sources_cluster(g)
    result = coarsen(g, cs, "in")
    defect = weighted_opnorm(np.eye(g.n) - result.up @ result.down, g.masses)
    h = heat_diff(g, cs, "in", 1e3, 1e-9)
    assert abs(h - defect) <= 1e-3


def test_heat_difference_is_small_at_strong_scaling():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    assert heat_diff(g, cs, "undirected", 1e3, 1.0) <= 10.0 / (2 * 1e3)


# -- gap bound check -----------------------------------------------------------------


def test_single_edge_gap_bound_is_an_equality():
    beta = 1e3
    g, cs = edge_pair_graph()
    report = gap_bound_check(g, cs, "undirected", beta)
    assert abs(report.gap - 2 * beta) <= 1e-12 * beta
    assert report.residual <= 1e-12
    assert report.is_equality
    assert abs(report.bound - 1.0 / (2 * beta + 1)) <= 1e-15
    assert abs(report.full_diff - report.bound) <= 1e-12


def test_gap_bound_equality_holds_at_imaginary_points():
    g, cs = edge_pair_graph()
    report = gap_bound_check(g, cs, "undirected", 1e3, z=1j)
    assert report.is_equality
    assert report.residual <= 1e-12


def test_gap_bound_constant_is_stable_along_the_ladder():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    constants = [gap_bound_check(g, cs, "undirected", b).constant for b in LADDER]
    assert all(0.5 <= c <= 1.5 for c in constants)
    assert max(constants) / min(constants) <= 2.0


def test_gap_bound_rejects_asymmetric_clusters_and_zero_points():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    with pytest.raises(NotSymmetrizable):
        gap_bound_check(g, cs, "in", 1e2)
    tri = S.triangle()
    with pytest.raises(ZOnSpectrumAxis):
        gap_bound_check(tri, S.triangle_cluster(tri), "undirected", 1e2, z=0.0)


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_gap_bound_check_builds_one_kernel_basis(mode, monkeypatch):
    g, cluster = S.heavy_cycle(8, weight=1.0)
    cs = build_cluster_set(g, cluster, "undirected" if mode == "undirected" else "directed")
    kernels = importlib.import_module("lapcoarse.kernels")
    calls = []
    for where in ("lapcoarse.coarsen", "lapcoarse.harness"):
        module = importlib.import_module(where)
        for name in ("kernels_in", "kernels_out", "kernels_undirected"):
            if hasattr(module, name):
                original = getattr(kernels, name)
                monkeypatch.setattr(
                    module, name, lambda *a, f=original: calls.append(f) or f(*a)
                )
    report = gap_bound_check(g, cs, mode, 1e3)
    assert len(calls) == 1
    monkeypatch.undo()
    full = resolvent_diff(g, cs, mode, 1e3)
    assert abs(report.full_diff - full) <= 1e-12 * full
    assert report.is_equality


# -- sweep -----------------------------------------------------------------------


def test_sweep_on_the_triangle_fits_the_expected_rate():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    report = sweep(g, cs, "undirected", LADDER)
    assert report.mode == "undirected"
    assert report.z == -1.0
    assert report.betas == tuple(LADDER)
    assert len(report.diffs) == len(report.betas)
    assert -1.05 <= report.fitted_slope <= -0.95
    assert report.notes == ()
    for gap, beta in zip(report.gap_values, report.betas):
        assert abs(gap - 2 * beta) <= 1e-9 * beta
    assert all(b < a for a, b in zip(report.diffs, report.diffs[1:]))


@pytest.mark.parametrize("scale", [None, math.sqrt])
def test_sweep_gaps_equal_the_gaps_of_the_scaled_subgraph(scale):
    rng = np.random.default_rng(59)
    cases = [(S.triangle(), S.TRIANGLE_CLUSTER, "undirected")]
    for _ in range(8):
        g = S.random_graph(rng, undirected=True)
        cases.append((g, S.random_cluster_pairs(rng, g, undirected=True), "undirected"))
    g, cluster = S.heavy_cycle(8, weight=1.0)
    cases += [(g, cluster, "in"), (g, cluster, "out")]
    for g, pairs, mode in cases:
        cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
        report = sweep(g, cs, mode, LADDER, cluster_scale=scale)
        kind = "out" if mode == "out" else "in"
        for beta, gap in zip(report.betas, report.gap_values):
            sub = scale_edges(cs.subgraph(), cs.total_edges, scale(beta) if scale else beta)
            want = spectral_gap(laplacian(sub, kind), g.masses)
            assert abs(gap - want) <= 1e-12 * want


def test_sweep_omits_gaps_for_asymmetric_clusters():
    g = S.hub_pair()
    cs = S.hub_pair_cluster(g)
    report = sweep(g, cs, "out", LADDER)
    assert report.gap_values is None
    assert report.notes.count(
        "cluster subgraph is not mass-symmetrizable; gaps omitted"
    ) == 1
    assert -1.05 <= report.fitted_slope <= -0.95


def test_sweep_needs_three_distinct_betas():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    with pytest.raises(BetaLadderTooShort):
        sweep(g, cs, "undirected", [10.0, 100.0])
    with pytest.raises(BetaLadderTooShort):
        sweep(g, cs, "undirected", [10.0, 10.0, 10.0])


def test_sweep_with_square_root_scaling_halves_the_rate():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    report = sweep(g, cs, "undirected", [1e2, 1e3, 1e4], cluster_scale=math.sqrt)
    assert -0.6 <= report.fitted_slope <= -0.4
    assert "custom cluster scaling in effect: no rate guarantee" in report.notes
    assert SLOW_SLOPE_NOTE in report.notes


def test_sweep_slope_degrades_with_cluster_chain_length():
    slopes = {}
    for k in (1, 6, 20, 40):
        g, pairs = S.alternating_path(k)
        cs = build_cluster_set(g, pairs, "undirected")
        report = sweep(g, cs, "undirected", LADDER)
        slopes[k] = report.fitted_slope
        if k == 40:
            assert SLOW_SLOPE_NOTE in report.notes
        else:
            assert report.fitted_slope <= -0.9
            assert SLOW_SLOPE_NOTE not in report.notes
    assert slopes[1] < slopes[6] < slopes[20] < slopes[40]


def test_sweep_flags_underflowed_ladders():
    g = S.triangle()
    cs = build_cluster_set(g, [], "undirected")
    report = sweep(g, cs, "undirected", LADDER)
    assert report.fitted_slope is None
    assert report.diffs == (0.0, 0.0, 0.0, 0.0)
    assert report.gap_values == (0.0, 0.0, 0.0, 0.0)
    assert any(n.startswith("differences underflowed at beta = ") for n in report.notes)
    assert "too few usable entries for a slope fit" in report.notes


def test_sweep_report_serializes_to_plain_data():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    report = sweep(g, cs, "undirected", [1e2, 1e3, 1e4], z=-2.0)
    data = report.as_dict()
    assert data["mode"] == "undirected"
    assert data["z"] == {"re": -2.0, "im": 0.0}
    assert data["betas"] == [1e2, 1e3, 1e4]
    assert data["fittedSlope"] == report.fitted_slope
    assert data["gapValues"] == list(report.gap_values)
    assert data["notes"] == list(report.notes)


# -- sweep: outside block eliminated once -------------------------------------------


def chain_with_cluster_head(n: int, p: int):
    """Symmetric path of n nodes with masses in [0.5, 2]; its first p form the cluster."""
    rng = np.random.default_rng(n)
    names = [f"n{k:03d}" for k in range(n)]
    edges = []
    for u, v in zip(names, names[1:]):
        edges.extend(S.sym(u, v, float(rng.uniform(0.5, 2.0))))
    nodes = [(v, float(rng.uniform(0.5, 2.0))) for v in names]
    cluster = [(s, d) for s, d, _ in edges if s < names[p] and d < names[p]]
    return build_graph(nodes, edges), cluster


def singular_outside_block(mode: str):
    """A graph, cluster pairs and z at which the block outside {a, b} is singular.

    Directed: L restricted to q1..q4 is diag(2, 2, 3, 1) minus a 4-cycle with
    weights 1, 2, 1, 1, which has the exact eigenvalue z = 2 + i, so
    ``L_QQ - z`` fails the pivot gate while z stays clear of the spectra of
    the whole and the reduced Laplacians.  Undirected: L_QQ has the
    eigenvalue 1e5, and z = 1e5 + 1e-11i is closer to it than the gate's
    threshold.
    """
    qs = ["q1", "q2", "q3", "q4"]
    edges = S.sym("a", "b")
    if mode == "undirected":
        for u, v in zip(qs, qs[1:] + qs[:1]):
            edges += S.sym(u, v, 1e5)
        for q in qs:
            edges += S.sym("a", q, 1e5)
        z = 1e5 + 1e-11j
    else:
        cycle = [("q4", "q1"), ("q1", "q2"), ("q2", "q3"), ("q3", "q4")]
        edges += [(s, d, w) for (s, d), w in zip(cycle, (1.0, 1.0, 2.0, 1.0))]
        edges += [("a", "q1", 1.0), ("a", "q2", 1.0), ("b", "q3", 1.0), ("q1", "a", 1.0)]
        if mode == "out":
            edges = [(d, s, w) for s, d, w in edges]
        z = 2 + 1j
    graph = build_graph([(v, 1.0) for v in ["a", "b"] + qs], edges)
    return graph, S.sym_pairs("a", "b"), z


def elimination_cases(mode: str):
    """(label, graph, cluster pairs, z, outside block expected singular)."""
    undirected = mode == "undirected"
    rng = np.random.default_rng(83)
    cases = []
    for k in range(4):
        g = S.random_graph(rng, undirected=undirected)
        pairs = S.random_cluster_pairs(rng, g, undirected=undirected)
        cases.append((f"random{k}", g, pairs, -1.0 + 0.5j if k % 2 else -1.0, False))
    square = build_graph(
        [(v, m) for v, m in zip("abcd", (1.0, 0.5, 2.0, 1.5))],
        S.sym("a", "b", 2.0) + S.sym("c", "d", 3.0)
        + S.sym("b", "c") + S.sym("a", "d", 0.5),
    )
    both = S.sym_pairs("a", "b") + S.sym_pairs("c", "d")
    cases.append(("q=0", square, both, -1.0, False))
    cases.append(("q=n-2", S.clique(6), S.sym_pairs("v00", "v01"), -1.0 + 0.5j, False))
    g, pairs = chain_with_cluster_head(130, 50)
    cases.append(("n=130", g, pairs, -1.0, False))
    g, pairs, z = singular_outside_block(mode)
    cases.append(("singular-outside", g, pairs, z, True))
    return cases


def spy_elimination(monkeypatch):
    harness = importlib.import_module("lapcoarse.harness")
    outcomes = []
    original = harness._eliminate_outside

    def spy(*args):
        try:
            resolve = original(*args)
        except SingularMatrix:
            outcomes.append("whole")
            raise
        outcomes.append("eliminated")
        return resolve

    monkeypatch.setattr(harness, "_eliminate_outside", spy)
    return outcomes


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_sweep_diffs_equal_per_beta_resolvent_diffs(mode, monkeypatch):
    for label, g, pairs, z, singular in elimination_cases(mode):
        cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
        outside = {"q=0": 0, "q=n-2": g.n - 2}.get(label)
        if outside is not None:
            assert g.n - len(cs.cluster_nodes) == outside
        outcomes = spy_elimination(monkeypatch)
        report = sweep(g, cs, mode, LADDER, z=z)
        monkeypatch.undo()
        assert outcomes == ["whole" if singular else "eliminated"], label
        result = coarsen(g, cs, mode)
        for beta, diff in zip(report.betas, report.diffs):
            want = resolvent_diff(g, cs, mode, beta, z, result=result)
            assert abs(diff - want) <= TOL_SWEEP_ELIMINATION * want, (label, beta)


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_sweep_uses_a_given_coarsening(mode, monkeypatch):
    g, cluster = S.heavy_cycle(8, weight=1.0)
    cs = build_cluster_set(g, cluster, "undirected" if mode == "undirected" else "directed")
    result = coarsen(g, cs, mode)
    harness = importlib.import_module("lapcoarse.harness")
    calls = []
    monkeypatch.setattr(harness, "coarsen", lambda *a: calls.append(a) or coarsen(*a))
    given = sweep(g, cs, mode, LADDER, result=result)
    assert calls == []
    assert sweep(g, cs, mode, LADDER) == given
    assert len(calls) == 1


# -- the whole-matrix oracle ------------------------------------------------------


def assert_matches_oracle(got, want, beta, floor=0.0, where=None):
    tol = S.TOL_ORACLE if beta <= 1e4 else S.TOL_ORACLE_STIFF
    assert abs(got - want) <= tol * want + floor, (where, beta, got, want)


@pytest.fixture
def blocks_always(monkeypatch):
    """Take every product on the cluster blocks, however small the arrays."""
    monkeypatch.setattr(importlib.import_module("lapcoarse.kernels"), "_BLOCKS_FROM", 0)


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_sweep_and_resolvent_diff_match_the_whole_matrix_oracle(mode, blocks_always):
    ladder = [1e1, 1e2, 1e3, 1e4, 1e6]
    for label, g, pairs, z, _ in elimination_cases(mode):
        cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
        result = coarsen(g, cs, mode)
        for point in (z, complex(z) + 0.25j):
            report = sweep(g, cs, mode, ladder, z=point, result=result)
            for beta, diff in zip(report.betas, report.diffs):
                want, floor = S.oracle_resolvent_diff(g, cs, result, beta, point)
                assert_matches_oracle(diff, want, beta, floor, (label, point))
                one = resolvent_diff(g, cs, mode, beta, point, result=result)
                assert_matches_oracle(one, want, beta, floor, (label, point))


def gap_cases(mode: str):
    """(label, graph, symmetric cluster pairs, z) for the gap bound check."""
    rng = np.random.default_rng(89)
    cases = []
    for k in range(4):
        g = S.random_graph(rng, undirected=True)
        cases.append((f"random{k}", g, S.random_cluster_pairs(rng, g, undirected=True), -1.0))
    g, pairs = chain_with_cluster_head(130, 50)
    cases.append(("n=130", g, pairs, -2.0))
    g, pairs, z = singular_outside_block(mode)
    cases.append(("singular-outside", g, pairs, z))
    cases.append(("no-clusters", S.triangle(), [], -1.0))
    return cases


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_gap_bound_check_matches_the_whole_matrix_oracle(mode, blocks_always):
    for label, g, pairs, z in gap_cases(mode):
        cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
        result = coarsen(g, cs, mode)
        for point in (z, complex(z) + 0.5j):
            for beta in (1e2, 1e4, 1e6):
                report = gap_bound_check(g, cs, mode, beta, z=point)
                distance, gap, full, floor = S.oracle_gap_check(g, cs, result, beta, point)
                where = (label, point)
                assert_matches_oracle(report.distance, distance, beta, where=where)
                assert_matches_oracle(report.gap, gap, beta, where=where)
                assert_matches_oracle(report.full_diff, full, beta, floor, where)


def weak_link_cluster(weight: float = 3.3e-15):
    """Cluster path a - b - c with b - c of ``weight``, and 47 background nodes hung from c.

    The middle eigenvalue of the 3 x 3 cluster block, about 1.5 ``weight``,
    lies between 3 eps lambda_max and 50 eps lambda_max: the whole 50 x 50
    cluster Laplacian counts it as zero, its nonzero block would not.
    """
    outside = [f"o{k:02d}" for k in range(47)]
    edges = S.sym("a", "b") + S.sym("b", "c", weight) + S.sym("c", outside[0])
    for u, v in zip(outside, outside[1:]):
        edges += S.sym(u, v)
    g = build_graph([(v, 1.0) for v in ["a", "b", "c"] + outside], edges)
    pairs = S.sym_pairs("a", "b") + S.sym_pairs("b", "c")
    return g, build_cluster_set(g, pairs, "undirected")


def test_gaps_count_zero_as_on_the_whole_cluster_laplacian():
    g, cs = weak_link_cluster()
    result = coarsen(g, cs, "undirected")
    assert spectral_gap(result.basis.cluster_block, np.ones(3)) < 1e-14
    _, want, _, _ = S.oracle_gap_check(g, cs, result, 1.0, -1.0)
    assert want > 1.0
    assert abs(gap_bound_check(g, cs, "undirected", 1.0).gap - want) <= S.TOL_ORACLE * want
    report = sweep(g, cs, "undirected", [1.0, 10.0, 100.0], result=result)
    assert abs(report.gap_values[0] - want) <= S.TOL_ORACLE * want


def test_complex_sweep_diffs_equal_the_general_product_gram_values():
    # Recorded with the Gram matrix formed as a general product of a
    # conjugated copy, before the Hermitian rank-k update replaced it.
    want = {
        "undirected": (0.863358662221979, 0.6966345746121677, 0.23006096176091595,
                       0.029377683404546304),
        "in": (0.863358662221979, 0.6966345746121675, 0.230060961760916,
               0.029377683404546304),
        "out": (0.8633586622219789, 0.6966345746121675, 0.23006096176091595,
                0.029377683404546304),
    }
    g, pairs = chain_with_cluster_head(130, 50)
    for mode, diffs in want.items():
        cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
        report = sweep(g, cs, mode, LADDER, z=-1.0 + 0.5j)
        for got, value in zip(report.diffs, diffs):
            assert abs(got - value) <= S.TOL_ORACLE * value, mode


@pytest.mark.parametrize("mode", ["undirected", "in", "out"])
def test_resolvent_diff_and_gap_check_invert_no_whole_matrix(mode, monkeypatch):
    harness = importlib.import_module("lapcoarse.harness")
    sizes = []
    original = harness.inverse
    monkeypatch.setattr(harness, "inverse", lambda a: sizes.append(len(a)) or original(a))
    g, pairs = chain_with_cluster_head(130, 50)
    cs = build_cluster_set(g, pairs, "undirected" if mode == "undirected" else "directed")
    assert 0 < len(cs.cluster_nodes) < g.n
    resolvent_diff(g, cs, mode, 1e3, -1.0 + 0.5j)
    gap_bound_check(g, cs, mode, 1e3)
    assert sizes and max(sizes) < g.n


@pytest.mark.parametrize("call", ["resolvent_diff", "heat_diff", "sweep"])
def test_harness_rejects_a_coarsening_of_another_graph_or_mode(call):
    run = {
        "resolvent_diff": lambda g, cs, r: resolvent_diff(g, cs, "undirected", 1e3, result=r),
        "heat_diff": lambda g, cs, r: heat_diff(g, cs, "undirected", 1e3, 1.0, result=r),
        "sweep": lambda g, cs, r: sweep(g, cs, "undirected", LADDER, result=r),
    }[call]
    g1, g2 = S.triangle(), S.heavier_triangle()
    cs1, cs2 = S.triangle_cluster(g1), S.triangle_cluster(g2)
    r1 = coarsen(g1, cs1, "undirected")
    with pytest.raises(ClusterViolation):
        run(g2, cs2, r1)
    with pytest.raises(ClusterViolation):
        run(g2, cs1, r1)
    with pytest.raises(ClusterViolation):
        run(g1, cs1, coarsen(g1, build_cluster_set(g1, S.TRIANGLE_CLUSTER, "directed"), "in"))
    edges = S.sym("a", "b") + S.sym("a", "c") + S.sym("b", "c") + S.sym("a", "d")
    square = build_graph([(v, 1.0) for v in "abcd"], edges)
    with pytest.raises(ClusterViolation):
        run(square, S.triangle_cluster(square), r1)
    # the same coarsening, given or made again, gives the same answer
    assert run(g2, cs2, coarsen(g2, cs2, "undirected")) == run(g2, cs2, None)
    again = coarsen(S.triangle(), S.triangle_cluster(), "undirected")
    assert run(g1, cs1, again) == run(g1, cs1, r1)
