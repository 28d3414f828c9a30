"""Convergence harness: scaled ladders, resolvent and heat comparisons, gap bounds."""

import importlib
import math

import numpy as np
import pytest

import support as S
from lapcoarse.coarsen import coarsen
from lapcoarse.connectivity import build_cluster_set
from lapcoarse.errors import (
    BetaLadderTooShort,
    NonPositiveTime,
    NonPositiveWeight,
    NotSymmetrizable,
    ZOnSpectrumAxis,
)
from lapcoarse.graph import build_graph, laplacian, scale_edges
from lapcoarse.harness import (
    _gershgorin_clearance,
    gap_bound_check,
    heat_diff,
    resolvent_diff,
    scaled_graph,
    sweep,
)
from lapcoarse.numerics import spectral_gap, weighted_opnorm

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
    scaled = scaled_graph(g, cs, 10.0)
    assert scaled.weight("2", "3") == 10.0 * S.RHO
    assert scaled.weight("3", "2") == 10.0 * S.ETA
    assert scaled.weight("1", "2") == 1.0
    assert scaled.weight("1", "3") == 1.0


def test_scaling_factor_must_be_positive_and_finite():
    g = S.triangle()
    cs = S.triangle_cluster(g)
    for bad in (0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveWeight):
            scaled_graph(g, cs, bad)


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
            mat = beta * laplacian(g, kind).matrix
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
    eigs = np.linalg.eigvals(laplacian(g, "in").matrix)
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
        for name in ("kernels_in", "kernels_out"):
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
            want = spectral_gap(laplacian(sub, kind).matrix, g.masses)
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
