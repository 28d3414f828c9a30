"""Command line behavior: subcommands, exit codes, output routing."""

import json
import os
import subprocess
import sys

import pytest

import lapcoarse
import support as S
from lapcoarse.cli import main
from lapcoarse.errors import InvariantViolation
from lapcoarse.graph import build_graph
from lapcoarse.io import serialize_graph

BC_EDGES = '[{"src": "b", "dst": "c"}, {"src": "c", "dst": "b"}]'
HUB_EDGES = '[{"src": "2", "dst": "3"}, {"src": "3", "dst": "2"}]'
TS_EDGES = '[{"src": "2", "dst": "3"}]'


@pytest.fixture
def triangle_files(tmp_path):
    graph = tmp_path / "triangle.json"
    graph.write_text(serialize_graph(S.triangle()))
    cluster = tmp_path / "bc.json"
    cluster.write_text(BC_EDGES)
    return str(graph), str(cluster)


@pytest.fixture
def hub_files(tmp_path):
    graph = tmp_path / "hub.json"
    graph.write_text(serialize_graph(S.hub_pair()))
    cluster = tmp_path / "hub_cluster.json"
    cluster.write_text(HUB_EDGES)
    return str(graph), str(cluster)


def test_analyze_reports_structure(triangle_files, capsys):
    graph, _ = triangle_files
    assert main(["analyze", graph]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nodes"] == 3
    assert report["edges"] == 6
    assert report["directed"] is False
    assert report["boundedness"] == 2.0
    assert report["components"] == [["a", "b", "c"]]
    assert report["reaches"] == [
        {
            "nodes": ["a", "b", "c"],
            "cabal": ["a", "b", "c"],
            "exclusive": ["a", "b", "c"],
            "common": [],
        }
    ]


def test_analyze_on_directed_graphs_has_no_component_list(hub_files, capsys):
    graph, _ = hub_files
    assert main(["analyze", graph]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["directed"] is True
    assert "components" not in report


def test_kernels_prints_the_basis(hub_files, capsys):
    graph, cluster = hub_files
    assert main(["kernels", graph, "--cluster-edges", cluster]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "in"
    assert report["reaches"] == ["1", "2+3"]
    assert report["right"]["2+3"] == [0.0, 1.0, 1.0]
    left = report["left"]["2+3"]
    assert left == pytest.approx([0.0, 7 / 18, 11 / 18], abs=1e-14)
    assert report["right"]["1"] == [1.0, 0.0, 0.0]


def test_kernels_kind_out_swaps_the_roles(hub_files, capsys):
    graph, cluster = hub_files
    assert main(["kernels", graph, "--cluster-edges", cluster, "--kind", "out"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "out"
    assert report["left"]["2+3"] == [0.0, 1.0, 1.0]
    assert report["right"]["2+3"] == pytest.approx([0.0, 11 / 18, 7 / 18], abs=1e-14)


def test_coarsen_writes_a_reduced_document(triangle_files, capsys):
    graph, cluster = triangle_files
    code = main(["coarsen", graph, "--cluster-edges", cluster, "--mode", "undirected"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["node_map"] == {"a": ["a"], "b+c": ["b", "c"]}
    assert [n["mass"] for n in doc["reduced"]["nodes"]] == [1.0, 2.0]
    assert all(e["weight"] == 2.0 for e in doc["reduced"]["edges"])


def test_coarsen_routes_output_to_files(triangle_files, tmp_path, capsys):
    graph, cluster = triangle_files
    out = tmp_path / "reduced.json"
    dot = tmp_path / "reduced.dot"
    code = main(
        [
            "coarsen",
            graph,
            "--cluster-edges",
            cluster,
            "--mode",
            "undirected",
            "--out",
            str(out),
            "--dot",
            str(dot),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["mode"] == "undirected"
    assert dot.read_text().startswith("graph reduced {")
    assert '"a" -- "b+c" [label="2"];' in dot.read_text()


def test_verify_defaults_to_a_json_sweep(triangle_files, capsys):
    graph, cluster = triangle_files
    assert main(["verify", graph, "--cluster-edges", cluster, "--mode", "undirected"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["betas"] == [1e1, 1e2, 1e3, 1e4]
    assert -1.05 <= report["fittedSlope"] <= -0.95
    assert captured.err == ""


def test_verify_csv_format_and_custom_ladder(triangle_files, capsys):
    graph, cluster = triangle_files
    code = main(
        [
            "verify",
            graph,
            "--cluster-edges",
            cluster,
            "--mode",
            "undirected",
            "--betas",
            "1e2,1e3,1e4",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta,diff,gap"
    assert len([l for l in lines if not l.startswith("#")]) == 4


def test_verify_writes_report_files_and_notes_to_stderr(hub_files, tmp_path, capsys):
    graph, cluster = hub_files
    report_path = tmp_path / "sweep.json"
    code = main(
        [
            "verify",
            graph,
            "--cluster-edges",
            cluster,
            "--mode",
            "out",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "note: cluster subgraph is not mass-symmetrizable" in captured.err
    assert json.loads(report_path.read_text())["gapValues"] is None


def test_verify_output_is_reproducible(triangle_files, capsys):
    graph, cluster = triangle_files
    main(["verify", graph, "--cluster-edges", cluster, "--mode", "undirected"])
    first = capsys.readouterr().out
    main(["verify", graph, "--cluster-edges", cluster, "--mode", "undirected"])
    assert capsys.readouterr().out == first


def test_heat_reports_one_comparison(triangle_files, capsys):
    graph, cluster = triangle_files
    code = main(
        [
            "heat",
            graph,
            "--cluster-edges",
            cluster,
            "--mode",
            "undirected",
            "--beta",
            "1e3",
            "--t",
            "1.0",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "undirected"
    assert report["beta"] == 1e3
    assert report["t"] == 1.0
    assert report["heat_diff"] <= 5e-3


@pytest.fixture
def heavy_cycle_files(tmp_path):
    g, cluster = S.heavy_cycle(120)
    graph = tmp_path / "heavy.json"
    graph.write_text(serialize_graph(g))
    edges = tmp_path / "heavy_cluster.json"
    edges.write_text(json.dumps([{"src": s, "dst": d} for s, d in cluster]))
    return str(graph), str(edges)


def test_heavy_cycle_reduces_and_verifies_in_mode_in(heavy_cycle_files, capsys):
    graph, cluster = heavy_cycle_files
    assert main(["coarsen", graph, "--cluster-edges", cluster, "--mode", "in"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reduced"]["edges"]) == 2
    assert main(["verify", graph, "--cluster-edges", cluster, "--mode", "in"]) == 0


def test_missing_files_exit_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_cluster_edges_exit_one(triangle_files, tmp_path, capsys):
    graph, _ = triangle_files
    bogus = tmp_path / "bogus.json"
    bogus.write_text('[{"src": "a", "dst": "a"}]')
    code = main(["coarsen", graph, "--cluster-edges", str(bogus), "--mode", "undirected"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_z_on_the_spectrum_axis_exits_one(triangle_files, capsys, monkeypatch):
    # a non-finite z is rejected as well, before any eigensolve
    harness = sys.modules["lapcoarse.harness"]
    calls = []
    monkeypatch.setattr(harness, "eigvals", lambda a: calls.append(a))
    graph, cluster = triangle_files
    for z, message in [("0.0", "real axis"), ("nan", "is not finite"), ("-inf", "is not finite")]:
        argv = ["verify", graph, "--cluster-edges", cluster, "--mode", "undirected", f"--z={z}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err
    assert calls == []


def test_usage_failures_exit_one(triangle_files, capsys):
    graph, cluster = triangle_files
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "verify",
                graph,
                "--cluster-edges",
                cluster,
                "--mode",
                "undirected",
                "--betas",
                "10,10",
            ]
        )
    assert exc.value.code == 1
    assert "three distinct scaling factors" in capsys.readouterr().err


def test_violated_invariants_exit_two(triangle_files, capsys, monkeypatch):
    def explode(graph, cluster_set, mode):
        raise InvariantViolation("reduced weights came out negative")

    monkeypatch.setattr("lapcoarse.cli.coarsen", explode)
    graph, cluster = triangle_files
    code = main(["coarsen", graph, "--cluster-edges", cluster, "--mode", "undirected"])
    assert code == 2
    assert "invariant violation:" in capsys.readouterr().err


def test_overflow_inside_the_package_exits_two(tmp_path, capsys):
    """Masses 1e300, 1e-300 and 1 are valid; the heat kernel overflows inside the package."""
    edges = S.sym("a", "b") + S.sym("a", "c") + S.sym("b", "c")
    graph = tmp_path / "extreme.json"
    graph.write_text(serialize_graph(build_graph([("a", 1e300), ("b", 1e-300), ("c", 1.0)], edges)))
    cluster = tmp_path / "bc.json"
    cluster.write_text(BC_EDGES)
    code = main(["heat", str(graph), "--cluster-edges", str(cluster), "--mode", "undirected"])
    assert code == 2
    assert "invariant violation: matrix contains NaN or Inf" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lapcoarse ")


# argv: the triangle's graph and cluster files, then the long cycle's.  Run
# in a fresh interpreter, since the test process has scipy loaded already.
SCIPY_ON_FIRST_USE = """
import sys
import lapcoarse
from lapcoarse.cli import main

graph, edges = sys.argv[1], ["--cluster-edges", sys.argv[2]]
cycle, cycle_edges = sys.argv[3], ["--cluster-edges", sys.argv[4]]
assert "scipy.linalg" not in sys.modules, "import lapcoarse"
for argv in (
    ["analyze", graph],
    ["kernels", graph, *edges],
    *(["coarsen", graph, *edges, "--mode", mode] for mode in ("undirected", "in", "out")),
    *(["verify", graph, *edges, "--mode", mode, "--format", form]
      for mode in ("undirected", "in", "out") for form in ("json", "csv")),
    # its cabal spans two GTH panels
    *(["kernels", cycle, *cycle_edges, "--kind", kind] for kind in ("in", "out")),
    *(["coarsen", cycle, *cycle_edges, "--mode", mode] for mode in ("in", "out")),
):
    assert main(argv) == 0
    assert "scipy.linalg" not in sys.modules, argv
assert main(["heat", graph, *edges, "--mode", "undirected"]) == 0
assert "scipy.linalg" in sys.modules, "heat"
"""


@pytest.fixture
def long_cycle_files(tmp_path):
    """A directed 40-cycle with unequal weights, its cluster, and a pendant node."""
    names = [f"c{i:02d}" for i in range(40)]
    cycle = [(names[i], names[(i + 1) % 40], float(i + 1)) for i in range(40)]
    g = build_graph([(v, 1.0) for v in names + ["x"]],
                    cycle + [("x", "c00", 1.0), ("c00", "x", 1.0)])
    graph = tmp_path / "long_cycle.json"
    graph.write_text(serialize_graph(g))
    edges = tmp_path / "long_cycle_cluster.json"
    edges.write_text(json.dumps([{"src": s, "dst": d} for s, d, _ in cycle]))
    return str(graph), str(edges)


def test_scipy_loads_only_for_commands_that_call_it(triangle_files, long_cycle_files):
    src = os.path.dirname(os.path.dirname(lapcoarse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_ON_FIRST_USE, *triangle_files, *long_cycle_files],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
