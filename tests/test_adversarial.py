"""Hostile input: every public call and CLI command answers or raises a typed error.

Each call runs with RuntimeWarning as an error, so an overflow or an
invalid operation inside the package fails the test instead of passing
silently.  This complements the AST check that every ``raise`` outside the
CLI names a package error.
"""

import functools
import json

import numpy as np
import pytest

import support as S
from lapcoarse import (
    CoarseningResult,
    Graph,
    KernelBasis,
    LapcoarseError,
    SweepReport,
    ValidationError,
    build_cluster_set,
    build_graph,
    coarsen,
    gap_bound_check,
    heat_diff,
    is_undirected,
    kernels_in,
    kernels_out,
    resolvent_diff,
    sweep,
)
from lapcoarse.cli import main
from lapcoarse.errors import (
    DuplicateNode,
    EmptyGraph,
    NonPositiveMass,
    NonPositiveWeight,
    NotSymmetrizable,
    ShapeMismatch,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
LOOP = 1e17
TRIANGLE_EDGES = S.sym("a", "b") + S.sym("a", "c") + S.sym("b", "c")
TRIANGLE_NODES = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
HUB_NODES = [("1", 1.0), ("2", 1.0), ("3", 1.0)]
HUB_EDGES = list(S.hub_pair().edges())

# Graphs that are valid input, as node list, edge list and cluster edges.
HOSTILE = {
    "triangle, loop on a cluster node": (
        TRIANGLE_NODES, TRIANGLE_EDGES + [("b", "b", LOOP)], S.TRIANGLE_CLUSTER),
    "triangle, loop on a background node": (
        TRIANGLE_NODES, TRIANGLE_EDGES + [("a", "a", LOOP)], S.TRIANGLE_CLUSTER),
    "hub pair, loop on a cluster node": (
        HUB_NODES, HUB_EDGES + [("2", "2", LOOP)], S.HUB_PAIR_CLUSTER),
    "hub pair, loop on a background node": (
        HUB_NODES, HUB_EDGES + [("1", "1", LOOP)], S.HUB_PAIR_CLUSTER),
    "subnormal weights": (
        TRIANGLE_NODES,
        S.sym("a", "b", 1e-310) + S.sym("a", "c", 1e-310) + S.sym("b", "c"),
        S.TRIANGLE_CLUSTER,
    ),
    "masses 1e300, 1e-300, 1": (
        [("a", 1e300), ("b", 1e-300), ("c", 1.0)], TRIANGLE_EDGES, S.TRIANGLE_CLUSTER),
}
LOOPS = sorted(family for family in HOSTILE if "loop" in family)


def without_loops(edges):
    return [(s, d, w) for s, d, w in edges if s != d]


def public_calls(graph, cluster):
    """Every public call on ``graph``, by name, in each mode the graph allows."""
    modes = ("undirected", "in", "out") if is_undirected(graph) else ("in", "out")
    directed = build_cluster_set(graph, cluster, "directed")
    calls = {
        "kernels_in": functools.partial(kernels_in, graph, directed),
        "kernels_out": functools.partial(kernels_out, graph, directed),
    }
    for mode in modes:
        cs = directed if mode != "undirected" else build_cluster_set(graph, cluster, mode)
        calls.update({
            f"coarsen {mode}": functools.partial(coarsen, graph, cs, mode),
            f"sweep {mode}": functools.partial(sweep, graph, cs, mode, [1e1, 1e2, 1e3, 1e4]),
            f"resolvent_diff {mode}": functools.partial(resolvent_diff, graph, cs, mode, 10.0),
            f"heat_diff {mode}": functools.partial(heat_diff, graph, cs, mode, 10.0, 1.0),
            f"gap_bound_check {mode}": functools.partial(gap_bound_check, graph, cs, mode, 10.0),
        })
    return calls


def answer(call):
    """What a call gives, comparable across runs: its values, or its error's class."""
    try:
        value = call()
    except LapcoarseError as exc:
        return type(exc)
    if isinstance(value, CoarseningResult):
        return [
            value.reduced.nodes,
            *(a.tobytes() for a in (value.down, value.up, value.reduced.masses,
                                    value.reduced.weights, value.reduced_laplacian)),
        ]
    if isinstance(value, KernelBasis):
        return [value.right.tobytes(), value.left.tobytes()]
    if isinstance(value, SweepReport):
        return value.as_dict()
    return value


@pytest.mark.parametrize("family", sorted(HOSTILE))
def test_every_public_call_answers_or_raises_a_typed_error(family):
    nodes, edges, cluster = HOSTILE[family]
    for call in public_calls(build_graph(nodes, edges), cluster).values():
        answer(call)  # anything but a package error propagates and fails


@pytest.mark.parametrize("family", LOOPS)
def test_self_loops_leave_every_answer_unchanged(family):
    """A 1e17 loop once cancelled its row's degree, and on a cluster node
    made every coarsening raise ReductionMismatch."""
    nodes, edges, cluster = HOSTILE[family]
    looped, plain = build_graph(nodes, edges), build_graph(nodes, without_loops(edges))
    assert looped == plain
    got = {name: answer(call) for name, call in public_calls(looped, cluster).items()}
    want = {name: answer(call) for name, call in public_calls(plain, cluster).items()}
    assert got == want
    # every call answers, but the hub pair's cluster is not mass-symmetrizable,
    # so its gap check raises NotSymmetrizable with or without the loop
    errors = {name: value for name, value in got.items() if isinstance(value, type)}
    hub = family.startswith("hub pair")
    assert errors == ({f"gap_bound_check {m}": NotSymmetrizable for m in ("in", "out")}
                      if hub else {})


def test_a_reduced_label_that_names_a_node_raises_duplicate_node():
    """Node ``a+b`` beside the reach {a, b}: both reduced nodes would be ``a+b``."""
    g = build_graph([("a", 1.0), ("b", 1.0), ("a+b", 1.0)], S.sym("a", "b") + S.sym("b", "a+b"))
    for mode in ("undirected", "in", "out"):
        kind = "undirected" if mode == "undirected" else "directed"
        with pytest.raises(DuplicateNode):
            coarsen(g, build_cluster_set(g, S.sym_pairs("a", "b"), kind), mode)


# Direct construction: each must raise a typed ValidationError at once.
AB = ("a", "b")
ZEROS = [[0.0, 0.0], [0.0, 0.0]]
BAD_GRAPHS = {
    "nan mass": (AB, [1.0, NAN], ZEROS, NonPositiveMass),
    "inf mass": (AB, [INF, 1.0], ZEROS, NonPositiveMass),
    "negative mass": (AB, [1.0, -1.0], ZEROS, NonPositiveMass),
    "zero mass": (AB, [0.0, 1.0], ZEROS, NonPositiveMass),
    "negative mass beside a nan weight": (AB, [1.0, -1.0], [[0.0, NAN], [1.0, 0.0]],
                                          NonPositiveMass),
    "nan weight": (AB, [1.0, 1.0], [[0.0, NAN], [1.0, 0.0]], NonPositiveWeight),
    "inf weight": (AB, [1.0, 1.0], [[0.0, 1.0], [INF, 0.0]], NonPositiveWeight),
    "negative weight": (AB, [1.0, 1.0], [[0.0, -1.0], [1.0, 0.0]], NonPositiveWeight),
    "nan self-loop": (AB, [1.0, 1.0], [[NAN, 0.0], [0.0, 0.0]], NonPositiveWeight),
    "no nodes": ((), np.zeros(0), np.zeros((0, 0)), EmptyGraph),
    "masses too long": (AB, [1.0, 1.0, 1.0], ZEROS, ShapeMismatch),
    "masses as a matrix": (AB, [[1.0, 1.0]], ZEROS, ShapeMismatch),
    "weights not square": (AB, [1.0, 1.0], np.zeros((2, 3)), ShapeMismatch),
    "weights flat": (AB, [1.0, 1.0], np.zeros(4), ShapeMismatch),
    "duplicate ids": (("a", "a"), [1.0, 1.0], ZEROS, DuplicateNode),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_graph_rejects_bad_input_at_construction(case):
    nodes, masses, weights, error = BAD_GRAPHS[case]
    assert issubclass(error, ValidationError)
    with pytest.raises(error):
        Graph(nodes, np.array(masses, dtype=float), np.array(weights, dtype=float))


def test_a_nan_weight_names_its_edge():
    with pytest.raises(NonPositiveWeight, match="edge 'b' -> 'a' has weight nan"):
        Graph(AB, np.ones(2), np.array([[0.0, NAN], [1.0, 0.0]]))


# -- the command line ------------------------------------------------------------


def document(nodes, edges):
    return json.dumps({
        "format_version": "1",
        "nodes": [{"id": v, "mass": m} for v, m in nodes],
        "edges": [{"src": s, "dst": d, "weight": w} for s, d, w in edges],
    })


def commands(graph, cluster):
    edges = ["--cluster-edges", cluster]
    out = [["analyze", graph], ["kernels", graph, *edges],
           ["kernels", graph, *edges, "--kind", "out"]]
    for mode in ("undirected", "in", "out"):
        out += [
            ["coarsen", graph, *edges, "--mode", mode],
            ["verify", graph, *edges, "--mode", mode],
            ["verify", graph, *edges, "--mode", mode, "--format", "csv"],
            ["heat", graph, *edges, "--mode", mode],
        ]
    return out


def run_all(tmp_path, capsys, name, text, cluster):
    graph, edges = tmp_path / f"{name}.json", tmp_path / f"{name}.cluster.json"
    graph.write_text(text)
    edges.write_text(json.dumps([{"src": s, "dst": d} for s, d in cluster]))
    capsys.readouterr()
    results = []
    for argv in commands(str(graph), str(edges)):
        code = main(argv)
        results.append((argv[0], code, capsys.readouterr().out))
    return results


@pytest.mark.parametrize("family", sorted(HOSTILE))
def test_every_cli_command_exits_zero_one_or_two(family, tmp_path, capsys):
    nodes, edges, cluster = HOSTILE[family]
    results = run_all(tmp_path, capsys, "g", document(nodes, edges), cluster)
    assert {code for _, code, _ in results} <= {0, 1, 2}


@pytest.mark.parametrize("family", LOOPS)
def test_cli_output_ignores_self_loops(family, tmp_path, capsys):
    nodes, edges, cluster = HOSTILE[family]
    looped = run_all(tmp_path, capsys, "looped", document(nodes, edges), cluster)
    plain = run_all(tmp_path, capsys, "plain", document(nodes, without_loops(edges)), cluster)
    assert looped == plain
    assert {code for _, code, _ in plain} <= {0, 1}


BAD_DOCUMENTS = {
    "nan mass": ([("a", NAN), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 1.0)]),
    "inf mass": ([("a", INF), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 1.0)]),
    "negative mass": ([("a", -1.0), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 1.0)]),
    "nan weight": ([("a", 1.0), ("b", 1.0)], [("a", "b", NAN), ("b", "a", 1.0)]),
    "inf weight": ([("a", 1.0), ("b", 1.0)], [("a", "b", INF), ("b", "a", 1.0)]),
    "negative weight": ([("a", 1.0), ("b", 1.0)], [("a", "b", -1.0), ("b", "a", 1.0)]),
    "duplicate ids": ([("a", 1.0), ("a", 2.0), ("b", 1.0)], [("a", "b", 1.0), ("b", "a", 1.0)]),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_cli_rejects_bad_documents_with_exit_one(case, tmp_path, capsys):
    nodes, edges = BAD_DOCUMENTS[case]
    results = run_all(tmp_path, capsys, "bad", document(nodes, edges), [("a", "b"), ("b", "a")])
    assert {code for _, code, _ in results} == {1}
