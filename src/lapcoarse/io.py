"""Graph documents, cluster edge lists, DOT export, report serialization.

The on-disk graph format is a small JSON document:

    {
      "format_version": "1",
      "directed": true,
      "nodes": [{"id": "a", "mass": 1.0}, ...],
      "edges": [{"src": "a", "dst": "b", "weight": 2.0}, ...]
    }

Edges are drawn arrows from ``src`` to ``dst``.  ``mass`` and ``weight``
default to 1.0 when omitted.  The ``directed`` flag is a hint and is
validated rather than trusted: a document claiming to be undirected is
rejected unless its weights really are symmetric.  Serialization is
canonical (sorted nodes, sorted edges, sorted keys), so documents
round-trip byte for byte.
"""

from __future__ import annotations

import json
from typing import Any

from .coarsen import CoarseningResult
from .errors import MalformedDocument, UnknownVersion
from .graph import Graph, build_graph, is_undirected
from .harness import SweepReport

__all__ = [
    "export_dot",
    "parse_cluster_edges",
    "parse_graph",
    "serialize_coarsening",
    "serialize_graph",
    "serialize_sweep",
    "sweep_csv",
]

FORMAT_VERSION = "1"


def _load(payload: str | bytes | dict, what: str) -> dict:
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise MalformedDocument(f"{what} must be a JSON object")
    return payload


def _real(value: Any, what: str, default: float | None = None) -> float:
    if value is None and default is not None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedDocument(f"{what} must be a number, got {value!r}")
    return float(value)


def _ident(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise MalformedDocument(f"{what} must be a non-empty string, got {value!r}")
    return value


def parse_graph(payload: str | bytes | dict) -> Graph:
    """Parse and validate a graph document (JSON text or parsed object)."""
    doc = _load(payload, "graph document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnknownVersion(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise MalformedDocument("'nodes' must be a non-empty list")
    nodes = []
    for item in raw_nodes:
        if not isinstance(item, dict):
            raise MalformedDocument(f"node entry must be an object, got {item!r}")
        nodes.append(
            (_ident(item.get("id"), "node id"), _real(item.get("mass"), "mass", 1.0))
        )
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise MalformedDocument("'edges' must be a list")
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise MalformedDocument(f"edge entry must be an object, got {item!r}")
        edges.append(
            (
                _ident(item.get("src"), "edge src"),
                _ident(item.get("dst"), "edge dst"),
                _real(item.get("weight"), "weight", 1.0),
            )
        )
    graph = build_graph(nodes, edges)
    directed = doc.get("directed")
    if directed is not None and not isinstance(directed, bool):
        raise MalformedDocument(f"'directed' must be a boolean, got {directed!r}")
    if directed is False and not is_undirected(graph):
        raise MalformedDocument(
            "document claims to be undirected but its weights are not symmetric"
        )
    return graph


def _graph_document(graph: Graph) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "directed": not is_undirected(graph),
        "nodes": [
            {"id": v, "mass": float(graph.masses[k])}
            for k, v in enumerate(graph.nodes)
        ],
        "edges": [
            {"src": s, "dst": d, "weight": w} for s, d, w in graph.edges()
        ],
    }


def serialize_graph(graph: Graph) -> str:
    """Canonical JSON text for a graph; stable byte-for-byte."""
    return json.dumps(_graph_document(graph), indent=2, sort_keys=True) + "\n"


def parse_cluster_edges(payload: str | bytes | list):
    """Parse a cluster edge document.

    Accepts either a flat JSON list of ``{"src", "dst"}`` objects or a
    list of such lists (pre-grouped clusters).  Returns pair tuples in the
    shape :func:`~lapcoarse.connectivity.build_cluster_set` expects.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"cluster document is not valid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise MalformedDocument("cluster document must be a JSON list")

    def one(item) -> tuple[str, str]:
        if not isinstance(item, dict):
            raise MalformedDocument(f"cluster edge must be an object, got {item!r}")
        return (_ident(item.get("src"), "edge src"), _ident(item.get("dst"), "edge dst"))

    if all(isinstance(item, list) for item in payload):
        return [[one(e) for e in group] for group in payload]
    return [one(item) for item in payload]


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    graph: Graph | CoarseningResult,
    cluster_edges=None,
    node_map: dict[str, tuple[str, ...]] | None = None,
) -> str:
    """Graphviz text for a graph or for the reduced graph of a coarsening.

    Symmetric graphs come out as an undirected ``graph`` with one ``--``
    line per edge pair; anything else is a ``digraph``.  Cluster edges are
    drawn bold.  ``node_map`` (as produced by coarsening) attaches the
    member nodes of each reduced node as a tooltip; passing a
    :class:`~lapcoarse.coarsen.CoarseningResult` fills it in automatically.
    """
    if isinstance(graph, CoarseningResult):
        node_map = dict(graph.node_map) if node_map is None else node_map
        graph = graph.reduced
    undirected = is_undirected(graph)
    marked = {tuple(p) for p in cluster_edges} if cluster_edges else set()
    lines = ["graph reduced {" if undirected else "digraph reduced {"]
    for k, v in enumerate(graph.nodes):
        attrs = [f'label="{v} (m={graph.masses[k]:g})"']
        if node_map and v in node_map:
            attrs.append('tooltip="{}"'.format(", ".join(node_map[v])))
        lines.append(f"  {_quote(v)} [{', '.join(attrs)}];")
    for src, dst, w in graph.edges():
        if undirected and src > dst:
            continue
        arrow = "--" if undirected else "->"
        attrs = [f'label="{w:g}"']
        if (src, dst) in marked or (undirected and (dst, src) in marked):
            attrs.append("style=bold")
        lines.append(f"  {_quote(src)} {arrow} {_quote(dst)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_coarsening(result: CoarseningResult) -> str:
    """Canonical JSON for a coarsening: mode, reduced graph, node map."""
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": result.mode,
        "parent_nodes": list(result.graph.nodes),
        "reduced": _graph_document(result.reduced),
        "node_map": {
            label: list(members) for label, members in result.node_map.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def serialize_sweep(report: SweepReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


def sweep_csv(report: SweepReport) -> str:
    """Sweep ladder as CSV rows plus comment lines for the scalar fields."""
    lines = ["beta,diff,gap"]
    for k, beta in enumerate(report.betas):
        gap = "" if report.gap_values is None else repr(report.gap_values[k])
        lines.append(f"{beta!r},{report.diffs[k]!r},{gap}")
    z = complex(report.z)
    slope = "" if report.fitted_slope is None else repr(report.fitted_slope)
    lines.append(f"# mode,{report.mode}")
    lines.append(f"# z,{z.real!r},{z.imag!r}")
    lines.append(f"# fittedSlope,{slope}")
    for note in report.notes:
        lines.append(f"# note,{note}")
    return "\n".join(lines) + "\n"
