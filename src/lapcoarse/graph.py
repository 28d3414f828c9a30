"""Graph data model, Laplacians, and the mass-weighted inner product.

A graph is a finite node set with strictly positive masses and a weighted
directed edge set.  Edges are presented to the public API as drawn arrows
``(src, dst)`` (tail to head).  Internally the weight matrix follows the
head-row convention: ``W[i, j]`` is the weight of the drawn arrow j -> i,
so that the in-degree Laplacian is ``M^-1 (diag(row sums) - W)`` and the
out-degree Laplacian is ``M^-1 (diag(column sums) - W)``.

Instances are immutable after construction (arrays are set read-only) and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

import numpy as np

from .errors import (
    DuplicateEdge,
    DuplicateNode,
    InvalidOption,
    NonPositiveMass,
    NonPositiveWeight,
    UnknownEndpoint,
    UnknownNode,
)

Kind = Literal["in", "out"]
IN: Kind = "in"
OUT: Kind = "out"


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph with node masses.

    ``nodes`` is the canonical (lexicographic) node order; every vector and
    matrix in the package is indexed against it.  ``weights[i, j]`` is the
    weight of the drawn edge ``nodes[j] -> nodes[i]`` (0 where absent).
    """

    nodes: tuple[str, ...]
    masses: np.ndarray
    weights: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {v: k for k, v in enumerate(self.nodes)})
        self.masses.setflags(write=False)
        self.weights.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            self.nodes == other.nodes
            and np.array_equal(self.masses, other.masses)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.masses.tobytes(), self.weights.tobytes()))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNode(f"unknown node {node!r}") from None

    def mass(self, node: str) -> float:
        return float(self.masses[self.index(node)])

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Yield drawn edges ``(src, dst, weight)`` in canonical order."""
        heads, tails = np.nonzero(self.weights)
        order = sorted(zip(tails.tolist(), heads.tolist()))
        for j, i in order:
            yield self.nodes[j], self.nodes[i], float(self.weights[i, j])

    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((s, d) for s, d, _ in self.edges())

    def has_edge(self, src: str, dst: str) -> bool:
        return self.weights[self.index(dst), self.index(src)] > 0.0

    def weight(self, src: str, dst: str) -> float:
        """Weight of the drawn edge ``src -> dst`` (0.0 where absent)."""
        return float(self.weights[self.index(dst), self.index(src)])

    def inner(self, f, g) -> complex:
        """Mass-weighted inner product, conjugate-linear in ``f``."""
        value = np.vdot(np.asarray(f) * self.masses, np.asarray(g))
        return complex(value) if np.iscomplexobj(value) else float(value)

    def norm(self, f) -> float:
        return float(np.sqrt(abs(self.inner(f, f))))


def build_graph(
    nodes: Iterable[tuple[str, float]],
    edges: Iterable[tuple[str, str, float]] = (),
) -> Graph:
    """Construct a validated :class:`Graph`.

    ``nodes`` are ``(id, mass)`` pairs; ``edges`` are drawn arrows
    ``(src, dst, weight)``.  Node order is canonicalized to lexicographic.
    Duplicate edge rows are rejected even when weights agree.
    """
    node_list = list(nodes)
    ids = [v for v, _ in node_list]
    if len(set(ids)) != len(ids):
        seen, dupes = set(), set()
        for v in ids:
            (dupes if v in seen else seen).add(v)
        raise DuplicateNode(f"duplicate node identifiers: {sorted(dupes)}")
    order = sorted(ids)
    mass_by_id = dict(node_list)
    for v, m in mass_by_id.items():
        if not (m > 0) or not np.isfinite(m):
            raise NonPositiveMass(f"node {v!r} has non-positive mass {m!r}")
    index = {v: k for k, v in enumerate(order)}
    n = len(order)
    weights = np.zeros((n, n))
    seen_pairs: set[tuple[str, str]] = set()
    for src, dst, w in edges:
        if src not in index:
            raise UnknownEndpoint(f"edge references unknown node {src!r}")
        if dst not in index:
            raise UnknownEndpoint(f"edge references unknown node {dst!r}")
        if (src, dst) in seen_pairs:
            raise DuplicateEdge(f"duplicate edge {src!r} -> {dst!r}")
        seen_pairs.add((src, dst))
        if not (w > 0) or not np.isfinite(w):
            raise NonPositiveWeight(f"edge {src!r} -> {dst!r} has weight {w!r}")
        weights[index[dst], index[src]] = w
    masses = np.array([mass_by_id[v] for v in order], dtype=float)
    return Graph(tuple(order), masses, weights)


def transpose(graph: Graph) -> Graph:
    """Reverse every edge, keep weights and masses."""
    return Graph(graph.nodes, graph.masses.copy(), graph.weights.T.copy())


def is_undirected(graph: Graph) -> bool:
    """True when the graph equals its transpose (weights exactly symmetric)."""
    return bool(np.array_equal(graph.weights, graph.weights.T))


def degrees(graph: Graph, kind: Kind) -> np.ndarray:
    """In-degrees (row sums) or out-degrees (column sums) of the weights."""
    if kind == IN:
        return graph.weights.sum(axis=1)
    if kind == OUT:
        return graph.weights.sum(axis=0)
    raise InvalidOption(f"kind must be 'in' or 'out', got {kind!r}")


def laplacian(graph: Graph, kind: Kind = IN) -> np.ndarray:
    """The in-degree or out-degree Laplacian, as a read-only array.

    ``[L f](x) = (deg(x) f(x) - sum_y W[x, y] f(y)) / m(x)`` where ``deg``
    is the row-sum degree for kind ``"in"`` and the column-sum degree for
    kind ``"out"``.  For kind ``"in"`` it annihilates the all-ones vector;
    for kind ``"out"`` the mass-weighted column sums vanish instead.
    """
    deg = degrees(graph, kind)
    # 0 - W keeps absent entries +0, where negating would make them -0
    mat = np.subtract(0.0, graph.weights)
    mat /= graph.masses[:, np.newaxis]
    np.fill_diagonal(mat, (deg - np.diagonal(graph.weights)) / graph.masses)
    mat.setflags(write=False)
    return mat


def restrict_edges(graph: Graph, pairs: Iterable[tuple[str, str]]) -> Graph:
    """Subgraph with the same nodes/masses and only the given drawn edges."""
    keep = np.zeros_like(graph.weights, dtype=bool)
    for src, dst in pairs:
        i, j = graph.index(dst), graph.index(src)
        if graph.weights[i, j] <= 0.0:
            raise UnknownEndpoint(f"({src!r}, {dst!r}) is not an edge of the graph")
        keep[i, j] = True
    return Graph(graph.nodes, graph.masses.copy(), np.where(keep, graph.weights, 0.0))


def drop_edges(graph: Graph, pairs: Iterable[tuple[str, str]]) -> Graph:
    """Complement of :func:`restrict_edges`: remove the given drawn edges."""
    drop = np.zeros_like(graph.weights, dtype=bool)
    for src, dst in pairs:
        drop[graph.index(dst), graph.index(src)] = True
    return Graph(graph.nodes, graph.masses.copy(), np.where(drop, 0.0, graph.weights))


def validate_boundedness(graph: Graph) -> float:
    """Degree-to-mass bound C; both Laplacian norms are at most 2C."""
    ratios_in = degrees(graph, IN) / graph.masses
    ratios_out = degrees(graph, OUT) / graph.masses
    return float(max(ratios_in.max(initial=0.0), ratios_out.max(initial=0.0)))

