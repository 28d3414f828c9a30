"""Graph data model, Laplacians, and the mass-weighted inner product.

A graph is a finite node set with strictly positive masses and a weighted
directed edge set.  Edges are presented to the public API as drawn arrows
``(src, dst)`` (tail to head).  Internally the weight matrix follows the
head-row convention: ``W[i, j]`` is the weight of the drawn arrow j -> i,
so that the in-degree Laplacian is ``M^-1 (diag(row sums) - W)`` and the
out-degree Laplacian is ``M^-1 (diag(column sums) - W)``.

Instances are immutable after construction (arrays are set read-only) and
safe to share across threads.  Self-loops are dropped at construction: a
loop's weight cancels from ``D - W`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

import numpy as np

from .errors import (
    DuplicateEdge,
    DuplicateNode,
    EmptyGraph,
    InvalidOption,
    NonPositiveMass,
    NonPositiveWeight,
    ShapeMismatch,
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
    Construction validates the node ids, masses (finite, > 0) and weights
    (finite, >= 0) and zeroes the weight diagonal.  ``Graph(...)`` copies
    both arrays, so the caller keeps its own.  The package's builders
    (:func:`build_graph`, :func:`transpose`, :func:`restrict_edges`,
    :func:`drop_edges`, a cluster set's graphs and a coarsening's reduced
    graph) hand the arrays they have just made to :meth:`_adopt`, which
    validates them the same way but keeps them without a second copy.
    """

    nodes: tuple[str, ...]
    masses: np.ndarray
    weights: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._settle(np.array(self.masses, dtype=float),
                     np.array(self.weights, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, nodes: tuple[str, ...], masses, weights: np.ndarray) -> Graph:
        """A graph that keeps ``masses`` and ``weights`` instead of copying them.

        For arrays no one else writes to: both are validated as by the
        constructor and set read-only, and the weight diagonal is zeroed in
        place.  Arrays of another dtype or order are converted, once.
        """
        graph = cls.__new__(cls)
        object.__setattr__(graph, "nodes", nodes)
        graph._settle(np.asarray(masses, dtype=float),
                      np.ascontiguousarray(weights, dtype=float))
        return graph

    def _settle(self, masses: np.ndarray, weights: np.ndarray) -> None:
        """Validate the node ids and the arrays, then keep the arrays read-only."""
        nodes, n = self.nodes, len(self.nodes)
        if not n:
            raise EmptyGraph("a graph needs at least one node")
        index = {v: k for k, v in enumerate(nodes)}
        if len(index) != n:
            dupes = sorted({v for k, v in enumerate(nodes) if index[v] != k})
            raise DuplicateNode(f"duplicate node identifiers: {dupes}")
        if masses.shape != (n,) or weights.shape != (n, n):
            raise ShapeMismatch(f"{n} nodes need masses {(n,)} and weights {(n, n)}")
        bad = np.flatnonzero(~((0.0 < masses) & (masses < np.inf)))
        if bad.size:
            k = bad[0]
            raise NonPositiveMass(f"node {nodes[k]!r} has non-positive mass {masses[k]}")
        # two reductions clear valid weights; NaN fails both comparisons
        if not (weights.min() >= 0.0 and weights.max() < np.inf):
            i, j = np.argwhere(~((0.0 <= weights) & (weights < np.inf)))[0]
            edge = f"{nodes[j]!r} -> {nodes[i]!r}"
            raise NonPositiveWeight(f"edge {edge} has weight {weights[i, j]}")
        if weights.diagonal().any():  # derived arrays, maybe read-only, have none
            np.fill_diagonal(weights, 0.0)
        for name, value in (("masses", masses), ("weights", weights)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_index", index)

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
    """Construct a :class:`Graph` from an edge list.

    ``nodes`` are ``(id, mass)`` pairs; ``edges`` are drawn arrows
    ``(src, dst, weight)`` with weight > 0, and a repeated edge is rejected
    even when its weights agree.  Node order is canonicalized to lexicographic.
    """
    node_list = sorted(nodes, key=lambda node: node[0])
    index = {v: k for k, (v, _) in enumerate(node_list)}
    weights = np.zeros((len(node_list), len(node_list)))
    for src, dst, w in edges:
        for v in (src, dst):
            if v not in index:
                raise UnknownEndpoint(f"edge references unknown node {v!r}")
        cell = index[dst], index[src]
        if weights[cell]:  # only listed weights, all > 0, are set
            raise DuplicateEdge(f"duplicate edge {src!r} -> {dst!r}")
        if not w > 0:
            raise NonPositiveWeight(f"edge {src!r} -> {dst!r} has weight {w!r}")
        weights[cell] = w
    return Graph._adopt(tuple(v for v, _ in node_list), [m for _, m in node_list], weights)


def transpose(graph: Graph) -> Graph:
    """Reverse every edge, keep weights and masses."""
    return Graph._adopt(graph.nodes, graph.masses, graph.weights.T)


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
    return _laplacian(graph.weights, graph.masses, degrees(graph, kind))


def _laplacian(weights: np.ndarray, masses: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """``M^-1 (diag(deg) - W)`` for square weights, as a new read-only array.

    :func:`laplacian` of a whole graph, or of a block on the diagonal
    given the degrees of its rows.
    """
    # 0 - W keeps absent entries +0, where negating would make them -0
    mat = np.subtract(0.0, weights)
    mat /= masses[:, np.newaxis]
    np.fill_diagonal(mat, deg / masses)
    mat.setflags(write=False)
    return mat


def _cells(graph: Graph, pairs: Iterable[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """Rows (heads) and columns (tails) of drawn pairs in ``graph.weights``."""
    cells = [(graph.index(dst), graph.index(src)) for src, dst in pairs]
    return tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)


def _edge_cells(graph: Graph, pairs: Iterable[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_cells` of pairs that must all be edges of the graph."""
    rows, cols = _cells(graph, pairs)
    absent = np.flatnonzero(graph.weights[rows, cols] <= 0.0)
    if absent.size:
        src, dst = graph.nodes[cols[absent[0]]], graph.nodes[rows[absent[0]]]
        raise UnknownEndpoint(f"({src!r}, {dst!r}) is not an edge of the graph")
    return rows, cols


def _restricted(graph: Graph, rows: np.ndarray, cols: np.ndarray) -> Graph:
    """The graph with only the weights at ``(rows, cols)``."""
    weights = np.zeros_like(graph.weights)
    weights[rows, cols] = graph.weights[rows, cols]
    return Graph._adopt(graph.nodes, graph.masses, weights)


def _dropped(graph: Graph, rows: np.ndarray, cols: np.ndarray) -> Graph:
    """The graph with the weights at ``(rows, cols)`` set to zero."""
    weights = graph.weights.copy()  # writable, where the graph's own is not
    weights[rows, cols] = 0.0
    return Graph._adopt(graph.nodes, graph.masses, weights)


def restrict_edges(graph: Graph, pairs: Iterable[tuple[str, str]]) -> Graph:
    """Subgraph with the same nodes/masses and only the given drawn edges."""
    return _restricted(graph, *_edge_cells(graph, pairs))


def drop_edges(graph: Graph, pairs: Iterable[tuple[str, str]]) -> Graph:
    """Complement of :func:`restrict_edges`: remove the given drawn edges."""
    return _dropped(graph, *_cells(graph, pairs))


def validate_boundedness(graph: Graph) -> float:
    """Degree-to-mass bound C; both Laplacian norms are at most 2C."""
    return float(max((degrees(graph, kind) / graph.masses).max() for kind in (IN, OUT)))

