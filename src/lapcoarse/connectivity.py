"""Reachability structure of weighted digraphs.

A reach is a maximal reachable set, where "reachable from i" follows drawn
arrows outward from i.  Every reach is generated by exactly one source
component of the condensation (its cabal); nodes belonging to a single
reach form its exclusive part, nodes shared between reaches its common
part.  On a symmetric edge set every node reaches exactly its connected
component, so the reaches are the components, each its own cabal and
exclusive part.

Cluster sets package a subset of edges (the connectivity that will be sent
to infinity) together with the reach decomposition of the cluster subgraph,
in both modes; undirected mode only adds that the subset be symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    ClustersShareNodes,
    ClusterViolation,
    EmptyClusterSet,
    InvalidOption,
    NotSymmetricEdgeSet,
    UnknownEdge,
    UnknownEndpoint,
    UnknownNode,
)
from .graph import Graph, _dropped, _edge_cells, _restricted

ClusterMode = Literal["undirected", "directed"]

EdgePair = tuple[str, str]


def _drawn_successors(n: int, heads: np.ndarray, tails: np.ndarray) -> list[list[int]]:
    """Adjacency lists of n nodes with the drawn arrows ``tails -> heads``, heads ascending."""
    ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
    flat = heads[np.lexsort((heads, tails))].tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def _tarjan_sccs(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components, iterative Tarjan, reverse topological order."""
    n = len(adj)
    preorder = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    scc_stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if preorder[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                preorder[v] = lowlink[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
            advanced = False
            for pos in range(edge_pos, len(adj[v])):
                w = adj[v][pos]
                if preorder[w] == -1:
                    work[-1] = (v, pos + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], preorder[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == preorder[v]:
                comp = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


@dataclass(frozen=True)
class Reach:
    """One maximal reachable set with its structure parts."""

    nodes: frozenset[str]
    cabal: frozenset[str]
    exclusive: frozenset[str]
    common: frozenset[str]

    @property
    def label(self) -> str:
        return "+".join(sorted(self.nodes))


@dataclass(frozen=True)
class ReachDecomposition:
    """All reaches of a graph, sorted by smallest member node."""

    reaches: tuple[Reach, ...]

    def __iter__(self):
        return iter(self.reaches)

    def __len__(self) -> int:
        return len(self.reaches)

    def reach_of_cabal_node(self, node: str) -> Reach:
        for reach in self.reaches:
            if node in reach.cabal:
                return reach
        raise UnknownNode(f"node {node!r} is not in any cabal")


def reaches(graph: Graph) -> ReachDecomposition:
    """Decompose the graph into reaches with cabal/exclusive/common parts.

    Source components of the condensation (no drawn arrow entering from
    outside) are the cabals; each reach is everything reachable from its
    cabal.
    """
    # a 1-D nonzero and a sort of the few arrows beat a 2-D nonzero scan
    heads, tails = np.divmod(np.flatnonzero(graph.weights != 0.0), graph.n)
    return _arrow_reaches(graph.nodes, heads, tails)


def _arrow_reaches(
    nodes: Sequence[str], heads: np.ndarray, tails: np.ndarray
) -> ReachDecomposition:
    """:func:`reaches` of the graph on ``nodes`` whose drawn arrows are ``tails -> heads``.

    Only the nodes an arrow touches are searched, in ascending order, so
    their reaches come out as in a search of all nodes; every other node is
    a one-node reach.
    """
    # a mask, where np.unique would import numpy.ma into every CLI process
    alone = np.ones(len(nodes), dtype=bool)
    alone[heads] = False
    alone[tails] = False
    touched = np.flatnonzero(~alone)
    adj = _drawn_successors(
        len(touched), np.searchsorted(touched, heads), np.searchsorted(touched, tails)
    )
    names = [nodes[v] for v in touched.tolist()]
    built = _touched_reaches(names, adj)
    for v in np.flatnonzero(alone).tolist():
        single = frozenset((nodes[v],))
        built.append(Reach(single, single, single, frozenset()))
    built.sort(key=lambda r: min(r.nodes))
    return ReachDecomposition(tuple(built))


def _touched_reaches(names: list[str], adj: list[list[int]]) -> list[Reach]:
    """The reaches of the nodes ``names`` with adjacency lists ``adj``, in search order."""
    sccs = _tarjan_sccs(adj)
    comp_of = [0] * len(adj)
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    has_incoming = [False] * len(sccs)
    for x in range(len(adj)):
        for y in adj[x]:
            if comp_of[x] != comp_of[y]:
                has_incoming[comp_of[y]] = True
    raw: list[tuple[frozenset[str], frozenset[str]]] = []
    for ci, comp in enumerate(sccs):
        if has_incoming[ci]:
            continue
        seen = set(comp)
        stack = list(comp)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        raw.append(
            (
                frozenset(names[v] for v in seen),
                frozenset(names[v] for v in comp),
            )
        )
    counts: dict[str, int] = {}
    for node_set, _ in raw:
        for v in node_set:
            counts[v] = counts.get(v, 0) + 1
    built = []
    for node_set, cabal in raw:
        exclusive = frozenset(v for v in node_set if counts[v] == 1)
        built.append(
            Reach(node_set, cabal, exclusive, node_set - exclusive)
        )
    return built


def _symmetric_pairs(pairs: Iterable[EdgePair]) -> frozenset[EdgePair]:
    pair_set = frozenset(pairs)
    missing = [(s, d) for s, d in pair_set if (d, s) not in pair_set]
    if missing:
        raise NotSymmetricEdgeSet(
            f"edge subset lacks reverse orientations for {sorted(missing)}"
        )
    return pair_set


def connected_components(
    graph: Graph, pairs: Iterable[EdgePair] | None = None
) -> tuple[frozenset[str], ...]:
    """Partition of the node set by a symmetric edge subset.

    With ``pairs`` None the whole edge set is used (it must be symmetric).
    The components are the reaches of the graph restricted to ``pairs``.
    Singleton components are included.  Components are sorted by smallest
    member.
    """
    if pairs is None:
        pairs = graph.edge_pairs()
    rows, cols = _cluster_cells(graph, _symmetric_pairs(pairs))
    return tuple(reach.nodes for reach in _arrow_reaches(graph.nodes, rows, cols))


def _cluster_cells(graph: Graph, pairs: Iterable[EdgePair]) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the distinct pairs, ascending; a non-edge raises :class:`UnknownEdge`."""
    try:
        rows, cols = _edge_cells(graph, dict.fromkeys(pairs))
    except UnknownEndpoint as exc:
        raise UnknownEdge(str(exc)) from None
    order = np.argsort(rows * graph.n + cols)
    rows, cols = rows[order], cols[order]
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@dataclass(frozen=True)
class ClusterSet:
    """A validated collection of cluster edge sets over a parent graph.

    ``clusters[k]`` is the drawn-edge set of the k-th cluster and
    ``node_sets[k]`` its incident nodes.  The clusters mirror the reaches
    of the cluster subgraph ``(V, total_edges)``; since directed reaches
    may overlap on common nodes, an edge lying in an overlap is listed in
    every reach containing both endpoints (the union of the clusters is
    always exactly ``total_edges``).  ``decomposition`` is that reach
    decomposition (undirected mode: the components, as reaches with no
    common part), including edgeless singleton reaches, so its node sets
    cover V.  ``cells`` holds ``total_edges`` as two read-only index arrays
    into ``graph.weights``, rows (heads) and columns (tails), one entry per
    edge in ascending row-major order.  They are derived from
    ``total_edges``, so equality and hashing leave them out.

    Both reach decompositions are read from the cells alone: only the
    cluster nodes are searched, since every other node is a one-node
    reach, and :attr:`transposed_decomposition` swaps rows and columns.
    Coarsening reads the cluster subgraph only through the cells; the
    n x n :meth:`subgraph` and :meth:`background` are built for callers
    that want whole graphs.
    """

    mode: ClusterMode
    graph: Graph
    clusters: tuple[frozenset[EdgePair], ...]
    node_sets: tuple[frozenset[str], ...]
    total_edges: frozenset[EdgePair]
    decomposition: ReachDecomposition
    cells: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def cluster_nodes(self) -> frozenset[str]:
        """Union of the cluster node sets (nodes touching a cluster edge)."""
        out: set[str] = set()
        for ns in self.node_sets:
            out |= ns
        return frozenset(out)

    @property
    def outside_nodes(self) -> frozenset[str]:
        return frozenset(self.graph.nodes) - self.cluster_nodes

    @property
    def symmetric(self) -> bool:
        """True when the cluster subgraph equals its transpose.

        That is, each cell's mirror is a cell with an equal weight.
        """
        rows, cols = self.cells
        n, weights = self.graph.n, self.graph.weights
        return bool(np.array_equal(np.sort(cols * n + rows), rows * n + cols)
                    and np.array_equal(weights[rows, cols], weights[cols, rows]))

    @cached_property
    def transposed_decomposition(self) -> ReachDecomposition:
        """The reach decomposition of the transposed cluster subgraph, made on first use."""
        rows, cols = self.cells
        return _arrow_reaches(self.graph.nodes, cols, rows)

    def subgraph(self) -> Graph:
        """Parent graph restricted to the cluster edges."""
        return _restricted(self.graph, *self.cells)

    def background(self) -> Graph:
        """Parent graph with the cluster edges removed."""
        return _dropped(self.graph, *self.cells)


def _flatten(edges) -> tuple[list[EdgePair], list[list[EdgePair]] | None]:
    """Accept a flat pair list or a pre-grouped list of pair lists."""
    items = list(edges)
    if not items:
        return [], None

    def is_pair(x) -> bool:
        return (
            isinstance(x, (tuple, list))
            and len(x) == 2
            and all(isinstance(e, str) for e in x)
        )

    if all(is_pair(x) for x in items):
        return [(s, d) for s, d in items], None
    groups = [[(s, d) for s, d in grp] for grp in items]
    return [p for grp in groups for p in grp], groups


def build_cluster_set(
    graph: Graph,
    edges,
    mode: ClusterMode,
) -> ClusterSet:
    """Validate and decompose a cluster edge subset.

    ``edges`` may be a flat iterable of drawn pairs ``(src, dst)`` or a
    pre-grouped iterable of such iterables.  Either way the clusters are
    the edge sets of the reaches of the cluster subgraph; pre-grouped
    input must equal them.  Undirected mode also requires the subset to be
    symmetric and the groups to share no node.  A flat empty list is a
    valid degenerate input: no clusters, every node its own reach, and
    coarsening against it is the identity.  Pre-grouped input with an
    empty group is rejected.
    """
    flat, groups = _flatten(edges)
    cells = _cluster_cells(graph, flat)
    if mode not in ("undirected", "directed"):
        raise InvalidOption(f"mode must be 'undirected' or 'directed', got {mode!r}")
    total = _symmetric_pairs(flat) if mode == "undirected" else frozenset(flat)
    seen: set[str] = set()
    for grp in groups or ():
        if not grp:
            raise EmptyClusterSet("a pre-grouped cluster has no edges")
        nodes = {v for pair in grp for v in pair}
        if mode == "undirected" and nodes & seen:
            raise ClustersShareNodes(f"clusters share nodes {sorted(nodes & seen)}")
        seen |= nodes
    decomposition = _arrow_reaches(graph.nodes, *cells)
    member: dict[str, list[int]] = {}
    for k, reach in enumerate(decomposition):
        for v in reach.nodes:
            member.setdefault(v, []).append(k)
    # a reach holds everything reachable from its nodes, so every reach
    # containing an edge's tail contains the edge
    grouped: list[set[EdgePair]] = [set() for _ in decomposition]
    for src, dst in total:
        for k in member[src]:
            grouped[k].add((src, dst))
    clusters = tuple(frozenset(edge_set) for edge_set in grouped if edge_set)
    if groups is not None and {frozenset(grp) for grp in groups} != set(clusters):
        raise ClusterViolation(
            "pre-grouped clusters do not match the reach decomposition of "
            "their total edge set"
        )
    node_sets = tuple(frozenset(v for pair in c for v in pair) for c in clusters)
    return ClusterSet(mode, graph, clusters, node_sets, total, decomposition, cells)

