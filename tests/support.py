"""Shared fixture graphs and random generators for the test suite.

Node names in random graphs are zero-padded so the package's lexicographic
node order matches construction order, which keeps hand-written index
arithmetic in the tests honest.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from lapcoarse import build_cluster_set, build_graph, laplacian
from oracles import scale_edges

ALPHA, GAMMA, DELTA, RHO, ETA = 2.0, 3.0, 5.0, 7.0, 11.0

TOL_KERNEL = 1e-10           # partition of unity, biorthogonality, cabal support
TOL_PROJECTOR = 1e-10        # idempotency and annihilation of Riesz projectors
TOL_RIESZ_CROSS = 1e-8       # closed form vs contour oracle
TOL_TRANSPORT = 1e-12        # probability transport conservation
TOL_WEIGHT_VECTOR = 1e-10    # relative agreement of the two weight-vector routes
TOL_GTH_ORDER = 1e-13        # panel against one-node-at-a-time GTH, componentwise relative
TOL_SYMMETRIC_TREE = 16.0    # symmetric cabal: closed form vs GTH, componentwise, in units of eps
TOL_SWEEP_ELIMINATION = 1e-10  # sweep vs per-beta resolvent_diff, relative, beta <= 1e4
TOL_OPNORM = 1e-13           # weighted operator norm vs the SVD's top singular value
TOL_ORACLE = 1e-11           # harness vs the whole-matrix oracle, relative, beta <= 1e4
TOL_ORACLE_STIFF = 1e-8      # the same at beta = 1e6
TOL_BLOCKS = 1e-14           # block-form coarsening vs whole-matrix products, relative
TOL_LU_SOLVE = 0.0           # solve vs scipy's lu_factor + lu_solve: the same LAPACK calls
TOL_HEAT_FLOOR = 10.0        # heat kernels: absolute floor, in units of eps (1 + t ||L_beta||_inf)
TOL_EXACT = 1e-12            # resolvent differences vs the exact rational oracle, relative
PEAK_COARSEN = 4.75          # tracemalloc peak of one coarsen call, in n x n arrays of doubles


def sym_pairs(u: str, v: str):
    """Both drawn orientations of an undirected edge, as bare pairs."""
    return [(u, v), (v, u)]


def sym(u: str, v: str, w: float = 1.0):
    """Both drawn orientations of one undirected edge."""
    return [(u, v, w), (v, u, w)]


def triangle():
    """Complete undirected graph on a, b, c with unit weights and masses."""
    edges = sym("a", "b") + sym("a", "c") + sym("b", "c")
    return build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0)], edges)


TRIANGLE_CLUSTER = [("b", "c"), ("c", "b")]


def triangle_cluster(graph=None):
    return build_cluster_set(graph or triangle(), TRIANGLE_CLUSTER, "undirected")


def heavier_triangle():
    """The triangle with its a-b edges weighted 5: same nodes and cluster edges."""
    edges = sym("a", "b", 5.0) + sym("a", "c") + sym("b", "c")
    return build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0)], edges)


def hub_pair(rho: float = RHO, eta: float = ETA, w13: float = 1.0):
    """Hub node 1 doubly linked to a two-node cycle on {2, 3}.

    The cycle edges (drawn 2->3 with weight rho, drawn 3->2 with weight
    eta) form the cluster; the four hub edges are background.  ``w13``
    sets the weight of the drawn edge 1->3 so the symmetry of the
    background can be broken.
    """
    nodes = [("1", 1.0), ("2", 1.0), ("3", 1.0)]
    edges = [
        ("1", "2", 1.0),
        ("2", "1", 1.0),
        ("1", "3", w13),
        ("3", "1", 1.0),
        ("2", "3", rho),
        ("3", "2", eta),
    ]
    return build_graph(nodes, edges)


HUB_PAIR_CLUSTER = [("2", "3"), ("3", "2")]


def hub_pair_cluster(graph):
    return build_cluster_set(graph, HUB_PAIR_CLUSTER, "directed")


def two_sources():
    """Nodes 1 and 2 each feed node 3; no other edges, unit data."""
    nodes = [("1", 1.0), ("2", 1.0), ("3", 1.0)]
    return build_graph(nodes, [("1", "3", 1.0), ("2", "3", 1.0)])


TWO_SOURCES_CLUSTER = [("2", "3")]


def two_sources_cluster(graph):
    return build_cluster_set(graph, TWO_SOURCES_CLUSTER, "directed")


def branching_chain():
    """a feeds b and c, c feeds d; one reach with cabal {a}."""
    nodes = [(v, 1.0) for v in "abcd"]
    edges = [("a", "b", ALPHA), ("a", "c", GAMMA), ("c", "d", DELTA)]
    return build_graph(nodes, edges)


def two_chains():
    """Two disjoint single edges a->b and c->d."""
    nodes = [(v, 1.0) for v in "abcd"]
    return build_graph(nodes, [("a", "b", ALPHA), ("c", "d", DELTA)])


def braided_chain():
    """The branching chain plus shortcuts b->c and b->d."""
    nodes = [(v, 1.0) for v in "abcd"]
    edges = [
        ("a", "b", ALPHA),
        ("a", "c", GAMMA),
        ("c", "d", DELTA),
        ("b", "c", RHO),
        ("b", "d", ETA),
    ]
    return build_graph(nodes, edges)


def clique(n: int):
    """Complete undirected graph on n nodes, unit weights and masses."""
    names = [f"v{k:02d}" for k in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j:
                edges.append((names[i], names[j], 1.0))
    return build_graph([(v, 1.0) for v in names], edges)


def clique_with_hub(n: int):
    """A unit-mass hub attached to one node of an n-clique of mass 1/n each.

    Returns the graph and the cluster pair list (all clique edges).
    """
    names = [f"v{k:02d}" for k in range(n)]
    nodes = [("hub", 1.0)] + [(v, 1.0 / n) for v in names]
    edges = [("hub", names[0], 1.0), (names[0], "hub", 1.0)]
    cluster = []
    for i in range(n):
        for j in range(n):
            if i != j:
                edges.append((names[i], names[j], 1.0))
                cluster.append((names[i], names[j]))
    return build_graph(nodes, edges), cluster


def alternating_path(k: int):
    """Undirected path on 2k+1 nodes with decaying cluster rungs.

    Odd-position edges carry weight one and stay background; the edge
    after node 2n carries weight 1/(2n) and belongs to the cluster, so
    scaling the cluster by beta reproduces weights beta/(2n).  Returns
    the graph and the cluster pair list.
    """
    names = [f"p{i:02d}" for i in range(1, 2 * k + 2)]
    edges = []
    cluster = []
    for i in range(1, 2 * k + 1):
        u, v = names[i - 1], names[i]
        if i % 2 == 1:
            edges.extend(sym(u, v, 1.0))
        else:
            edges.extend(sym(u, v, 1.0 / i))
            cluster.extend([(u, v), (v, u)])
    return build_graph([(v, 1.0) for v in names], edges), cluster


def heavy_cycle(k: int, weight: float = 1e3):
    """Symmetric k-cycle with heavy weights plus a pendant node ``x``.

    The cycle edges form the cluster; ``x`` is linked both ways to the
    first cycle node with weight one.  Returns the graph and the cluster
    pair list.  Large k and weight overflow any route that multiplies k
    edge weights.
    """
    names = [f"c{i:03d}" for i in range(k)]
    edges = []
    for i in range(k):
        edges.extend(sym(names[i], names[(i + 1) % k], weight))
    cluster = [(s, d) for s, d, _ in edges]
    edges.extend(sym("x", names[0]))
    return build_graph([(v, 1.0) for v in names + ["x"]], edges), cluster


def random_graph(
    rng: np.random.Generator,
    max_nodes: int = 8,
    undirected: bool = False,
    weight_range: tuple[float, float] = (0.5, 2.0),
):
    """Random graph with masses in [0.5, 2] and at least one edge.

    Edge weights are drawn from ``weight_range``; widening it stresses the
    solvers without touching the draw order of the default streams.
    """
    lo, hi = weight_range
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{k:02d}" for k in range(n)]
    nodes = [(v, float(rng.uniform(0.5, 2.0))) for v in names]
    edges = []
    if undirected:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges.extend(sym(names[i], names[j], float(rng.uniform(lo, hi))))
    else:
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.35:
                    edges.append((names[i], names[j], float(rng.uniform(lo, hi))))
    if not edges:
        w = float(rng.uniform(lo, hi))
        edges = sym(names[0], names[1], w) if undirected else [(names[0], names[1], w)]
    return build_graph(nodes, edges)


def random_cluster_pairs(rng: np.random.Generator, graph, undirected: bool = False):
    """Nonempty random subset of the drawn edges, symmetric when asked."""
    drawn = [(s, d) for s, d, _ in graph.edges()]
    if undirected:
        unordered = sorted({tuple(sorted(p)) for p in drawn})
        take = [p for p in unordered if rng.random() < 0.5]
        if not take:
            take = [unordered[int(rng.integers(len(unordered)))]]
        pairs = []
        for u, v in take:
            pairs.extend([(u, v), (v, u)])
        return pairs
    take = [p for p in drawn if rng.random() < 0.5]
    if not take:
        take = [drawn[int(rng.integers(len(drawn)))]]
    return take


def cycles_with_background(seed: int, n: int, sizes, mode: str):
    """A seeded graph of n nodes: cluster cycles of the given sizes and a background.

    Masses and weights are drawn from [0.5, 2].  Every cycle edge is a cluster
    edge; each node also draws three background partners, kept when new.  The cycles
    and the background are symmetric for mode ``undirected``; in the
    directed modes every other cycle runs one way only.  Returns the graph
    and its cluster set for ``mode``.
    """
    rng = np.random.default_rng(seed)
    undirected = mode == "undirected"
    names = [f"v{k:03d}" for k in range(n)]
    order = [names[k] for k in rng.permutation(n)]
    edges, cluster, start = [], [], 0
    for c, size in enumerate(sizes):
        members = order[start:start + size]
        start += size
        for u, v in zip(members, members[1:] + members[:1]):
            w = float(rng.uniform(0.5, 2.0))
            drawn = sym(u, v, w) if undirected or c % 2 == 0 else [(u, v, w)]
            edges += drawn
            cluster += [(s, d) for s, d, _ in drawn]
    taken = {(s, d) for s, d, _ in edges}
    for u in names:
        for v in rng.choice(names, 3, replace=False):
            if u != v and (u, v) not in taken and (v, u) not in taken:
                w = float(rng.uniform(0.5, 2.0))
                drawn = sym(u, v, w) if undirected else [(u, v, w)]
                edges += drawn
                taken.update((s, d) for s, d, _ in drawn)
    graph = build_graph([(v, float(rng.uniform(0.5, 2.0))) for v in names], edges)
    return graph, build_cluster_set(graph, cluster, "undirected" if undirected else "directed")


def exact_cases(mode: str, count: int = 6, seed: int = 101):
    """(graph, cluster set) pairs whose every float input is exact.

    n = 5 to 8 nodes, masses 2^-1 .. 2^2, integer weights 1 to 9 on a random
    edge set (symmetric for mode ``undirected``), and as cluster edges those
    that join two nodes of the same random group.
    """
    rng = np.random.default_rng([seed, ("undirected", "in", "out").index(mode)])
    undirected = mode == "undirected"
    cases = []
    while len(cases) < count:
        n = int(rng.integers(5, 9))
        names = [f"x{k}" for k in range(n)]
        group = rng.integers(0, max(2, n // 2), n)
        edges, pairs = [], []
        for i in range(n):
            for j in range(i + 1 if undirected else 0, n):
                if i == j or rng.random() >= 0.45:
                    continue
                w = float(rng.integers(1, 10))
                drawn = sym(names[i], names[j], w) if undirected else [(names[i], names[j], w)]
                edges += drawn
                if group[i] == group[j]:
                    pairs += [(s, d) for s, d, _ in drawn]
        if not pairs:
            continue
        masses = 2.0 ** rng.integers(-1, 3, n)
        graph = build_graph(zip(names, masses.tolist()), edges)
        kind = "undirected" if undirected else "directed"
        cases.append((graph, build_cluster_set(graph, pairs, kind)))
    return cases


def random_distribution(rng: np.random.Generator, masses):
    """Positive vector normalized to unit mass-weighted total."""
    raw = rng.uniform(0.1, 1.0, size=len(masses))
    return raw / float(raw @ np.asarray(masses))


# -- whole-matrix oracles --------------------------------------------------------
#
# Plain numpy on whole n x n matrices: the routes the package replaces by its
# cluster blocks, kept here so that the harness and the coarsening are checked
# against something that shares none of their block bookkeeping.


def mass_norm(a, masses) -> float:
    """Mass operator norm as the top singular value of ``M^(1/2) a M^(-1/2)``."""
    s = np.sqrt(masses)
    return float(np.linalg.svd(a * s[:, None] / s[None, :], compute_uv=False)[0])


def scaled_laplacian(graph, cluster_set, kind: str, beta: float, cluster_only=False):
    """Laplacian of the graph (or its cluster subgraph) with cluster weights times beta."""
    g = cluster_set.subgraph() if cluster_only else graph
    return laplacian(scale_edges(g, cluster_set.total_edges, beta), kind)


def oracle_resolvent_diff(graph, cluster_set, result, beta: float, z):
    """``(L_beta - z)^-1 - up (L_red - z)^-1 down`` by plain inverses, SVD norm.

    Returns the norm and its rounding floor ``eps cond(L_beta - z) |R|``,
    the normwise forward-error bound of a computed inverse R (in the mass
    norm): two correct computations may differ by that much, and at large
    beta on an ill-conditioned graph it exceeds any relative threshold.
    """
    kind = "out" if result.mode == "out" else "in"
    shifted = scaled_laplacian(graph, cluster_set, kind, beta) - z * np.eye(graph.n)
    full = np.linalg.inv(shifted)
    red = np.linalg.inv(result.reduced_laplacian - z * np.eye(result.size))
    s = np.sqrt(graph.masses)
    sigma = np.linalg.svd(shifted * s[:, None] / s[None, :], compute_uv=False)
    floor = np.finfo(float).eps * sigma[0] / sigma[-1] ** 2
    return mass_norm(full - result.up @ red @ result.down, graph.masses), floor


def heat_floor(lap, t: float) -> float:
    """Absolute rounding floor of a heat kernel, or of a heat difference, at time t.

    The backward error ``eps ||L||`` of an eigensolve or of expm moves each
    decay rate by about that much, so the floor grows with beta.
    """
    norm = float(np.abs(lap).sum(axis=1).max())
    return TOL_HEAT_FLOOR * np.finfo(float).eps * (1.0 + t * norm)


def oracle_heat_diff(graph, cluster_set, result, beta: float, t: float):
    """``exp(-t L_beta) - up exp(-t L_red) down`` by scipy's expm, SVD norm, and its floor."""
    kind = "out" if result.mode == "out" else "in"
    lap = scaled_laplacian(graph, cluster_set, kind, beta)
    full = scipy.linalg.expm(-t * lap)
    lifted = result.up @ scipy.linalg.expm(-t * result.reduced_laplacian) @ result.down
    return mass_norm(full - lifted, graph.masses), heat_floor(lap, t)


def oracle_gap_check(graph, cluster_set, result, beta: float, z):
    """Distance, gap and full difference (with its floor) of the gap bound check."""
    kind = "out" if result.mode == "out" else "in"
    lap = scaled_laplacian(graph, cluster_set, kind, beta, cluster_only=True)
    res = np.linalg.inv(lap - z * np.eye(graph.n))
    distance = mass_norm(res - result.up @ result.down / (-z), graph.masses)
    s = np.sqrt(graph.masses)
    sym = lap * s[:, None] / s[None, :]
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    cut = graph.n * np.finfo(float).eps * max(float(eigs[-1]), 0.0)
    gap = float(eigs[eigs > cut][0]) if np.any(eigs > cut) else 0.0
    return (distance, gap) + oracle_resolvent_diff(graph, cluster_set, result, beta, z)


def oracle_coarsening(result):
    """``down``, ``up`` and aggregated weights from whole-matrix basis products.

    Columns follow the reduced node order of ``result``; the aggregated
    weights keep their diagonal, which the reduced graph drops.
    """
    basis, masses = result.basis, result.graph.masses
    right, left = basis.right, basis.left
    w = result.cluster_set.background().weights
    if basis.kind == "in":
        coarse = right.T @ masses
        down, up = (left * masses[:, None]).T, right
        aggregate = coarse[:, None] * ((left.T @ w) @ right)
        if result.mode == "undirected":
            aggregate = right.T @ w @ right
            aggregate = 0.5 * (aggregate + aggregate.T)
    else:
        coarse = left.T @ masses
        down = (left * masses[:, None]).T / coarse[:, None]
        up = right * coarse[None, :]
        aggregate = ((left.T @ w) @ right) * coarse[None, :]
    where = {label: k for k, label in enumerate(basis.labels)}
    perm = [where[v] for v in result.reduced.nodes]
    return down[perm], up[:, perm], aggregate[np.ix_(perm, perm)]
