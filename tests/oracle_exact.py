"""Reference shortest-path DAG code: the BFS, source sweep and pair sample
that the one-pass DAG replaced, and the shortest-path enumeration oracle.

Kept only as test oracles. ``bfs_level_counts``, ``_source_sweep`` and
``pab_sample`` must give the same bits as their counterparts in
``percolator`` (``shortest_path_dag`` without its arcs, and the sweep
with both outputs on): the BFS deduplicates frontiers with ``np.unique``, the
sweep re-expands every level over in-arcs and filters by distance, and
the pair sample sums path counts in per-neighbour dict loops.
``brute_force_percolation`` lists every shortest path explicitly and
weights each internal vertex by ``kappa``, the definition the exact sweep
and the estimators sum in closed form. ``exact_rho_and_diameter`` reads
rho and the diameter off BFS level sizes alone, for the sweep's and
``exact_vertex_diameter``'s to match. ``whole_dag`` gathers what
``shortest_path_dag`` yields into lists, for the tests that read it whole.
"""

from __future__ import annotations

import numpy as np

from percolator import BfsWorkspace, Graph, PercolationModel
from percolator.graph import shortest_path_dag

from gen import in_neighbors


class PathExplosionError(RuntimeError):
    """The brute-force oracle hit its shortest-path enumeration cap."""


def kappa(model: PercolationModel, s: int, z: int, v: int) -> float:
    """Normalized pair weight seen by internal vertex v, in [0, 1].

    Zero when no percolated pair avoiding v exists (minus_s[v] = 0);
    in that degenerate case every admissible numerator is zero too.
    """
    if v == s or v == z:
        raise ValueError(f"internal vertex {v} collides with endpoints ({s}, {z})")
    denom = model.minus_s[v]
    if denom == 0.0:
        return 0.0
    return model.pair_weight(s, z) / denom


def whole_dag(graph: Graph, source: int, until: int | None = None,
              ws: BfsWorkspace | None = None):
    """``shortest_path_dag`` run on ``ws`` (a fresh workspace when none is
    given) and gathered: (levels, dist, sigma, arcs), ``levels`` from the
    source's on, ``arcs[d]`` the (tails, heads) into ``levels[d + 1]``,
    ``dist`` and ``sigma`` the workspace's s side. With ``until`` set, the
    levels stop at the one holding it, as ``_pab_sample_dag`` stops."""
    ws = BfsWorkspace(graph.n) if ws is None else ws
    levels, arcs = [np.array([source])], []
    for level, tails, heads in shortest_path_dag(graph, source, ws):
        levels.append(level)
        arcs.append((tails, heads))
        if until is not None and ws.dist[0, until] >= 0:
            break
    return levels, ws.dist[0], ws.sigma[0], arcs


def bfs_level_counts(graph: Graph, source: int, until: int | None = None):
    """Level-synchronous BFS with shortest-path counting."""
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while frontier.size:
        srcs, nbrs = graph.expand_frontier(frontier)
        if nbrs.size == 0:
            break
        fresh = nbrs[dist[nbrs] < 0]
        new = np.unique(fresh)
        dist[new] = depth + 1
        into_next = dist[nbrs] == depth + 1
        if into_next.any():
            sigma += np.bincount(nbrs[into_next],
                                 weights=sigma[srcs[into_next]], minlength=n)
        frontier = new
        depth += 1
        if frontier.size:
            levels.append(frontier)
        if until is not None and dist[until] >= 0:
            break
    return levels, dist, sigma


def _source_sweep(graph: Graph, x: np.ndarray | None, s: int,
                  want_p: bool, want_b: bool):
    """Brandes-style pass from one source."""
    n = graph.n
    levels, dist, sigma = bfs_level_counts(graph, s)
    delta_p = np.zeros(n) if want_p else None
    delta_b = np.zeros(n) if want_b else None
    for depth in range(len(levels) - 1, 0, -1):
        layer = levels[depth]
        srcs, nbrs = graph.expand_frontier(layer, backward=True)
        if nbrs.size == 0:
            continue
        pred = dist[nbrs] == depth - 1
        if not pred.any():
            continue
        v = nbrs[pred]
        w = srcs[pred]
        ratio = sigma[v] / sigma[w]
        if want_p:
            weight = np.maximum(x[s] - x[w], 0.0)
            delta_p += np.bincount(v, weights=ratio * (weight + delta_p[w]), minlength=n)
        if want_b:
            delta_b += np.bincount(v, weights=ratio * (1.0 + delta_b[w]), minlength=n)
    if want_p:
        delta_p[s] = 0.0
    if want_b:
        delta_b[s] = 0.0
    reached = dist > 0
    internal_sum = float((dist[reached] - 1).sum())
    max_dist = int(dist.max())
    return delta_p, delta_b, internal_sum, max_dist


def pab_sample(graph: Graph, model: PercolationModel, s: int, z: int) -> dict[int, float]:
    """Pair-conditional sample: full dependency split over the s-z DAG."""
    if s == z:
        raise ValueError("endpoints must be distinct")
    _, dist, sigma = bfs_level_counts(graph, s, until=z)
    if dist[z] < 0:
        return {}
    weight = model.pair_weight(s, z)
    if weight == 0.0:
        return {}
    sigma_sz = sigma[z]
    # path counts from v to z, restricted to vertices on shortest s-z paths
    omega: dict[int, float] = {z: 1.0}
    level: list[int] = [z]
    out: dict[int, float] = {}
    for depth in range(int(dist[z]), 1, -1):
        nxt: dict[int, float] = {}
        for w in level:
            share = omega[w]
            for u in in_neighbors(graph, w):
                u = int(u)
                if dist[u] == depth - 1:
                    nxt[u] = nxt.get(u, 0.0) + share
        for v, om in nxt.items():
            denom = model.minus_s[v]
            if denom > 0.0:
                out[v] = sigma[v] * om / sigma_sz * weight / denom
        omega = nxt
        level = list(nxt)
    return out


def _all_shortest_paths(graph: Graph, dist: np.ndarray, preds: list[list[int]],
                        z: int, cap: int) -> list[list[int]]:
    """DFS over the predecessor DAG; every path from the source to z."""
    paths: list[list[int]] = []
    stack: list[int] = [z]

    def walk(v: int):
        if dist[v] == 0:
            paths.append(list(reversed(stack)))
            if len(paths) > cap:
                raise PathExplosionError(f"more than {cap} shortest paths for one pair")
            return
        for u in preds[v]:
            stack.append(u)
            walk(u)
            stack.pop()

    walk(z)
    return paths


def brute_force_percolation(graph: Graph, model: PercolationModel,
                            path_cap: int = 200_000) -> np.ndarray:
    """Independent oracle: enumerate every shortest path explicitly.

    Exponential in the worst case; intended for small graphs. Raises
    :class:`PathExplosionError` past ``path_cap`` paths per pair.
    """
    n = graph.n
    if model.n != n:
        raise ValueError("model and graph disagree on vertex count")
    acc = np.zeros(n)
    for s in range(n):
        _, dist, _, _ = whole_dag(graph, s)
        preds: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if dist[v] <= 0:
                continue
            preds[v] = [int(u) for u in in_neighbors(graph, v) if dist[u] == dist[v] - 1]
        for z in range(n):
            if z == s or dist[z] <= 0:
                continue
            weight = model.pair_weight(s, z)
            if weight == 0.0:
                continue
            paths = _all_shortest_paths(graph, dist, preds, z, path_cap)
            share = 1.0 / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    if model.minus_s[v] > 0.0:
                        acc[v] += share * weight / model.minus_s[v]
    return acc / (n * (n - 1))


def exact_rho_and_diameter(graph: Graph) -> tuple[float, int]:
    """rho (disconnected pairs contribute 0) and the max finite distance,
    read off the sizes of the BFS levels from every source."""
    internal = 0    # an int, so the sum is exact, as the sweep's is below 2^53
    max_d = 0
    for s in range(graph.n):
        levels = whole_dag(graph, s)[0]
        internal += sum(i * level.size for i, level in enumerate(levels[1:]))
        max_d = max(max_d, len(levels) - 1)
    return internal / (graph.n * (graph.n - 1)), max_d
