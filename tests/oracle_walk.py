"""Reference path walk: the per-neighbour loop the vectorized walk replaced.

Kept only as a test oracle. Given the same ``rng`` state it must yield
the same path as ``percolator.sampling._walk_down``.
"""

from __future__ import annotations

import numpy as np

from percolator import Graph


def _walk_down(graph: Graph, v: int, dist: np.ndarray, sigma: np.ndarray,
               rng, toward_z: bool) -> list[int]:
    """Random descent to depth 0, weighting each step by its path count."""
    path = [v]
    while dist[v] > 0:
        target_depth = dist[v] - 1
        pick = rng.random() * sigma[v]
        nbrs = graph.out_neighbors(v) if toward_z else graph.in_neighbors(v)
        chosen = v
        for u in nbrs:
            u = int(u)
            if dist[u] != target_depth:
                continue
            pick -= sigma[u]
            chosen = u
            if pick <= 0.0:
                break
        path.append(chosen)
        v = chosen
    return path
