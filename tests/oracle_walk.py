"""Reference path draws: one path at a time, one scalar draw per step.

Kept only as a test oracle. ``_walk_down`` is the per-neighbour loop of
one descent and ``sample_paths`` the per-path bag draw that calls it;
given the same ``rng`` state, ``percolator.sampling.sample_paths`` must
draw the same paths and leave ``rng`` in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from percolator import Graph
from percolator.sampling import DEFAULT_BAG_CAP, MeetResult, PathBag

from gen import in_neighbors, out_neighbors


def _walk_down(graph: Graph, v: int, dist: np.ndarray, sigma: np.ndarray,
               rng, toward_z: bool) -> list[int]:
    """Random descent to depth 0, weighting each step by its path count."""
    path = [v]
    while dist[v] > 0:
        target_depth = dist[v] - 1
        pick = rng.random() * sigma[v]
        nbrs = out_neighbors(graph, v) if toward_z else in_neighbors(graph, v)
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


def sample_paths(meet: MeetResult, alpha: float, rng,
                 cap: int = DEFAULT_BAG_CAP, count: int | None = None) -> PathBag:
    """Draw ceil(alpha * sigma_sz) shortest paths uniformly from the pair.

    Each draw picks a candidate arc with probability proportional to
    sigma_s[u] * sigma_z[w], then completes both halves with random
    weighted walks, which makes every draw uniform over the pair's path
    set. The bag size is capped at ``cap``; ``count`` overrides the
    alpha-based size (used by the single-path estimator).
    """
    if not meet.connected:
        raise ValueError("cannot sample paths for a disconnected pair")
    if count is not None:
        requested = int(count)
    else:
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        want = alpha * meet.sigma_sz
        # huge path counts saturate instead of overflowing the ceil
        requested = int(math.ceil(want)) if want < 2.0 ** 62 else 2 ** 62
    requested = max(requested, 1)
    k = min(requested, cap)
    graph = meet.graph
    cum = np.cumsum(meet.cand_weights)
    total = cum[-1]
    last = len(cum) - 1
    paths = []
    for _ in range(k):
        j = min(int(np.searchsorted(cum, rng.random() * total, side="right")), last)
        u = int(meet.cand_s[j])
        w = int(meet.cand_z[j])
        head = _walk_down(graph, u, meet.ws.dist[0], meet.ws.sigma[0], rng, toward_z=False)
        head.reverse()
        tail = _walk_down(graph, w, meet.ws.dist[1], meet.ws.sigma[1], rng, toward_z=True)
        paths.append(head + tail)
    return PathBag(s=meet.s, z=meet.z, paths=paths, requested=requested)
