"""Reference balanced bidirectional BFS: every level, one vertex or many,
expands through ``Graph.expand_frontier`` and ``_next_level``, and both
sides' arc counts are summed again on every iteration.

Kept only as a test oracle. Run on its own workspace, it must leave the
same labels and return the same ``MeetResult`` as
``percolator.sampling.balanced_bidirectional_bfs``, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from percolator import Graph
from percolator.graph import _next_level
from percolator.sampling import BfsWorkspace, MeetResult

_NO_VERTICES = np.empty(0, dtype=np.int64)


def _expand_side(graph: Graph, frontier: np.ndarray, depth: int,
                 dist_own: np.ndarray, sigma_own: np.ndarray,
                 dist_other: np.ndarray, place: np.ndarray, backward: bool):
    """One full level of one side; returns (next_frontier, cand_own, cand_other).

    Arcs to vertices the other side has seen are the candidate arcs; the
    search ends at the first level with any, so that level builds no next
    frontier (its labels would never be read).
    """
    srcs, nbrs = graph.expand_frontier(frontier, backward=backward)
    met = dist_other[nbrs] >= 0
    if met.any():
        return _NO_VERTICES, srcs[met], nbrs[met]
    new, _, _ = _next_level(srcs, nbrs, depth, dist_own, sigma_own, place)
    return new, _NO_VERTICES, _NO_VERTICES


def balanced_bidirectional_bfs(graph: Graph, s: int, z: int,
                               ws: BfsWorkspace | None = None) -> MeetResult:
    """Meet-in-the-middle BFS yielding the candidate arcs and sigma_sz.

    ``ws`` holds the distance and path-count arrays; a fresh one is made
    when none is given. Passing the same workspace to every search of a
    run makes each search cost what it explores instead of O(n).
    """
    if s == z:
        raise ValueError("endpoints must be distinct")
    if ws is None:
        ws = BfsWorkspace(graph.n)
    elif ws.n != graph.n:
        raise ValueError("workspace and graph disagree on vertex count")
    ws.reset()
    (dist_s, dist_z), (sigma_s, sigma_z) = ws.dist, ws.sigma
    frontier_s = np.array([s], dtype=np.int64)
    frontier_z = np.array([z], dtype=np.int64)
    ws.touched[0].append(frontier_s)
    ws.touched[1].append(frontier_z)
    dist_s[s] = 0
    sigma_s[s] = 1.0
    dist_z[z] = 0
    sigma_z[z] = 1.0
    depth_s = depth_z = 0

    while frontier_s.size and frontier_z.size:
        if graph.out_degrees[frontier_s].sum() <= graph.in_degrees[frontier_z].sum():
            frontier_s, cand_s, cand_z = _expand_side(
                graph, frontier_s, depth_s, dist_s, sigma_s, dist_z, ws.place, backward=False)
            ws.touched[0].append(frontier_s)
            depth_s += 1
        else:
            frontier_z, cand_z, cand_s = _expand_side(
                graph, frontier_z, depth_z, dist_z, sigma_z, dist_s, ws.place, backward=True)
            ws.touched[1].append(frontier_z)
            depth_z += 1
        if cand_s.size:
            totals = dist_s[cand_s] + 1 + dist_z[cand_z]
            d = int(totals.min())
            keep = totals == d
            cand_s, cand_z = cand_s[keep], cand_z[keep]
            weights = sigma_s[cand_s] * sigma_z[cand_z]
            sigma_sz = float(weights.sum())
            if not math.isfinite(sigma_sz):
                raise OverflowError("shortest-path count overflowed float64")
            return MeetResult(graph=graph, s=s, z=z, connected=True, dist=d,
                              ws=ws, cand_s=cand_s, cand_z=cand_z,
                              sigma_sz=sigma_sz, cand_weights=weights)

    return MeetResult(graph=graph, s=s, z=z, connected=False, dist=-1,
                      ws=ws, cand_s=_NO_VERTICES, cand_z=_NO_VERTICES)
