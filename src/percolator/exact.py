"""Ground-truth computations: exact centralities, rho, and diameter.

One sweep computes everything. Per source vertex, a level-synchronous BFS
on the job's search workspace yields each level with the shortest-path
DAG arcs into it; the level sizes give the internal-vertex sum and the
depth, and walking the arcs back from the deepest level accumulates the
dependencies, weighted by the ramp difference of the endpoint states for
percolation and by one for betweenness, a half the caller may skip.
Everything here is O(n*m): the ground truth that ``compare`` scores the
estimators against (their percolation scores only). The tests
check it in turn against an oracle that enumerates every shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BfsWorkspace, Graph, shortest_path_dag
from .percolation import PercolationModel
from .workers import bind


@dataclass
class ExactResult:
    p: np.ndarray              # percolation centrality, in [0, 1]
    b: np.ndarray | None       # betweenness, normalized by n(n-1); None if not asked
    rho: float                 # average internal vertices per ordered pair
    diameter: int              # max finite shortest-path length
    vertex_diameter: int       # diameter + 1
    all_states_equal: bool = False


def _source_sweep(graph: Graph, x: np.ndarray, s: int, ws: BfsWorkspace,
                  betweenness: bool = True):
    """Brandes-style pass from one source, its BFS labelled on ``ws``.

    Returns (delta_p, delta_b, internal_sum, max_dist); the deltas are
    raw dependency vectors (still to be normalized), zero at the source,
    and delta_b is None unless ``betweenness``.
    The DAG arcs are walked level by level from the deepest; a vertex's
    dependency is summed over its successors w ascending, as the CSR rows
    list them.
    """
    n = graph.n
    steps = list(shortest_path_dag(graph, s, ws))     # (level, arcs into it) per depth >= 1
    sigma, place = ws.sigma[0], ws.place
    if not np.isfinite(sigma.max()):    # inf counts would turn the ratios into NaN
        raise OverflowError("shortest-path count overflowed float64")
    delta_p = np.zeros(n)
    delta_b = np.zeros(n) if betweenness else None
    # what a vertex passes up per path to its predecessors: its pair weight
    # plus its dependency, and 1 plus its dependency. Set once per vertex
    # when its level is summed (the deepest level's are zero) and gathered
    # per arc, they are the values each arc would compute.
    gain = np.maximum(x[s] - x, 0.0)
    carry_p = gain.copy()
    carry_b = np.ones(n) if betweenness else None
    # depth 0 would only write the source's entry, whose dependency is zero;
    # each level from the deepest but one up to depth 1, with the arcs out of it
    for (level, _, _), (_, v, w) in zip(steps[-2::-1], steps[:0:-1]):
        slots = place[v]
        ratio = sigma[v] / sigma[w]
        dep_p = np.bincount(slots, weights=ratio * carry_p[w], minlength=level.size)
        delta_p[level] = dep_p
        carry_p[level] = gain[level] + dep_p
        if betweenness:
            dep_b = np.bincount(slots, weights=ratio * carry_b[w], minlength=level.size)
            delta_b[level] = dep_b
            carry_b[level] = 1.0 + dep_b
    # steps[i] lies at distance i + 1: i internal vertices per path
    internal_sum = float(sum(i * level.size for i, (level, _, _) in enumerate(steps)))
    return delta_p, delta_b, internal_sum, len(steps)


def _fold(parts, n: int, betweenness: bool):
    """The sums, in order, and the max distance of the sweeps' ``parts``;
    the betweenness sum is None unless ``betweenness``."""
    acc_p = np.zeros(n)
    acc_b = np.zeros(n) if betweenness else None
    internal = 0.0
    max_d = 0
    for dp, db, isum, md in parts:
        acc_p += dp
        if betweenness:
            acc_b += db
        internal += isum
        max_d = max(max_d, md)
    return acc_p, acc_b, internal, max_d


def _sweep_block(graph: Graph, model: PercolationModel, sources: range, ws,
                 betweenness: bool):
    return _fold((_source_sweep(graph, model.x, s, ws, betweenness) for s in sources),
                 graph.n, betweenness)


_BLOCK = 256    # fixed block size keeps the reduction tree, and hence the
                # float result, independent of the worker count


def _per_block(job, graph: Graph, model: PercolationModel | None, pool, **params):
    """``job(graph, model, sources, ws, **params)`` of each ``_BLOCK``
    sources in order, bound by ``workers.bind``: in ``pool``'s workers
    (``workers.open_pool``) when given, and in this process without one or
    for a single block, which would only wait on a fork. A job carries
    only its source range and ``params``; the workers hold the graph."""
    jobs = [range(i, min(i + _BLOCK, graph.n)) for i in range(0, graph.n, _BLOCK)]
    run = bind(job, graph, model, pool, **params)
    # map yields in block order, so a fold over it is deterministic
    return (map if pool is None or len(jobs) == 1 else pool.map)(run, jobs)


def exact_all(graph: Graph, model: PercolationModel, pool=None, *,
              betweenness: bool = True) -> ExactResult:
    """Exact percolation centrality, betweenness, rho, and diameter. The
    sweeps run in ``pool``'s workers (``workers.open_pool``) when given.
    With ``betweenness=False`` the sweeps skip the betweenness half of
    their accumulation and ``b`` is None; every other field is the same."""
    if model.n != graph.n:
        raise ValueError("model and graph disagree on vertex count")
    n = graph.n
    acc_p, acc_b, internal, max_d = _fold(
        _per_block(_sweep_block, graph, model, pool, betweenness=betweenness), n, betweenness)
    pairs = n * (n - 1)
    safe = np.where(model.minus_s > 0.0, model.minus_s, 1.0)
    p = np.where(model.minus_s > 0.0, acc_p / (pairs * safe), 0.0)
    return ExactResult(
        p=p, b=acc_b / pairs if betweenness else None, rho=internal / pairs,
        diameter=max_d, vertex_diameter=max_d + 1,
        all_states_equal=model.all_equal,
    )


def _most_levels(graph: Graph, model, sources: range, ws) -> int:
    return max(1 + sum(1 for _ in shortest_path_dag(graph, s, ws)) for s in sources)


def exact_vertex_diameter(graph: Graph, pool=None) -> int:
    """The most vertices on a shortest path: the largest finite distance
    plus one, the most BFS levels from any source. Directed and
    disconnected graphs alike; an O(n*m) pass that needs no states. The
    searches run in ``pool``'s workers (``workers.open_pool``) when given;
    a max does not depend on their order."""
    return max(_per_block(_most_levels, graph, None, pool))
