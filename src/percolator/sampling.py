"""Random percolated shortest-path samples.

The workhorse is a balanced bidirectional BFS: forward from s, backward
from z (in-arcs on directed graphs), always expanding the frontier with
the smaller degree sum. When the searches touch, the arcs joining them
are kept as candidate edges, from which any number of shortest paths can
be drawn uniformly without materializing the whole path set, or the
pair's whole dependency split computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import BfsWorkspace, Graph, _next_level, _renumber, shortest_path_dag, sorted_unique
from .percolation import PercolationModel

DEFAULT_BAG_CAP = 1 << 16
_NO_VERTICES = np.empty(0, dtype=np.int64)


@dataclass
class MeetResult:
    """Outcome of one balanced bidirectional BFS between s and z.

    ``dist_*`` and ``sigma_*`` are views of the :class:`BfsWorkspace` the
    search ran on: they stay valid only until the next search on that
    workspace, which resets the entries this one wrote.
    """

    graph: Graph
    s: int
    z: int
    connected: bool
    dist: int                      # d(s, z); -1 when disconnected
    dist_s: np.ndarray             # distances from s (-1 unreached)
    dist_z: np.ndarray             # distances to z
    sigma_s: np.ndarray            # shortest-path counts from s
    sigma_z: np.ndarray            # shortest-path counts to z
    cand_s: np.ndarray             # candidate arcs, s-side endpoints
    cand_z: np.ndarray             # candidate arcs, z-side endpoints
    sigma_sz: float = 0.0          # total shortest s-z path count
    cand_weights: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True, eq=False)
class Contribution:
    """One sample's sparse f, ``val[i]`` at vertex ``idx[i]``. ``idx`` has no repeats, so
    ``a[idx] += val`` adds each value once; ``len`` counts the (nonzero) entries."""

    idx: np.ndarray                # int64 vertex ids
    val: np.ndarray                # float64 values

    def __len__(self) -> int:
        return self.idx.size


NO_CONTRIBUTION = Contribution(np.empty(0, dtype=np.int64), np.empty(0))


@dataclass
class PathBag:
    """The paths drawn for one pair: row i of ``paths``, a (k, d + 1) int64
    array, is path i from s to z. ``sample_paths`` spends d uniforms per
    path, in arc, s-side, z-side order."""

    s: int
    z: int
    paths: np.ndarray
    requested: int                 # ceil(alpha * sigma_sz) before capping

    @property
    def capped(self) -> bool:
        return self.requested > len(self.paths)


def _expand_side(graph: Graph, frontier: np.ndarray, depth: int,
                 dist_own: np.ndarray, sigma_own: np.ndarray,
                 dist_other: np.ndarray, place: np.ndarray, backward: bool):
    """One full level of one side; returns (next_frontier, cand_own, cand_other).

    Arcs to vertices the other side has seen are the candidate arcs; the
    search ends at the first level with any, so that level builds no next
    frontier (its labels would never be read).

    A frontier of one vertex v expands as its CSR row, which the loader
    keeps ascending and free of repeats: the row's unseen vertices are the
    next level, in order, each with v's count (the float a one-weight
    bincount gives), so no arc list, sort or bincount is built.
    """
    if frontier.size == 1:
        v = frontier[0]
        offsets, targets = ((graph.bwd_offsets, graph.bwd_targets) if backward
                            else (graph.fwd_offsets, graph.fwd_targets))
        row = targets[offsets[v]:offsets[v + 1]]
        met = (dist_other[row] >= 0).nonzero()[0]
        if met.size:
            return _NO_VERTICES, frontier.repeat(met.size), row.take(met)
        new = row.take((dist_own[row] < 0).nonzero()[0])
        dist_own[new] = depth + 1
        sigma_own[new] = sigma_own[v]
        return new, _NO_VERTICES, _NO_VERTICES
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
    dist_s, dist_z, sigma_s, sigma_z = ws.dist_s, ws.dist_z, ws.sigma_s, ws.sigma_z
    frontier_s = np.array([s], dtype=np.int64)
    frontier_z = np.array([z], dtype=np.int64)
    ws.touched_s.append(frontier_s)
    ws.touched_z.append(frontier_z)
    dist_s[s] = 0
    sigma_s[s] = 1.0
    dist_z[z] = 0
    sigma_z[z] = 1.0
    depth_s = depth_z = 0
    # each frontier's arc count, taken once when the frontier is built
    arcs_s, arcs_z = graph.out_degrees[s], graph.in_degrees[z]

    while frontier_s.size and frontier_z.size:
        if arcs_s <= arcs_z:
            frontier_s, cand_s, cand_z = _expand_side(
                graph, frontier_s, depth_s, dist_s, sigma_s, dist_z, ws.place, backward=False)
            ws.touched_s.append(frontier_s)
            arcs_s = graph.out_degrees[frontier_s].sum()
            depth_s += 1
        else:
            frontier_z, cand_z, cand_s = _expand_side(
                graph, frontier_z, depth_z, dist_z, sigma_z, dist_s, ws.place, backward=True)
            ws.touched_z.append(frontier_z)
            arcs_z = graph.in_degrees[frontier_z].sum()
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
                              dist_s=dist_s, dist_z=dist_z,
                              sigma_s=sigma_s, sigma_z=sigma_z,
                              cand_s=cand_s, cand_z=cand_z,
                              sigma_sz=sigma_sz, cand_weights=weights)

    return MeetResult(graph=graph, s=s, z=z, connected=False, dist=-1,
                      dist_s=dist_s, dist_z=dist_z,
                      sigma_s=sigma_s, sigma_z=sigma_z,
                      cand_s=_NO_VERTICES, cand_z=_NO_VERTICES)


def _walk_down(graph: Graph, v: np.ndarray, z_side: np.ndarray, dist, sigma,
               uniforms: np.ndarray, first: np.ndarray, roots) -> np.ndarray:
    """Random descents to depth 0 from every ``v[i]`` at once, weighting each
    step by its path count.

    Walker i descends the s side (``z_side[i]`` False: in-arcs, ``dist[0]``,
    ``sigma[0]``) or the z side (out-arcs, ``dist[1]``, ``sigma[1]``),
    whose only vertex at depth 0 is ``roots[0]`` or ``roots[1]``. Its
    step t reads the uniform ``uniforms[first[i] + t]`` and sets
    ``rem = draw * sigma[v]``; subtracting the predecessors' counts from
    ``rem`` one at a time, in CSR order, it goes to the first predecessor at
    which ``rem`` drops to <= 0, or to the last one when rounding keeps it
    positive. That is bit for bit an in-order ``subtract.accumulate``,
    never a cumsum. Every walker takes one step per iteration, and each
    distinct (side, vertex) of a step has its neighbour list read once,
    since a vertex's predecessors depend only on the vertex. A walker one
    step above its root has the root as its one predecessor: it takes it
    without reading a list, and its uniform stays unread.

    Returns ``trail`` of shape (len(v), deepest + 1): ``trail[i, t]`` is
    walker i's vertex after t steps, for t up to its depth; later entries
    are unspecified.
    """
    n = graph.n
    (dist_s, dist_z), (sigma_s, sigma_z) = dist, sigma
    left = np.where(z_side, dist_z[v], dist_s[v])     # steps still to take
    done_at = set(left.tolist())
    steps = max(done_at, default=0)
    trail = np.empty((steps + 1, v.size), dtype=np.int64)
    trail[0] = v
    rows = (left > 0).nonzero()[0]                  # walkers not at depth 0
    cur, zs, at, left = v[rows], z_side[rows], first[rows], left[rows]
    root_s, root_z = roots
    # numpy's ndarray methods and ufuncs below skip the wrappers of the
    # np.* functions, a large share of the cost at a bag's array sizes
    for t in range(steps):
        if t + 1 in done_at:                          # the walkers one step above a root
            top = left == t + 1
            trail[t + 1, rows[top]] = np.where(zs[top], root_z, root_s)
            go = ~top
            rows, cur, zs, at, left = rows[go], cur[go], zs[go], at[go], left[go]
            if not rows.size:
                break
        # the step's distinct (side, vertex) keys, and each walker's slot among them
        key = cur + n * zs
        ukey = sorted_unique(key)
        slot = ukey.searchsorted(key)
        uz = ukey >= n
        uv = ukey - n * uz
        # their neighbour lists: in-arcs on the s side, out-arcs on the z side
        if graph.directed:
            lo = np.where(uz, graph.fwd_offsets[uv], graph.bwd_offsets[uv])
            size = np.where(uz, graph.out_degrees[uv], graph.in_degrees[uv])
        else:
            lo, size = graph.fwd_offsets[uv], graph.out_degrees[uv]
        ends = np.add.accumulate(size)
        arcs = np.arange(ends[-1]) + (lo - ends + size).repeat(size)
        nz = uz.repeat(size)
        nbrs = (np.where(nz, graph.fwd_targets[arcs], graph.bwd_targets[arcs])
                if graph.directed else graph.fwd_targets[arcs])
        below = (np.where(uz, dist_z[uv], dist_s[uv]) - 1).repeat(size)
        at_pred = (np.where(nz, dist_z[nbrs], dist_s[nbrs]) == below).nonzero()[0]
        preds = nbrs[at_pred]
        # each walker's predecessors are preds[first_pred:last_pred + 1]
        first_pred = at_pred.searchsorted(ends - size)[slot]
        last_pred = at_pred.searchsorted(ends)[slot] - 1
        nxt = preds[first_pred]                       # the one predecessor, the usual case
        multi = (last_pred > first_pred).nonzero()[0]
        if multi.size:
            psigma = np.where(nz[at_pred], sigma_z[preds], sigma_s[preds])
            here = cur[multi]
            rem = uniforms[at[multi] + t] * np.where(zs[multi], sigma_z[here], sigma_s[here])
            pos, last = first_pred[multi], last_pred[multi]
            while multi.size:                         # rank r of every undecided walker
                rem = rem - psigma[pos]
                stop = (rem <= 0.0) | (pos == last)
                nxt[multi[stop]] = preds[pos[stop]]
                go = ~stop
                multi, rem, pos, last = multi[go], rem[go], pos[go] + 1, last[go]
        trail[t + 1, rows] = nxt
        cur = nxt
    return trail.T


def sample_paths(meet: MeetResult, alpha: float, rng,
                 cap: int = DEFAULT_BAG_CAP, count: int | None = None) -> PathBag:
    """Draw ceil(alpha * sigma_sz) shortest paths uniformly from the pair.

    Each draw picks a candidate arc with probability proportional to
    sigma_s[u] * sigma_z[w], then completes both halves with random
    weighted walks, which makes every draw uniform over the pair's path
    set. The bag size is capped at ``cap``; ``count`` overrides the
    alpha-based size (used by the single-path estimator).

    A path of length d takes d uniforms, all k paths' from one
    ``rng.random(k * d)`` call, the same values k * d scalar calls give.
    Path i reads ``[i * d, (i + 1) * d)``: the arc pick, then one per step
    of the s side (``dist_s[u]`` steps), then one per step of the z side
    (``dist_z[w]``). The paths come as a (k, d + 1) int64 array, s first.
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
    d = meet.dist
    uniforms = rng.random(k * d)
    cum = meet.cand_weights.cumsum()
    arc = np.minimum(cum.searchsorted(uniforms[::d] * cum[-1], side="right"), cum.size - 1)
    u, w = meet.cand_s[arc], meet.cand_z[arc]
    # every candidate arc joins the same two BFS levels: one head length per bag
    head = int(meet.dist_s[u[0]])
    first = np.arange(k) * d + 1
    trail = _walk_down(meet.graph, np.concatenate((u, w)), np.arange(2 * k) >= k,
                       (meet.dist_s, meet.dist_z), (meet.sigma_s, meet.sigma_z),
                       uniforms, np.concatenate((first, first + head)), (meet.s, meet.z))
    paths = np.empty((k, d + 1), dtype=np.int64)
    paths[:, :head + 1] = trail[:k, head::-1]     # an s-side trail runs u -> s
    paths[:, head + 1:] = trail[k:, :d - head]
    return PathBag(s=meet.s, z=meet.z, paths=paths, requested=requested)


def bag_estimate(bag: PathBag, model: PercolationModel) -> Contribution:
    """Per-vertex contribution of one bag: (hits/|bag|) * kappa.

    Empty bags (disconnected pairs) contribute nothing but still count
    as one sample on the caller's side. Only vertices with a nonzero
    contribution appear in the result, each once.
    """
    weight = model.pair_weight(bag.s, bag.z)
    if not len(bag.paths) or weight == 0.0:
        return NO_CONTRIBUTION
    hits = np.sort(bag.paths[:, 1:-1].ravel())
    edge = np.ones(hits.size + 1, dtype=bool)      # run starts, then one past the end
    np.not_equal(hits[1:], hits[:-1], out=edge[1:-1])
    first = np.flatnonzero(edge)
    idx, counts = hits[first[:-1]], first[1:] - first[:-1]
    denom = model.minus_s[idx]
    kept = denom > 0.0
    return Contribution(idx[kept], counts[kept] * (1.0 / len(bag.paths)) * weight / denom[kept])


def sample_pair(n: int, rng) -> tuple[int, int]:
    """Uniform ordered pair of distinct vertices."""
    s = int(rng.integers(n))
    z = int(rng.integers(n - 1))
    if z >= s:
        z += 1
    return s, z


def prk_sample(graph: Graph, model: PercolationModel, rng,
               ws: BfsWorkspace | None = None) -> Contribution:
    """One single-path sample: uniform pair, then one uniform shortest path.

    Contributes kappa(s, z, v) to every internal vertex of the drawn path
    (a one-path bag); zero for disconnected or non-percolated pairs. A
    non-percolated pair returns before the search, which draws nothing.
    ``ws`` is the BFS workspace to reuse, as in
    :func:`balanced_bidirectional_bfs`.
    """
    s, z = sample_pair(graph.n, rng)
    if model.pair_weight(s, z) == 0.0:
        return NO_CONTRIBUTION
    meet = balanced_bidirectional_bfs(graph, s, z, ws)
    if not meet.connected:
        return NO_CONTRIBUTION
    return bag_estimate(sample_paths(meet, alpha=1.0, rng=rng, count=1), model)


def pab_sample(graph: Graph, model: PercolationModel, s: int, z: int,
               ws: BfsWorkspace | None = None) -> Contribution:
    """Pair-conditional sample: full dependency split over the s-z paths.

    Each vertex v on a shortest s-z path gets sigma[v] * omega[v] /
    sigma_sz * kappa, sigma[v] counting shortest s-v paths and omega[v]
    shortest v-z paths. Both come from :func:`balanced_bidirectional_bfs`
    on ``ws`` (a fresh workspace when none is given), so a pair costs the
    region its search explores. Every shortest path crosses one candidate
    arc u -> w, so the two meeting levels are the distinct u and the
    distinct w: u's omega sums sigma_z[w] over its candidate arcs, w's
    sigma sums sigma_s[u] over its own. From there each side walks its
    labels down to depth 1, one level per step, passing the walked count
    to the predecessors one level below (in-arcs on the s side, out-arcs
    on the z side); the labels give the other count.

    While sigma_sz is below 2^53 every count and every partial sum is an
    integer no larger than sigma_sz, hence an exact float, so each value
    has the reference's bits, whatever the addition order. From 2^53 on
    the order shows, and :func:`_pab_sample_dag` runs instead: the
    reference's walk back from z, in its order. A non-percolated pair
    returns before the search.
    """
    if s == z:
        raise ValueError("endpoints must be distinct")
    weight = model.pair_weight(s, z)
    if weight == 0.0:
        return NO_CONTRIBUTION
    if ws is None:
        ws = BfsWorkspace(graph.n)
    meet = balanced_bidirectional_bfs(graph, s, z, ws)
    if not meet.connected:
        return NO_CONTRIBUTION
    if meet.sigma_sz >= 2.0 ** 53:
        return _pab_sample_dag(graph, model, s, z, weight, ws)
    found, values = [NO_CONTRIBUTION.idx], [NO_CONTRIBUTION.val]    # z next to s: none
    for ends, shares, dist, sigma, backward in (
            (meet.cand_s, meet.sigma_z[meet.cand_z], meet.dist_s, meet.sigma_s, True),
            (meet.cand_z, meet.sigma_s[meet.cand_s], meet.dist_z, meet.sigma_z, False)):
        # arcs into the level at ``depth``: their ends there and the counts they carry
        for depth in range(int(dist[ends[0]]), 0, -1):
            level = sorted_unique(ends)
            ws.place[level] = np.arange(level.size)
            walked = np.bincount(ws.place[ends], weights=shares, minlength=level.size)
            denom = model.minus_s[level]
            kept = denom > 0.0
            found.append(level[kept])
            values.append(sigma[level[kept]] * walked[kept] / meet.sigma_sz * weight / denom[kept])
            if depth > 1:
                srcs, ends = graph.expand_frontier(level, backward=backward)
                below = (dist[ends] == depth - 1).nonzero()[0]
                ends, shares = ends.take(below), walked[ws.place[srcs.take(below)]]
    return Contribution(np.concatenate(found), np.concatenate(values))


def _pab_sample_dag(graph: Graph, model: PercolationModel, s: int, z: int,
                    weight: float, ws: BfsWorkspace) -> Contribution:
    """:func:`pab_sample` of a percolated pair (``weight`` its pair weight)
    from the labels of one BFS from s on ``ws``, stopped at z's level; z
    must be reachable from s.

    The reference's own loop, one level per step from z toward s: the
    in-arcs of a level, head by head in its order and then in CSR order,
    pass each head's omega to the tails one level closer to s. The next
    level lists those tails by first appearance, and each omega adds its
    shares in arc order, since past 2^53 the order changes the rounding.
    """
    for _ in shortest_path_dag(graph, s, ws):
        if ws.dist_s[z] >= 0:
            break
    dist, sigma = ws.dist_s, ws.sigma_s
    if not math.isfinite(sigma[z]):     # no count on an s-z path exceeds sigma[z]
        raise OverflowError("shortest-path count overflowed float64")
    level = np.array([z], dtype=np.int64)
    omega = np.ones(1)
    found, values = [NO_CONTRIBUTION.idx], [NO_CONTRIBUTION.val]    # z next to s: none
    for depth in range(int(dist[z]) - 1, 0, -1):
        _, tails = graph.expand_frontier(level, backward=True)
        shares = omega.repeat(graph.in_degrees[level])
        on_path = (dist[tails] == depth).nonzero()[0]
        # fresh (``_renumber`` overwrites it) and never empty: each vertex has a predecessor
        rank, level = _renumber(tails.take(on_path))
        omega = np.bincount(rank, weights=shares.take(on_path), minlength=level.size)
        denom = model.minus_s[level]
        kept = denom > 0.0
        found.append(level[kept])
        values.append(sigma[level[kept]] * omega[kept] / sigma[z] * weight / denom[kept])
    return Contribution(np.concatenate(found), np.concatenate(values))
