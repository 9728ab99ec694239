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
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import BfsWorkspace, Graph, _next_level, _renumber, shortest_path_dag, sorted_unique
from .percolation import PercolationModel

DEFAULT_BAG_CAP = 1 << 16
_NO_VERTICES = np.empty(0, dtype=np.int64)


@dataclass
class MeetResult:
    """Outcome of one balanced bidirectional BFS between s and z.

    ``ws`` is the :class:`BfsWorkspace` the search ran on, its labels from
    s in row 0 and to z in row 1 (distance -1 where unreached): they stay
    valid only until the next search on that workspace, which resets the
    entries this one wrote.
    """

    graph: Graph
    s: int
    z: int
    connected: bool
    dist: int                      # d(s, z); -1 when disconnected
    ws: BfsWorkspace
    cand_s: np.ndarray             # candidate arcs, s-side endpoints
    cand_z: np.ndarray             # candidate arcs, z-side endpoints
    sigma_sz: float = 0.0          # total shortest s-z path count
    cand_weights: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True, eq=False)
class Contribution:
    """One sample's record: its sparse f, ``val[i]`` at vertex ``idx[i]``, and the
    facts a run tallies over its samples. ``idx`` has no repeats, so ``a[idx] +=
    val`` adds each value once; ``len`` counts the (nonzero) entries. ``internal``
    is d(s, z) - 1 of a pair whose paths were drawn (or, in the progressive
    estimator's pair sample, that was searched and found connected), else 0;
    ``capped`` says the pair's bag met its cap. A new per-sample fact is a new
    field here, tallied by ``McEraState``."""

    idx: np.ndarray                # int64 vertex ids
    val: np.ndarray                # float64 values
    internal: int = 0
    capped: bool = False

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


def _expand_side(graph: Graph, ws: BfsWorkspace, side: int, frontier: np.ndarray, depth: int):
    """One full level of ``side`` of ``ws`` (0: out-arcs from s, 1: in-arcs
    toward z); returns (next_frontier, cand_s, cand_z).

    Arcs to vertices the other side has seen are the candidate arcs; the
    search ends at the first level with any, so that level builds no next
    frontier (its labels would never be read).

    A frontier of one vertex v expands as its CSR row, which the loader
    keeps ascending and free of repeats: the row's unseen vertices are the
    next level, in order, each with v's count (the float a one-weight
    bincount gives), so no arc list, sort or bincount is built.
    """
    dist, sigma, other = ws.dist[side], ws.sigma[side], ws.dist[1 - side]
    if frontier.size == 1:
        v = frontier[0]
        offsets, targets = ((graph.bwd_offsets, graph.bwd_targets) if side
                            else (graph.fwd_offsets, graph.fwd_targets))
        nbrs = targets[offsets[v]:offsets[v + 1]]
        met = (other[nbrs] >= 0).nonzero()[0]
        if not met.size:
            new = nbrs.take((dist[nbrs] < 0).nonzero()[0])
            dist[new] = depth + 1
            sigma[new] = sigma[v]
            return new, _NO_VERTICES, _NO_VERTICES
        srcs = frontier.repeat(met.size)
    else:
        srcs, nbrs = graph.expand_frontier(frontier, backward=bool(side))
        met = other[nbrs] >= 0
        if not met.any():
            new, _, _ = _next_level(srcs, nbrs, depth, dist, sigma, ws.place)
            return new, _NO_VERTICES, _NO_VERTICES
        srcs = srcs[met]
    # the arcs run from this side into the other: the s side's ends are their tails on side 0
    return (_NO_VERTICES, nbrs[met], srcs) if side else (_NO_VERTICES, srcs, nbrs[met])


def balanced_bidirectional_bfs(graph: Graph, s: int, z: int,
                               ws: BfsWorkspace | None = None) -> MeetResult:
    """Meet-in-the-middle BFS yielding the candidate arcs and sigma_sz.

    ``ws`` holds the distance and path-count arrays; a fresh one is made
    when none is given. Passing the same workspace to every search of a
    run makes each search cost what it explores instead of O(n). Each
    iteration expands the side whose frontier has fewer arcs, the s side
    on a tie.
    """
    if s == z:
        raise ValueError("endpoints must be distinct")
    if ws is None:
        ws = BfsWorkspace(graph.n)
    elif ws.n != graph.n:
        raise ValueError("workspace and graph disagree on vertex count")
    ws.reset()
    degrees = (graph.out_degrees, graph.in_degrees)
    arcs = []                 # each frontier's arc count, taken once when the frontier is built
    for side, root in enumerate((s, z)):
        ws.touched[side].append(np.array([root], dtype=np.int64))
        ws.dist[side, root], ws.sigma[side, root] = 0, 1.0
        arcs.append(degrees[side][root])
    (dist_s, dist_z), (sigma_s, sigma_z) = ws.dist, ws.sigma
    while ws.touched[0][-1].size and ws.touched[1][-1].size:
        side = int(arcs[0] > arcs[1])
        levels = ws.touched[side]
        frontier, cand_s, cand_z = _expand_side(graph, ws, side, levels[-1], len(levels) - 1)
        levels.append(frontier)
        arcs[side] = degrees[side][frontier].sum()
        if cand_s.size:
            totals = dist_s[cand_s] + 1 + dist_z[cand_z]
            d = int(totals.min())
            keep = totals == d
            cand_s, cand_z = cand_s[keep], cand_z[keep]
            weights = sigma_s[cand_s] * sigma_z[cand_z]
            sigma_sz = float(weights.sum())
            if not math.isfinite(sigma_sz):
                raise OverflowError("shortest-path count overflowed float64")
            return MeetResult(graph=graph, s=s, z=z, connected=True, dist=d, ws=ws,
                              cand_s=cand_s, cand_z=cand_z,
                              sigma_sz=sigma_sz, cand_weights=weights)
    return MeetResult(graph=graph, s=s, z=z, connected=False, dist=-1, ws=ws,
                      cand_s=_NO_VERTICES, cand_z=_NO_VERTICES)


def _walk_down(graph: Graph, key: np.ndarray, dist, sigma,
               uniforms: np.ndarray, first: np.ndarray, roots) -> np.ndarray:
    """Random descents to depth 0 from every ``key[i] = side * n + v`` at
    once, weighting each step by its path count.

    ``dist`` and ``sigma`` are (2, n) labels, gathered flat at the keys.
    Walker i descends from v on the s side (side 0: in-arcs) or the z side
    (side 1: out-arcs), whose only vertex at depth 0 is ``roots[side]``.
    Its step t reads the uniform ``uniforms[first[i] + t]`` and sets
    ``rem = draw * sigma[v]``; subtracting the predecessors' counts from
    ``rem`` one at a time, in CSR order, it goes to the first predecessor at
    which ``rem`` drops to <= 0, or to the last one when rounding keeps it
    positive. That is bit for bit an in-order ``subtract.accumulate``,
    never a cumsum. Every walker takes one step per iteration, and each
    distinct key of a step has its neighbour list read once, since a
    vertex's predecessors depend only on the vertex. A walker one step
    above its root has the root as its one predecessor: it takes it
    without reading a list, and its uniform stays unread.

    Returns ``trail`` of shape (len(key), deepest + 1): ``trail[i, t]`` is
    walker i's vertex after t steps, for t up to its depth; later entries
    are unspecified.
    """
    n = graph.n
    dist, sigma = dist.ravel(), sigma.ravel()
    roots = np.array(roots)
    left = dist[key]                                  # steps still to take
    done_at = set(left.tolist())
    steps = max(done_at, default=0)
    trail = np.empty((steps + 1, key.size), dtype=np.int64)
    trail[0] = key
    rows = (left > 0).nonzero()[0]                  # walkers not at depth 0
    key, at, left = key[rows], first[rows], left[rows]
    # numpy's ndarray methods and ufuncs below skip the wrappers of the
    # np.* functions, a large share of the cost at a bag's array sizes
    for t in range(steps):
        if t + 1 in done_at:                          # the walkers one step above a root
            top = left == t + 1
            trail[t + 1, rows[top]] = roots[key[top] // n]
            go = ~top
            rows, key, at, left = rows[go], key[go], at[go], left[go]
            if not rows.size:
                break
        # the step's distinct keys, and each walker's slot among them
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
        nbrs += n * nz                                # keyed on the walker's side
        at_pred = (dist[nbrs] == (dist[ukey] - 1).repeat(size)).nonzero()[0]
        preds = nbrs[at_pred]
        # each walker's predecessors are preds[first_pred:last_pred + 1]
        first_pred = at_pred.searchsorted(ends - size)[slot]
        last_pred = at_pred.searchsorted(ends)[slot] - 1
        nxt = preds[first_pred]                       # the one predecessor, the usual case
        multi = (last_pred > first_pred).nonzero()[0]
        if multi.size:
            psigma = sigma[preds]
            rem = uniforms[at[multi] + t] * sigma[key[multi]]
            pos, last = first_pred[multi], last_pred[multi]
            while multi.size:                         # rank r of every undecided walker
                rem = rem - psigma[pos]
                stop = (rem <= 0.0) | (pos == last)
                nxt[multi[stop]] = preds[pos[stop]]
                go = ~stop
                multi, rem, pos, last = multi[go], rem[go], pos[go] + 1, last[go]
        trail[t + 1, rows] = nxt
        key = nxt
    trail %= n
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
    of the s side (``dist[0, u]`` steps), then one per step of the z side
    (``dist[1, w]``). The paths come as a (k, d + 1) int64 array, s first.
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
    head = int(meet.ws.dist[0, u[0]])
    first = np.arange(k) * d + 1
    trail = _walk_down(meet.graph, np.concatenate((u, w + meet.graph.n)), meet.ws.dist,
                       meet.ws.sigma, uniforms, np.concatenate((first, first + head)),
                       (meet.s, meet.z))
    paths = np.empty((k, d + 1), dtype=np.int64)
    paths[:, :head + 1] = trail[:k, head::-1]     # an s-side trail runs u -> s
    paths[:, head + 1:] = trail[k:, :d - head]
    return PathBag(s=meet.s, z=meet.z, paths=paths, requested=requested)


def bag_estimate(bag: PathBag, model: PercolationModel) -> Contribution:
    """Per-vertex contribution of one bag: (hits/|bag|) * kappa, recorded
    with the bag's internal length and cap flag.

    Empty bags (disconnected pairs) contribute nothing but still count
    as one sample on the caller's side. Only vertices with a nonzero
    contribution appear in the result, each once.
    """
    if not len(bag.paths):
        return NO_CONTRIBUTION
    weight = model.pair_weight(bag.s, bag.z)
    internal, capped = bag.paths.shape[1] - 2, bag.capped
    if weight == 0.0:
        return replace(NO_CONTRIBUTION, internal=internal, capped=capped)
    hits = np.sort(bag.paths[:, 1:-1].ravel())
    edge = np.ones(hits.size + 1, dtype=bool)      # run starts, then one past the end
    np.not_equal(hits[1:], hits[:-1], out=edge[1:-1])
    first = np.flatnonzero(edge)
    idx, counts = hits[first[:-1]], first[1:] - first[:-1]
    denom = model.minus_s[idx]
    kept = denom > 0.0
    return Contribution(idx[kept], counts[kept] * (1.0 / len(bag.paths)) * weight / denom[kept],
                        internal, capped)


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
    cands = (meet.cand_s, meet.cand_z)
    for side, (dist, sigma) in enumerate(zip(ws.dist, ws.sigma)):
        ends, shares = cands[side], ws.sigma[1 - side, cands[1 - side]]
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
                srcs, ends = graph.expand_frontier(level, backward=not side)
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
    dist, sigma = ws.dist[0], ws.sigma[0]
    for _ in shortest_path_dag(graph, s, ws):
        if dist[z] >= 0:
            break
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
