import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from percolator import (BfsWorkspace, PercolationModel, bag_estimate,
                        balanced_bidirectional_bfs,
                        pab_sample, prk_sample, random_states, sample_pair,
                        sample_paths)
from percolator import sampling
from percolator.sampling import DEFAULT_BAG_CAP, PathBag, _walk_down

import oracle_exact
import oracle_search
import oracle_walk
from oracle_exact import bfs_level_counts, kappa
from oracle_contrib import as_dict
from gen import (build, chung_lu_edges, cycle_edges, erdos_renyi_edges,
                 layered_edges, in_neighbors, out_neighbors, path_edges, random_layers,
                 reversed_graph)


def enumerate_shortest_paths(graph, s, z):
    """Test-side oracle: all shortest s-z paths by DFS over the BFS DAG."""
    _, dist, _ = bfs_level_counts(graph, s)
    if dist[z] < 0:
        return []
    paths = []
    stack = [z]

    def walk(v):
        if dist[v] == 0:
            paths.append(list(reversed(stack)))
            return
        for u in in_neighbors(graph, v):
            u = int(u)
            if dist[u] == dist[v] - 1:
                stack.append(u)
                walk(u)
                stack.pop()

    walk(z)
    return paths


def test_four_cycle_meet():
    g = build(cycle_edges(4))
    meet = balanced_bidirectional_bfs(g, 0, 2)
    assert meet.connected
    assert meet.dist == 2
    assert meet.sigma_sz == 2.0


def test_disconnected_components():
    g = build([(0, 1), (2, 3)])
    meet = balanced_bidirectional_bfs(g, 0, 3)
    assert not meet.connected
    assert meet.cand_s.size == 0


def test_unique_path():
    g = build(path_edges(4))
    meet = balanced_bidirectional_bfs(g, 0, 3)
    assert meet.sigma_sz == 1.0 and meet.dist == 3


def test_same_endpoints_rejected():
    g = build(path_edges(3))
    with pytest.raises(ValueError):
        balanced_bidirectional_bfs(g, 1, 1)


def test_candidate_edges_lie_on_shortest_paths():
    for seed in range(10):
        directed = seed % 2 == 0
        g = build(erdos_renyi_edges(20, 0.15, seed=seed, directed=directed),
                  directed=directed)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            s, z = rng.integers(g.n), rng.integers(g.n)
            if s == z:
                continue
            meet = balanced_bidirectional_bfs(g, int(s), int(z))
            if not meet.connected:
                continue
            totals = meet.dist_s[meet.cand_s] + 1 + meet.dist_z[meet.cand_z]
            assert (totals == meet.dist).all()


def test_search_labels_no_level_past_the_meeting():
    """The level whose arcs meet the other side is the last one labelled:
    each side's deepest labels sum to d(s, z) - 1."""
    for directed in (False, True):
        g = build(erdos_renyi_edges(200, 0.02, seed=12, directed=directed), directed=directed)
        ws = BfsWorkspace(g.n)
        rng = np.random.default_rng(13)
        connected = 0
        for _ in range(200):
            s, z = sample_pair(g.n, rng)
            meet = balanced_bidirectional_bfs(g, s, z, ws)
            if meet.connected:
                assert meet.dist_s.max() + 1 + meet.dist_z.max() == meet.dist
                connected += 1
        assert connected > 100


def test_sigma_matches_single_source_bfs():
    for seed in range(8):
        directed = seed % 2 == 1
        g = build(erdos_renyi_edges(16, 0.2, seed=30 + seed, directed=directed),
                  directed=directed)
        for s in range(g.n):
            _, dist, sigma = bfs_level_counts(g, s)
            for z in range(g.n):
                if z == s:
                    continue
                meet = balanced_bidirectional_bfs(g, s, z)
                if dist[z] < 0:
                    assert not meet.connected
                else:
                    assert meet.connected and meet.dist == dist[z]
                    assert meet.sigma_sz == sigma[z]


def test_sampled_paths_are_shortest_and_valid():
    rng = np.random.default_rng(77)
    for seed in range(6):
        g = build(erdos_renyi_edges(25, 0.12, seed=60 + seed))
        adj = {v: set(out_neighbors(g, v).tolist()) for v in range(g.n)}
        for _ in range(10):
            s, z = rng.integers(g.n), rng.integers(g.n)
            if s == z:
                continue
            meet = balanced_bidirectional_bfs(g, int(s), int(z))
            if not meet.connected:
                continue
            bag = sample_paths(meet, alpha=1.2, rng=rng)
            for path in bag.paths:
                assert len(path) == meet.dist + 1
                assert path[0] == s and path[-1] == z
                assert all(b in adj[a] for a, b in zip(path, path[1:]))


def test_uniform_over_the_two_cycle_paths():
    g = build(cycle_edges(4))
    meet = balanced_bidirectional_bfs(g, 0, 2)
    rng = np.random.default_rng(5)
    bag = sample_paths(meet, alpha=1.0, rng=rng, count=2000)
    upper = sum(1 for p in bag.paths if p[1] == 1)
    # binomial 3 sigma around 1000
    assert abs(upper - 1000) <= 3 * np.sqrt(2000 * 0.25)


def test_unique_path_every_draw_identical():
    g = build(path_edges(3))
    meet = balanced_bidirectional_bfs(g, 0, 2)
    bag = sample_paths(meet, alpha=3.0, rng=np.random.default_rng(0))
    assert all(p.tolist() == [0, 1, 2] for p in bag.paths)


def test_bag_cap_and_requested():
    g = build(layered_edges([1, 10, 10, 1]))   # sigma = 100
    meet = balanced_bidirectional_bfs(g, 0, g.n - 1)
    assert meet.sigma_sz == 100.0
    bag = sample_paths(meet, alpha=np.log(10.0), rng=np.random.default_rng(1), cap=50)
    assert len(bag.paths) == 50
    assert bag.requested == int(np.ceil(np.log(10.0) * 100))
    assert bag.capped


def test_bag_request_saturates_on_huge_sigma():
    # sigma ~ 2^400 is finite but alpha*sigma would not survive a ceil
    g = build(layered_edges([1] + [2] * 400 + [1]))
    meet = balanced_bidirectional_bfs(g, 0, g.n - 1)
    bag = sample_paths(meet, alpha=2.3, rng=np.random.default_rng(0), cap=8)
    assert len(bag.paths) == 8
    assert bag.capped
    assert all(len(p) == meet.dist + 1 for p in bag.paths)


def test_sigma_overflow_detected():
    # 1100 stacked 2-wide layers give 2^1100 paths, past float64 range
    g = build(layered_edges([1] + [2] * 1100 + [1]))
    with pytest.raises(OverflowError):
        balanced_bidirectional_bfs(g, 0, g.n - 1)
    # the pair sample would otherwise return NaN for every internal vertex
    model = PercolationModel(np.linspace(1.0, 0.0, g.n))
    with pytest.raises(OverflowError, match="overflowed float64"):
        pab_sample(g, model, 0, g.n - 1)


def counted_dag(monkeypatch):
    """Record the [source, levels taken] of every ``shortest_path_dag`` call
    that ``sampling`` makes: how far its caller let the search go."""
    calls, dag = [], sampling.shortest_path_dag

    def counted(graph, s, ws):
        calls.append([s, 0])
        for step in dag(graph, s, ws):
            calls[-1][1] += 1
            yield step

    monkeypatch.setattr(sampling, "shortest_path_dag", counted)
    return calls


@pytest.mark.parametrize("depth", [52, 53])
def test_pab_sample_takes_the_dag_from_2_53_paths(monkeypatch, depth):
    """Below 2^53 shortest paths the balanced search gives the split; from
    2^53 on the DAG routine does. Both give the oracle's bits."""
    graph = build(layered_edges([1] + [2] * depth + [1]))     # 2^depth paths end to end
    model = PercolationModel(np.linspace(1.0, 0.0, graph.n))
    last = graph.n - 1
    assert balanced_bidirectional_bfs(graph, 0, last).sigma_sz == 2.0 ** depth
    calls = counted_dag(monkeypatch)
    ws = BfsWorkspace(graph.n)
    got = pab_sample(graph, model, 0, last, ws=ws)
    # the search from s stops at z's level, d(s, z) = depth + 1 levels past s
    assert calls == ([[0, depth + 1]] if depth == 53 else [])
    assert len(got) == graph.n - 2
    assert as_dict(got) == oracle_exact.pab_sample(graph, model, 0, last)
    calls.clear()
    for s, z in ((1, last), (0, last - 1), (2, last - 2), (5, 40), (9, 10), (10, 11)):
        got = pab_sample(graph, model, s, z, ws=ws)
        assert as_dict(got) == oracle_exact.pab_sample(graph, model, s, z)
    assert not calls


def test_dag_fallback_allocates_nothing_n_sized(monkeypatch):
    """Past 2^53 paths the pair sample runs a BFS from s on the pair
    search's workspace, stopped at z's level: on 62 levels two wide whose
    last vertex z goes on into a 200,000-vertex path, it labels the 122
    vertices up to z with no array of its own and none of the path."""
    layered = layered_edges([1] + [2] * 60 + [1])          # 2^60 paths end to end
    last = max(max(e) for e in layered)
    graph = build(layered + [(last + i, last + i + 1) for i in range(200_000)])
    model = PercolationModel(np.linspace(1.0, 0.0, graph.n))
    ws = BfsWorkspace(graph.n)
    assert balanced_bidirectional_bfs(graph, 0, last, ws).sigma_sz == 2.0 ** 60
    calls = counted_dag(monkeypatch)
    tracemalloc.start()
    try:
        got = pab_sample(graph, model, 0, last, ws=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [[0, 61]]                 # d(s, z) levels past s
    assert len(got) == last - 1
    assert peak <= 500_000, peak


def test_no_sw5k_pair_reaches_the_dag_fallback(monkeypatch, smallworld5k):
    """The benchmark's small-world graphs count a few hundred paths per
    pair, nowhere near the 2^53 that sends a pair sample to the DAG."""
    graph, model = smallworld5k
    calls = counted_dag(monkeypatch)
    counts, bfs = [], sampling.balanced_bidirectional_bfs

    def counted_bfs(graph, s, z, ws=None):
        meet = bfs(graph, s, z, ws)
        counts.append(meet.sigma_sz)
        return meet

    monkeypatch.setattr(sampling, "balanced_bidirectional_bfs", counted_bfs)
    ws = BfsWorkspace(graph.n)
    rng = np.random.default_rng(17)
    for _ in range(3_000):
        pab_sample(graph, model, *sample_pair(graph.n, rng), ws=ws)
    print(f"largest sigma_sz over {len(counts)} searched pairs: {max(counts):.0f}")
    assert len(counts) > 1_000 and not calls
    assert 1.0 < max(counts) < 2.0 ** 20


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), kind=st.sampled_from(["er", "chung-lu"]),
       directed=st.booleans(), isolated=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_pab_sample_matches_oracle_on_random_graphs(n, kind, directed, isolated, seed, data):
    """Every ordered pair, adjacent and disconnected ones included, in a
    drawn order on one shared workspace, so that a stale label shows."""
    rng = np.random.default_rng(seed)
    if kind == "er":
        edges = erdos_renyi_edges(n, rng.uniform(0.1, 0.6), seed, directed=directed)
    else:
        edges = chung_lu_edges(n, rng.uniform(1.0, 4.0), 2.3, seed)
    assume(any(u != v for u, v in edges))
    # ids seen only on self-loop lines are vertices without arcs
    graph = build(edges + [(v, v) for v in range(n, n + isolated)], directed=directed)
    states = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                min_size=graph.n, max_size=graph.n))
    model = PercolationModel(states)
    pairs = data.draw(st.permutations([(s, z) for s in range(graph.n)
                                       for z in range(graph.n) if s != z]))
    ws = BfsWorkspace(graph.n)
    for s, z in pairs:
        assert as_dict(pab_sample(graph, model, s, z, ws=ws)) == \
            oracle_exact.pab_sample(graph, model, s, z), (s, z)


def test_sample_paths_rejects_disconnected():
    g = build([(0, 1), (2, 3)])
    meet = balanced_bidirectional_bfs(g, 0, 3)
    with pytest.raises(ValueError):
        sample_paths(meet, alpha=1.0, rng=np.random.default_rng(0))


def test_bag_estimate_examples():
    m = PercolationModel([1.0, 0.5, 0.0])
    bag = PathBag(s=0, z=2, paths=np.array([[0, 1, 2]]), requested=1)
    assert as_dict(bag_estimate(bag, m)) == {1: pytest.approx(1.0)}

    m_eq = PercolationModel([0.5, 0.1, 0.5])
    assert as_dict(bag_estimate(PathBag(s=0, z=2, paths=np.array([[0, 1, 2]]), requested=1),
                                m_eq)) == {}

    m4 = PercolationModel([1.0, 0.5, 0.5, 0.0])
    bag4 = PathBag(s=0, z=2, paths=np.array([[0, 1, 2], [0, 3, 2]]), requested=2)
    out = as_dict(bag_estimate(bag4, m4))
    assert out[1] == pytest.approx(0.5 * kappa(m4, 0, 2, 1))
    assert out[3] == pytest.approx(0.5 * kappa(m4, 0, 2, 3))

    empty = PathBag(s=0, z=2, paths=np.empty((0, 3), dtype=np.int64), requested=0)
    assert as_dict(bag_estimate(empty, m)) == {}


def test_pab_path_example():
    g = build(path_edges(3))
    m = PercolationModel([1.0, 0.5, 0.0])
    assert as_dict(pab_sample(g, m, 0, 2)) == {1: pytest.approx(1.0)}
    assert as_dict(pab_sample(g, m, 2, 0)) == {}   # non-percolated direction


def test_pab_disconnected_zero():
    g = build([(0, 1), (2, 3)])
    m = PercolationModel([1.0, 0.8, 0.3, 0.0])
    assert as_dict(pab_sample(g, m, 0, 3)) == {}


def test_pab_enumeration_equals_exact():
    from percolator import exact_all
    for seed in (0, 1, 2):
        directed = seed == 2
        g = build(erdos_renyi_edges(8, 0.35, seed=90 + seed, directed=directed),
                  directed=directed)
        m = PercolationModel(random_states(g.n, seed=seed))
        n = g.n
        acc = np.zeros(n)
        for s in range(n):
            for z in range(n):
                if s == z:
                    continue
                contrib = pab_sample(g, m, s, z)
                acc[contrib.idx] += contrib.val
        assert np.abs(acc / (n * (n - 1)) - exact_all(g, m).p).max() < 1e-9


def test_prk_enumeration_equals_exact():
    from percolator import exact_all
    g = build(cycle_edges(4))
    m = PercolationModel([1.0, 0.6, 0.2, 0.0])
    n = g.n
    acc = np.zeros(n)
    for s in range(n):
        for z in range(n):
            if s == z:
                continue
            paths = enumerate_shortest_paths(g, s, z)
            for path in paths:
                for v in path[1:-1]:
                    acc[v] += kappa(m, s, z, v) / len(paths)
    assert np.abs(acc / (n * (n - 1)) - exact_all(g, m).p).max() < 1e-12


def test_prk_monte_carlo_mean():
    from percolator import exact_all
    g = build(cycle_edges(4))
    m = PercolationModel([1.0, 0.6, 0.2, 0.0])
    p = exact_all(g, m).p
    rng = np.random.default_rng(123)
    acc = np.zeros(g.n)
    draws = 20_000
    for _ in range(draws):
        contrib = prk_sample(g, m, rng)
        acc[contrib.idx] += contrib.val
    # worst per-vertex standard error for values in [0, 1]
    assert np.abs(acc / draws - p).max() < 4 * 0.5 / np.sqrt(draws)


class EdgeDraws:
    """Stand-in rng cycling through draws at and next to 0 and 1, where the
    predecessor choice is decided by the last bits of the running sum."""

    def __init__(self, seed):
        self.values = [0.0, 1.0 - 2.0 ** -53, 0.5, 2.0 ** -60, 1.0 - 2.0 ** -40]
        self.i = seed

    def random(self, size=None):
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        self.i += 1
        return self.values[self.i % len(self.values)]


def walk(graph, starts, toward_z, dist, sigma, rng, roots):
    """The vectorized walk from ``starts[i]`` on side ``toward_z[i]``, with
    ``dist``/``sigma`` the (s side, z side) arrays and ``roots`` their
    vertices at depth 0. Walker i reads the
    uniforms after walker i-1's, all from one ``rng.random`` call, as
    sequential calls of the per-neighbour loop would. Returns the paths."""
    starts = np.asarray(starts, dtype=np.int64)
    toward_z = np.asarray(toward_z, dtype=bool)
    depth = np.where(toward_z, dist[1][starts], dist[0][starts])
    uniforms = rng.random(int(depth.sum()))
    trail = _walk_down(graph, starts, toward_z, dist, sigma, uniforms, np.cumsum(depth) - depth,
                       roots)
    return [row[:d + 1].tolist() for row, d in zip(trail, depth.tolist())]


def walk_graphs():
    yield "er", build(erdos_renyi_edges(40, 0.1, seed=3))
    yield "hubs", build(chung_lu_edges(300, 6, 2.1, seed=4))
    yield "directed", build(erdos_renyi_edges(40, 0.08, seed=5, directed=True),
                            directed=True)
    # 3- and 5-wide layers: up to ~1e29 paths, far past 2^53, so the
    # counts are rounded and the running subtraction is inexact
    yield "layered", build(layered_edges([1] + [3, 5] * 20 + [1]))


def walk_pairs(name, graph):
    if name == "layered":
        return [(0, graph.n - 1)]
    rng = np.random.default_rng(11)
    return [tuple(map(int, rng.choice(graph.n, 2, replace=False))) for _ in range(40)]


@pytest.mark.parametrize("name,graph", [pytest.param(n, g, id=n) for n, g in walk_graphs()])
def test_walk_matches_per_neighbour_loop(name, graph):
    """Same path and same number of draws as the loop, from every labelled
    vertex of each side, one walker per call; then from all of them, both
    sides, in one call. The counts are also taken slightly inflated, so a
    vertex can count more than its predecessors sum to and the pick runs
    past the last one."""
    noise = 1.0 + 1e-6 * np.random.default_rng(2).random(graph.n)
    checked = 0
    for trial, (s, z) in enumerate(walk_pairs(name, graph)):
        meet = balanced_bidirectional_bfs(graph, s, z)
        if not meet.connected:
            continue
        if name == "layered":
            assert meet.sigma_sz > 2.0 ** 53
        dists = (meet.dist_s, meet.dist_z)
        for sigmas in ((meet.sigma_s, meet.sigma_z),
                       (meet.sigma_s * noise, meet.sigma_z * noise)):
            starts, sides = [], []
            for toward_z in (False, True):
                dist, counts = dists[toward_z], sigmas[toward_z]
                for v in np.flatnonzero(dist > 0).tolist():
                    starts.append(v)
                    sides.append(toward_z)
                    for make in (np.random.default_rng, EdgeDraws):
                        new_rng, old_rng = make(trial * 1000 + v), make(trial * 1000 + v)
                        got = walk(graph, [v], [toward_z], dists, sigmas, new_rng, (s, z))
                        want = oracle_walk._walk_down(graph, v, dist, counts, old_rng,
                                                      toward_z)
                        assert got == [want]
                        assert new_rng.random() == old_rng.random()   # same draws used
                        checked += 1
            for make in (np.random.default_rng, EdgeDraws):
                new_rng, old_rng = make(trial), make(trial)
                got = walk(graph, starts, sides, dists, sigmas, new_rng, (s, z))
                want = [oracle_walk._walk_down(graph, v, dists[side], sigmas[side], old_rng, side)
                        for v, side in zip(starts, sides)]
                assert got == want
                assert new_rng.random() == old_rng.random()
    assert checked > 100


def test_walk_subtracts_predecessors_in_order():
    # v = 0 with predecessors 1, 2, 3 counting 1, 2^53 and 4 paths, all
    # under the root 4, and a pick of 2^53 + 2: one at a time, 2^53 + 2 - 1
    # rounds to 2^53 and the walk stops at 2; pick minus the summed counts
    # would go on to 3
    g = build([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    dist = np.array([2, 1, 1, 1, 0])
    sigma = np.array([2.0 ** 54 + 4, 1.0, 2.0 ** 53, 4.0, 1.0])

    class Half:
        def random(self, size=None):
            return 0.5 if size is None else np.full(size, 0.5)

    assert oracle_walk._walk_down(g, 0, dist, sigma, Half(), toward_z=False) == [0, 2, 4]
    assert walk(g, [0], [False], (dist, dist), (sigma, sigma), Half(), (4, 4)) == [[0, 2, 4]]


@pytest.mark.parametrize("name,graph", [pytest.param(n, g, id=n) for n, g in walk_graphs()])
def test_walkers_one_step_above_their_roots_read_no_list(name, graph):
    """On a copy of the graph whose neighbour lists all point out of range,
    so that reading one raises, walkers at depth 1 on either side still end
    at their roots, while walkers at depth 2 raise."""
    broken = dataclasses.replace(graph, fwd_targets=np.full_like(graph.fwd_targets, 1 << 40),
                                 bwd_targets=np.full_like(graph.bwd_targets, 1 << 40))
    sides_checked = set()
    for s, z in walk_pairs(name, graph):
        meet = balanced_bidirectional_bfs(graph, s, z)
        if not meet.connected:
            continue
        dists, sigmas = (meet.dist_s, meet.dist_z), (meet.sigma_s, meet.sigma_z)
        for side, root in ((False, s), (True, z)):
            starts = np.flatnonzero(dists[side] == 1).tolist()
            got = walk(broken, starts, [side] * len(starts), dists, sigmas,
                       np.random.default_rng(s), (s, z))
            assert got == [[v, root] for v in starts]
            sides_checked.update([side] if starts else [])
            deeper = np.flatnonzero(dists[side] == 2).tolist()
            if deeper:
                with pytest.raises(IndexError):
                    walk(broken, deeper, [side] * len(deeper), dists, sigmas,
                         np.random.default_rng(s), (s, z))
    assert sides_checked == {False, True}


def draw_cases():
    for name, graph in walk_graphs():
        yield pytest.param(graph, walk_pairs(name, graph), id=name)
    for directed in (False, True):
        graph = build(random_layers([1] + [7] * 50 + [1], 0.5, seed=4), directed=directed)
        yield pytest.param(graph, [(0, graph.n - 1)],
                           id="random-layers-" + ("directed" if directed else "undirected"))


def rng_state(rng):
    return rng.bit_generator.state if isinstance(rng, np.random.Generator) else rng.i


@pytest.mark.parametrize("graph,pairs", draw_cases())
def test_sample_paths_matches_per_path_draws(graph, pairs):
    """Bit-equal paths and the same rng state afterwards as the per-path,
    per-step scalar draws, for full and capped bags and single paths, also
    with the counts slightly inflated (the pick can run past the last
    predecessor) and with draws at and next to 0 and 1."""
    noise = 1.0 + 1e-6 * np.random.default_rng(6).random(graph.n)
    bags = 0
    for trial, (s, z) in enumerate(pairs):
        meet = balanced_bidirectional_bfs(graph, s, z)
        if not meet.connected:
            continue
        # past 2^53 the counts round; full bags would be 2^16 paths there
        full = DEFAULT_BAG_CAP if meet.sigma_sz < 2.0 ** 53 else 64
        inflated = dataclasses.replace(meet, sigma_s=meet.sigma_s * noise,
                                       sigma_z=meet.sigma_z * noise)
        for m in (meet, inflated):
            for kwargs in (dict(alpha=1.3, cap=full), dict(alpha=2.0, cap=3),
                           dict(alpha=1.0, count=1)):
                for make in (np.random.default_rng, EdgeDraws):
                    new_rng, old_rng = make(trial), make(trial)
                    got = sample_paths(m, rng=new_rng, **kwargs)
                    want = oracle_walk.sample_paths(m, rng=old_rng, **kwargs)
                    assert got.paths.dtype == np.int64
                    assert got.paths.shape == (len(want.paths), meet.dist + 1)
                    assert got.paths.tolist() == want.paths
                    assert (got.requested, got.capped) == (want.requested, want.capped)
                    assert rng_state(new_rng) == rng_state(old_rng)
                    bags += 1
    assert bags >= 12


class RecordingRng:
    """A seeded generator that logs the ``size`` of every ``random`` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def test_one_uniform_array_per_bag():
    """d uniforms per path, all from a single ``random(k * d)`` call."""
    graph = build(chung_lu_edges(300, 6, 2.1, seed=4))
    rng = np.random.default_rng(9)
    bags = 0
    for _ in range(40):
        s, z = map(int, rng.choice(graph.n, 2, replace=False))
        meet = balanced_bidirectional_bfs(graph, s, z)
        if not meet.connected:
            continue
        for kwargs in (dict(alpha=1.5), dict(alpha=1.5, cap=2), dict(alpha=1.0, count=1)):
            rec = RecordingRng(s)
            bag = sample_paths(meet, rng=rec, **kwargs)
            assert rec.sizes == [len(bag.paths) * meet.dist]
        bags += meet.dist > 2
    assert bags > 10


def test_no_search_for_zero_weight_pairs(monkeypatch):
    """pab_sample and prk_sample skip the search of a pair that contributes
    nothing whatever the search finds, and search every other pair once."""
    graph = build(erdos_renyi_edges(25, 0.15, seed=13))
    model = PercolationModel(random_states(graph.n, seed=5))
    dag_pairs, bfs_pairs = counted_dag(monkeypatch), []
    bfs = sampling.balanced_bidirectional_bfs

    def counted_bfs(graph, s, z, ws=None):
        bfs_pairs.append((s, z))
        return bfs(graph, s, z, ws)

    monkeypatch.setattr(sampling, "balanced_bidirectional_bfs", counted_bfs)
    pairs = [(s, z) for s in range(graph.n) for z in range(graph.n) if s != z]
    zero = {pair for pair in pairs if model.pair_weight(*pair) == 0.0}
    assert 0 < len(zero) < len(pairs)
    for s, z in pairs:
        pab_sample(graph, model, s, z)
    # no pair here reaches the 2^53 fallback: one balanced search per pair
    assert bfs_pairs == [pair for pair in pairs if pair not in zero] and not dag_pairs
    bfs_pairs.clear()
    rng = np.random.default_rng(3)
    for _ in range(400):
        prk_sample(graph, model, rng)
    assert len(bfs_pairs) > 100
    assert not zero & set(bfs_pairs)


def test_path_counts_match_single_source_bfs_past_2_53():
    for directed in (False, True):
        g = build(random_layers([1] + [7] * 50 + [1], 0.5, seed=4), directed=directed)
        meet = balanced_bidirectional_bfs(g, 0, g.n - 1)
        assert meet.sigma_sz > 2.0 ** 60
        for dist, sigma, graph, root in ((meet.dist_s, meet.sigma_s, g, 0),
                                         (meet.dist_z, meet.sigma_z, reversed_graph(g), g.n - 1)):
            _, _, want = bfs_level_counts(graph, root)
            seen = dist >= 0
            assert np.array_equal(sigma[seen], want[seen])


def two_component_graph():
    edges = erdos_renyi_edges(30, 0.12, seed=8)
    edges += [(u + 100, v + 100) for u, v in erdos_renyi_edges(25, 0.15, seed=9)]
    return build(edges)


@pytest.mark.parametrize("graph", [
    two_component_graph(),
    build(erdos_renyi_edges(60, 0.04, seed=12, directed=True), directed=True),
], ids=["two-components", "directed"])
def test_workspace_reuse_matches_fresh_searches(graph):
    ws = BfsWorkspace(graph.n)
    rng = np.random.default_rng(21)
    outcomes = set()
    for _ in range(150):
        s, z = map(int, rng.choice(graph.n, 2, replace=False))
        reused = balanced_bidirectional_bfs(graph, s, z, ws)
        fresh = balanced_bidirectional_bfs(graph, s, z)
        outcomes.add(reused.connected)
        assert reused.connected == fresh.connected
        assert reused.dist == fresh.dist and reused.sigma_sz == fresh.sigma_sz
        for key in ("cand_s", "cand_z", "cand_weights",
                    "dist_s", "dist_z", "sigma_s", "sigma_z"):
            assert np.array_equal(getattr(reused, key), getattr(fresh, key)), key
    assert outcomes == {True, False}
    ws.reset()
    assert (ws.dist_s == -1).all() and (ws.dist_z == -1).all()
    assert (ws.sigma_s == 0.0).all() and (ws.sigma_z == 0.0).all()


def search_cases():
    """(name, graph, ordered pairs): random pairs, adjacent pairs (met on
    the first expansion of a root's row) and the cases named below."""
    rng = np.random.default_rng(31)

    def pairs(graph, count, adjacent=0):
        drawn = [tuple(map(int, rng.choice(graph.n, 2, replace=False))) for _ in range(count)]
        tails = rng.choice(graph.n, adjacent)
        return drawn + [(int(u), int(out_neighbors(graph, u)[0])) for u in tails.tolist()
                        if out_neighbors(graph, u).size]

    graph = build(erdos_renyi_edges(60, 0.06, seed=13))
    yield "er", graph, pairs(graph, 120, 30)
    graph = build(chung_lu_edges(300, 6, 2.1, seed=4))
    yield "hubs", graph, pairs(graph, 120, 30)
    # the last id has an in-arc and no out-arc; many pairs connect one way only
    graph = build(erdos_renyi_edges(60, 0.04, seed=12, directed=True) + [(0, 1000)],
                  directed=True)
    last = graph.n - 1
    assert graph.out_degrees[last] == 0
    yield "directed", graph, pairs(graph, 120, 30) + [(last, 0), (0, last), (5, last)]
    graph = two_component_graph()
    yield "two-components", graph, pairs(graph, 120, 20)
    # 3- and 5-wide layers: the end-to-end count is far past 2^53
    graph = build(layered_edges([1] + [3, 5] * 20 + [1]))
    yield "layered-2^53", graph, [(0, graph.n - 1), (graph.n - 1, 0)] + pairs(graph, 40)
    # a side expands the one-vertex level under a 3-wide one, count 3, and
    # moves on without meeting
    graph = build(layered_edges([1, 3, 1, 1, 3, 1]))
    yield "one-vertex-count-3", graph, [(s, z) for s in range(graph.n)
                                        for z in range(graph.n) if s != z]


def one_vertex_levels_past_the_root(ws):
    """How many one-vertex levels past a root, counting more than one path,
    the last search expanded into a further level."""
    return sum(level.size == 1 and sigma[level[0]] > 1.0 and following.size > 0
               for touched, sigma in ((ws.touched_s, ws.sigma_s), (ws.touched_z, ws.sigma_z))
               for level, following in zip(touched[1:], touched[2:]))


@pytest.mark.parametrize("name,graph,pairs", [pytest.param(*case, id=case[0])
                                              for case in search_cases()])
def test_search_matches_reference_bit_for_bit(name, graph, pairs):
    """The search, one-row levels and cached arc counts included, leaves the
    labels and returns the result of the reference that expands every level
    through ``expand_frontier``: every ``MeetResult`` field and every
    workspace entry, bit for bit. Each side runs all pairs on one
    workspace, so every reset is checked too."""
    ws, ref_ws = BfsWorkspace(graph.n), BfsWorkspace(graph.n)
    outcomes, deep_single = set(), 0
    for s, z in pairs:
        got = balanced_bidirectional_bfs(graph, s, z, ws)
        want = oracle_search.balanced_bidirectional_bfs(graph, s, z, ref_ws)
        for f in dataclasses.fields(sampling.MeetResult):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "graph":
                assert a is b
            else:
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), (f.name, s, z)
        for side in ("touched_s", "touched_z"):
            assert [level.tolist() for level in getattr(ws, side)] == \
                [level.tolist() for level in getattr(ref_ws, side)]
        outcomes.add((got.connected, got.dist))
        deep_single += one_vertex_levels_past_the_root(ws)
    if name == "layered-2^53":
        assert balanced_bidirectional_bfs(graph, 0, graph.n - 1, ws).sigma_sz > 2.0 ** 53
    if name in ("two-components", "directed"):
        assert (False, -1) in outcomes
    if name != "layered-2^53":
        assert (True, 1) in outcomes               # adjacent pairs
    if name == "one-vertex-count-3":
        assert deep_single > 0


def test_workspace_size_must_match_graph():
    g = build(path_edges(4))
    with pytest.raises(ValueError):
        balanced_bidirectional_bfs(g, 0, 3, BfsWorkspace(g.n + 1))
