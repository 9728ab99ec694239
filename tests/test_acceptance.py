"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical
criteria are seeded, so results are reproducible run to run.
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from percolator import (BfsWorkspace, PercolationModel, ScheduleConfig,
                        balanced_bidirectional_bfs, estimate, exact_all, eps_bound,
                        pab_sample, percolation_differences, prk_sample, random_states,
                        sample_pair, sample_paths, sufficient_sample_size,
                        vd_baseline_sample_size)
from percolator.baselines import run_pab_naive, run_prk_fixed
from percolator.bounds import sufficient_sample_size_closed_form
from percolator.progressive import _draw_pair_sample

from gen import (build, chung_lu_edges, cycle_edges, erdos_renyi_edges, in_neighbors,
                 layered_edges, newman_watts_edges, path_edges)
from oracle_exact import bfs_level_counts, brute_force_percolation, exact_rho_and_diameter, kappa

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL {desc}")
        raise
    print(f"\n[criterion {num:2d}] PASS {desc}")


def graph_zoo(count):
    """Seeded mix of sparse random and small-world graphs, n <= 50."""
    for seed in range(count):
        kind = seed % 4
        if kind < 2:
            n = 6 + (seed * 7) % 45
            directed = kind == 1
            yield build(erdos_renyi_edges(n, 2.5 / n, seed=seed, directed=directed),
                        directed=directed)
        elif kind == 2:
            n = 8 + (seed * 5) % 24
            yield build(newman_watts_edges(n, 4, 0.3, seed=seed))
        else:
            n = 6 + (seed * 3) % 20
            yield build(erdos_renyi_edges(n, 4.0 / n, seed=seed))


def test_criterion_1_oracle_equivalence():
    with criterion(1, "exact percolation matches path-enumeration oracle on 200 graphs"):
        checked = 0
        for i, g in enumerate(graph_zoo(200)):
            model = PercolationModel(random_states(g.n, seed=1000 + i))
            gap = np.abs(exact_all(g, model).p -
                         brute_force_percolation(g, model)).max()
            assert gap < 1e-9, f"graph {i}: deviation {gap}"
            checked += 1
        assert checked == 200


def test_criterion_2_exclusion_sums():
    with criterion(2, "sorted exclusion-sum pass matches the O(n^2) oracle"):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            if trial == 0:
                n, x = 2000, rng.random(2000)
            elif trial == 1:
                n, x = 500, np.full(500, 0.42)          # all equal
            elif trial == 2:
                n, x = 1000, np.round(rng.random(1000), 1)   # heavy ties
            else:
                n = int(rng.integers(10, 800))
                x = rng.random(n)
                if trial % 5 == 0:
                    x = np.round(x, 2)
            total, minus = percolation_differences(x)
            ramp = np.maximum(x[None, :] - x[:, None], 0.0)
            total_o = float(ramp.sum())
            minus_o = total_o - ramp.sum(axis=1) - ramp.sum(axis=0)
            scale = max(total_o, 1.0)
            assert abs(total - total_o) / scale < 1e-9
            assert np.abs(minus - minus_o).max() / scale < 1e-9


def test_criterion_3_centrality_chain():
    with criterion(3, "sum p <= sum b <= rho on the hand case and the zoo"):
        g = build(path_edges(3))
        res = exact_all(g, PercolationModel([1.0, 0.5, 0.0]))
        assert res.p == pytest.approx([0.0, 1 / 6, 0.0], abs=1e-12)
        assert res.b == pytest.approx([0.0, 1 / 3, 0.0], abs=1e-12)
        assert res.rho == pytest.approx(1 / 3, abs=1e-12)
        for i, g in enumerate(graph_zoo(40)):
            res = exact_all(g, PercolationModel(random_states(g.n, seed=i)))
            assert res.p.sum() <= res.b.sum() + 1e-9
            assert res.b.sum() <= res.rho + 1e-9


def test_criterion_4_sampler_correctness():
    with criterion(4, "meet-in-middle path counts, uniform draws, oversampling rate"):
        # path counts agree with single-source BFS on all pairs of 50 graphs
        for i, g in enumerate(graph_zoo(50)):
            for s in range(g.n):
                _, dist, sigma = bfs_level_counts(g, s)
                for z in range(g.n):
                    if z == s:
                        continue
                    meet = balanced_bidirectional_bfs(g, s, z)
                    if dist[z] < 0:
                        assert not meet.connected
                    else:
                        assert meet.sigma_sz == sigma[z], (i, s, z)

        # uniformity over the 4-cycle's two paths, 1e4 draws, 3 sigma
        g4 = build(cycle_edges(4))
        meet = balanced_bidirectional_bfs(g4, 0, 2)
        rng = np.random.default_rng(44)
        bag = sample_paths(meet, alpha=1.0, rng=rng, count=10_000)
        upper = sum(1 for p in bag.paths if p[1] == 1)
        assert abs(upper - 5000) <= 3 * math.sqrt(10_000 * 0.25)

        # never-sampled fraction of a 100-path pair is about exp(-alpha)
        glay = build(layered_edges([1, 10, 10, 1]))
        meet = balanced_bidirectional_bfs(glay, 0, glay.n - 1)
        assert meet.sigma_sz == 100.0
        alpha = math.log(10.0)
        fractions = []
        for rep in range(50):
            rng = np.random.default_rng(500 + rep)
            bag = sample_paths(meet, alpha=alpha, rng=rng)
            seen = {tuple(p) for p in bag.paths}
            fractions.append((100 - len(seen)) / 100.0)
        assert abs(np.mean(fractions) - math.exp(-alpha)) < 0.02


def test_criterion_5_unbiasedness():
    with criterion(5, "bag estimator mean within 3 standard errors of exact"):
        graphs = [
            build(cycle_edges(4) + [(0, 2)]),
            build(layered_edges([1, 2, 2, 1])),
            build(erdos_renyi_edges(12, 0.3, seed=77)),
        ]
        draws = 100_000
        for gi, g in enumerate(graphs):
            model = PercolationModel(random_states(g.n, seed=gi))
            p = exact_all(g, model).p
            sums = np.zeros(g.n)
            sqs = np.zeros(g.n)
            rng = np.random.default_rng(9000 + gi)
            for _ in range(draws):
                contrib = _draw_pair_sample(g, model, rng, alpha=math.log(10), cap=1 << 16)
                sums[contrib.idx] += contrib.val
                sqs[contrib.idx] += contrib.val * contrib.val
            mean = sums / draws
            se = np.sqrt(np.maximum(sqs / draws - mean ** 2, 0.0) / draws)
            gap = np.abs(mean - p)
            assert (gap <= 3 * se + 1e-12).all(), (gi, gap / np.maximum(se, 1e-300))


def grid_edges(k):
    """The k x k grid graph, vertex r * k + c in row r, column c."""
    return ([(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
            + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)])


# graphs whose draws choose: unequal candidate arc weights, walkers with
# several predecessors of unequal counts
CHOICE_GRAPHS = {
    "grid-4x4": build(grid_edges(4)),
    "layers-1-3-2-3-1": build(layered_edges([1, 3, 2, 3, 1])),
    "er-16-0.2-seed-3": build(erdos_renyi_edges(16, 0.2, seed=3)),
}

SAMPLERS = {
    "_draw_pair_sample": lambda g, model, rng, ws: _draw_pair_sample(
        g, model, rng, alpha=math.log(10), cap=1 << 16, ws=ws),
    "prk_sample": prk_sample,
    "pab_sample": lambda g, model, rng, ws: pab_sample(g, model, *sample_pair(g.n, rng), ws),
}


@pytest.mark.parametrize("sampler", list(SAMPLERS))
def test_sampler_means_where_draws_choose(sampler):
    """Criterion 5's statistic on graphs where a draw has choices, which
    criterion 5's graphs seldom give: each vertex's mean over 30,000
    draws (states and draws from seed 0) lies within 4 standard errors of
    ``exact_all``. Over seeds 0-5 the largest unmutated |gap| / SE of the
    three samplers on the three graphs was 3.51 (pab on ER, seed 5); the
    candidate arc picked uniformly instead of by weight reads 6.98-8.37
    for the pair sample on the grid, and a walker that always takes its
    first predecessor 4.1-96 on every graph for the pair and single-path
    samples."""
    draw = SAMPLERS[sampler]
    draws = 30_000
    for name, g in CHOICE_GRAPHS.items():
        model = PercolationModel(random_states(g.n, seed=0))
        p = exact_all(g, model).p
        ws = BfsWorkspace(g.n)
        rng = np.random.default_rng(0)
        sums = np.zeros(g.n)
        sqs = np.zeros(g.n)
        for _ in range(draws):
            contrib = draw(g, model, rng, ws)
            sums[contrib.idx] += contrib.val
            sqs[contrib.idx] += contrib.val * contrib.val
        mean = sums / draws
        se = np.sqrt(np.maximum(sqs / draws - mean ** 2, 0.0) / draws)
        gap = np.abs(mean - p)
        assert (gap <= 4 * se + 1e-12).all(), (name, (gap / np.maximum(se, 1e-300)).max())


def enumerate_shortest_paths(graph, dist, z):
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


def test_criterion_6_variance_ordering():
    with criterion(6, "pair-conditional sampler has no more variance than single-path"):
        graphs = [
            build([(0, 1), (0, 2), (1, 3), (2, 3)]),       # diamond
            build(cycle_edges(4) + [(0, 2)]),
            build(erdos_renyi_edges(12, 0.3, seed=6)),
        ]
        any_strict = False
        for gi, g in enumerate(graphs):
            model = PercolationModel(random_states(g.n, seed=20 + gi))
            n = g.n
            pairs = n * (n - 1)
            mean = np.zeros(n)
            ab_sq = np.zeros(n)
            rk_sq = np.zeros(n)
            for s in range(n):
                _, dist, _ = bfs_level_counts(g, s)
                for z in range(n):
                    if z == s or dist[z] < 0:
                        continue
                    contrib = pab_sample(g, model, s, z)
                    mean[contrib.idx] += contrib.val / pairs
                    ab_sq[contrib.idx] += contrib.val * contrib.val / pairs
                    paths = enumerate_shortest_paths(g, dist, z)
                    for path in paths:
                        for v in path[1:-1]:
                            f = kappa(model, s, z, v)
                            rk_sq[v] += f * f / (pairs * len(paths))
            var_ab = ab_sq - mean ** 2
            var_rk = rk_sq - mean ** 2
            assert (var_ab <= var_rk + 1e-12).all()
            any_strict |= bool((var_rk - var_ab > 1e-9).any())
        assert any_strict


def test_criterion_7_guarantee(er1000, er1000_exact):
    with criterion(7, "max deviation within epsilon in at least 42 of 50 seeded runs"):
        graph, model = er1000
        p = er1000_exact.p
        cfg = ScheduleConfig(epsilon=0.05, delta=0.1)
        ok = 0
        for seed in range(50):
            report = estimate(graph, model, cfg, seed=seed)
            ok += np.abs(report.estimates - p).max() <= cfg.epsilon
        assert ok >= 42, f"only {ok}/50 runs within epsilon"


def test_accuracy_relative_to_the_scores():
    """Checks that scale with the scores, beside criterion 7. On the golden
    hub graph the largest score is 2.8e-6, so criterion 7's absolute bound
    holds for an estimator that returns zeros. The mass ratio
    sum(est) / sum(p) and the largest error over the largest score do
    not: over seeds 0-19 the estimator gives 0.889-1.174 and 0.066-0.269,
    while doubled estimates (mass 1.78-2.35, error 0.46-1.30), zeros (0,
    1.0) and estimates with the top tenth of vertices by p zeroed (mass
    0.22-0.37, error 1.0) fail on every seed. The two baselines meet the
    same thresholds and fail them under the same mutants: p-rk-fixed
    (1,061 samples, seeds 0-19) gives 0.915-1.056 and 0.042-0.262, the
    naive progressive one (24,064 samples, seeds 0-3) 0.996-1.000 and
    0.012-0.019; their mutants give mass 1.83-2.11, 0 and 0.23-0.31."""
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=9))
    exact = exact_all(graph, model)
    p = exact.p
    top = np.argsort(p)[-(graph.n // 10):]
    cfg = ScheduleConfig(epsilon=0.05, delta=0.1)
    assert p.max() <= cfg.epsilon       # zeros meet criterion 7's bound

    def accurate(est):
        mass = est.sum() / p.sum()
        return 0.8 <= mass <= 1.25 and np.abs(est - p).max() <= 0.4 * p.max()

    runs = [
        ("mcera", range(20), lambda seed: estimate(graph, model, cfg, seed=seed).estimates),
        ("p-rk-fixed", range(20), lambda seed: run_prk_fixed(
            graph, model, cfg, seed, exact.vertex_diameter)["estimates"]),
        ("p-ab-progressive-naive", range(4),
         lambda seed: run_pab_naive(graph, model, cfg, seed)["estimates"]),
    ]
    for name, seeds, run in runs:
        for seed in seeds:
            est = run(seed)
            assert accurate(est), (name, seed)
            hubs_dropped = est.copy()
            hubs_dropped[top] = 0.0
            for mutant in (2.0 * est, np.zeros_like(est), hubs_dropped):
                assert not accurate(mutant), (name, seed)


def test_top_k_overlap_with_the_exact_ranking():
    """A ranking check beside the relative one, on the same 400-vertex hub
    graph: of the exact top 20 vertices by p, at least 10 rank in the
    estimate's top 20, strictly above its 21st value so that ties count
    against it. Over seeds 0-19 mcera keeps 13-16 and p-rk-fixed 13-18
    (the naive baseline 18-19 over seeds 0-3). Zeros and estimates with
    the top tenth by p zeroed keep none. Doubled estimates keep the
    ranking, and so do path draws that pick their arc uniformly or always
    take a walker's first predecessor (13-16 over seeds 0-9): the ranking
    does not see them."""
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=9))
    exact = exact_all(graph, model)
    top = np.argsort(exact.p)[-20:]
    cfg = ScheduleConfig(epsilon=0.05, delta=0.1)

    def kept(est):
        return int((est[top] > np.sort(est)[-21]).sum())

    runs = [
        ("mcera", lambda seed: estimate(graph, model, cfg, seed=seed).estimates),
        ("p-rk-fixed", lambda seed: run_prk_fixed(
            graph, model, cfg, seed, exact.vertex_diameter)["estimates"]),
    ]
    for name, run in runs:
        for seed in range(10):
            est = run(seed)
            assert kept(est) >= 10, (name, seed, kept(est))
            hubs_dropped = est.copy()
            hubs_dropped[np.argsort(exact.p)[-(graph.n // 10):]] = 0.0
            assert kept(np.zeros_like(est)) == kept(hubs_dropped) == 0, (name, seed)


def test_criterion_8_sample_size_improvement(er1000, er1000_exact, smallworld5k):
    with criterion(8, "progressive sample size beats the vertex-diameter baseline"):
        er_graph, er_model = er1000
        sw_graph, sw_model = smallworld5k
        _, sw_diameter = exact_rho_and_diameter(sw_graph)
        cases = [
            (er_graph, er_model, er1000_exact.vertex_diameter),
            (sw_graph, sw_model, sw_diameter + 1),
        ]
        for graph, model, vd in cases:
            for eps in (0.05, 0.01):
                baseline = vd_baseline_sample_size(vd, eps, 0.1)
                for seed in range(3):
                    report = estimate(graph, model,
                                      ScheduleConfig(epsilon=eps, delta=0.1), seed=seed)
                    assert report.r_final < baseline, \
                        (graph.n, eps, seed, report.r_final, baseline)


def test_criterion_9_bound_formulas():
    with criterion(9, "deviation bound and sample-size formulas match worked values"):
        xi = eps_bound(0.0, 0.0, 0.25, t=1, c=25, r=100, delta=0.1)
        ell = math.log(40.0)
        expected = (4 * ell / 100
                    + math.sqrt(2 * ell * (0.25 + 8 * ell / 100) / 100)
                    + ell / 300)
        assert xi == pytest.approx(expected, abs=1e-6)
        assert xi == pytest.approx(0.36039, abs=1e-5)

        closed = sufficient_sample_size_closed_form(0.25, 3.97, 0.05, 0.1)
        expected_r = ((2 * 0.25 + 2 * 0.05 / 3) / 0.05 ** 2
                      * (math.log(2 * 3.97 / 0.25) + math.log(10.0)))
        assert closed == pytest.approx(expected_r, abs=1e-6)
        assert sufficient_sample_size(0.25, 3.97, 0.05, 0.1) == 1229


def test_criterion_10_determinism_and_formats(tmp_path):
    with criterion(10, "same-seed runs identical; emitted formats match goldens"):
        g = build(erdos_renyi_edges(60, 0.1, seed=3))
        model = PercolationModel(random_states(g.n, seed=4))
        cfg = ScheduleConfig(epsilon=0.1, delta=0.1)
        a = estimate(g, model, cfg, seed=11).as_dict()
        b = estimate(g, model, cfg, seed=11).as_dict()
        for key in list(a):
            if key.startswith("elapsed"):
                a.pop(key)
                b.pop(key)
        assert a == b

        from percolator.cli import AGG_COLUMNS, RAW_COLUMNS, main
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("0 1\n1 2\n")
        states_path = tmp_path / "s.txt"
        states_path.write_text("1.0\n0.5\n0.0\n")
        out = str(tmp_path / "exact.tsv")
        assert main(["exact", "--graph", str(graph_path), "--states",
                     str(states_path), "--output", out, "--threads", "1"]) == 0
        assert Path(out).read_bytes() == (DATA / "exact_path.tsv").read_bytes()
        produced = json.loads(Path(out + ".json").read_text())
        golden = json.loads((DATA / "exact_path.json").read_text())
        produced.pop("elapsed")
        golden.pop("elapsed")
        assert produced == golden
        assert ",".join(RAW_COLUMNS) == (DATA / "compare_header.csv").read_text().strip()
        assert ",".join(AGG_COLUMNS) == (DATA / "compare_agg_header.csv").read_text().strip()
