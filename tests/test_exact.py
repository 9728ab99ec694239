import argparse

import numpy as np
import pytest

from percolator import (BfsWorkspace, PercolationModel, ScheduleConfig, estimate, exact_all,
                        exact_vertex_diameter, random_states)
from percolator import baselines, cli, exact
from percolator.workers import open_pool

import oracle_exact
from oracle_exact import PathExplosionError, brute_force_percolation, exact_rho_and_diameter
from gen import (build, chung_lu_edges, complete_edges, cycle_edges, erdos_renyi_edges,
                 layered_edges, newman_watts_edges, path_edges, reversed_graph, star_edges)


def test_path_graph_hand_case():
    g = build(path_edges(3))
    m = PercolationModel([1.0, 0.5, 0.0])
    res = exact_all(g, m)
    assert res.p == pytest.approx([0.0, 1 / 6, 0.0], abs=1e-12)
    assert res.b == pytest.approx([0.0, 1 / 3, 0.0], abs=1e-12)
    assert res.rho == pytest.approx(1 / 3, abs=1e-12)
    assert res.diameter == 2 and res.vertex_diameter == 3


def test_equal_states_make_everything_zero():
    g = build(cycle_edges(5))
    m = PercolationModel([0.4] * 5)
    p = exact_all(g, m).p
    assert (p == 0.0).all()


def test_star_center_formula():
    g = build(star_edges(3))  # center is vertex 0
    m = PercolationModel([0.2, 0.9, 0.5, 0.1])
    res = exact_all(g, m)
    leafs = [1, 2, 3]
    assert res.p[leafs] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    expected = sum(m.pair_weight(s, z) for s in leafs for z in leafs if s != z)
    expected /= 12 * m.minus_s[0]
    assert res.p[0] == pytest.approx(expected, abs=1e-12)


def test_betweenness_standalone_matches_combined():
    g = build(path_edges(3))
    b = exact_all(g, PercolationModel([1.0, 0.5, 0.0])).b
    assert b == pytest.approx([0.0, 1 / 3, 0.0], abs=1e-12)
    g2 = build(erdos_renyi_edges(30, 0.15, seed=13))
    combined = exact_all(g2, PercolationModel(random_states(g2.n, seed=14)))
    # the reference sweep with percolation off
    standalone = sum(oracle_exact._source_sweep(g2, None, s, False, True)[1]
                     for s in range(g2.n)) / (g2.n * (g2.n - 1))
    assert np.abs(standalone - combined.b).max() < 1e-12


def test_complete_graph_rho_zero():
    g = build(complete_edges(4))
    rho, diameter = exact_rho_and_diameter(g)
    assert rho == 0.0 and diameter == 1


@pytest.mark.parametrize("graph", [
    build(erdos_renyi_edges(40, 0.08, seed=15, directed=True), directed=True),
    build(erdos_renyi_edges(30, 0.12, seed=8)
          + [(u + 100, v + 100) for u, v in erdos_renyi_edges(25, 0.15, seed=9)]),
    build(chung_lu_edges(200, 4, 2.3, seed=22)),
    build(newman_watts_edges(120, 4, 0.05, seed=23)),
    build(layered_edges([1, 3, 2, 4, 1, 2, 1])),
    # a 1,000-leaf star beside a 50-vertex path: the small component decides
    build([(0, i) for i in range(1, 1001)] + [(i, i + 1) for i in range(1001, 1050)]),
    # only the last vertex reaches every other one
    reversed_graph(build(path_edges(6), directed=True)),
], ids=["directed", "two-components", "chung-lu", "newman-watts", "layered", "star-and-path",
        "reversed-path"])
def test_rho_and_diameter_pass_matches_sweep(graph):
    model = PercolationModel(random_states(graph.n, seed=16))
    res = exact_all(graph, model)
    assert exact_rho_and_diameter(graph) == (res.rho, res.diameter)
    assert exact_vertex_diameter(graph) == res.vertex_diameter
    # the percolation-only pass, serially and in a pool, leaves the rest as it was
    for threads in (1, 2):
        with open_pool(graph, model, threads) as pool:
            alone = exact_all(graph, model, pool=pool, betweenness=False)
        assert alone.b is None
        assert alone.p.tobytes() == res.p.tobytes()
        assert (alone.rho, alone.diameter, alone.vertex_diameter, alone.all_states_equal) == \
            (res.rho, res.diameter, res.vertex_diameter, res.all_states_equal)


def test_single_edge_no_internal():
    g = build([(0, 1)])
    m = PercolationModel([1.0, 0.0])
    assert (brute_force_percolation(g, m) == 0.0).all()


def test_brute_force_agrees_with_exact_small_batch():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(5, 20))
        directed = trial % 2 == 1
        g = build(erdos_renyi_edges(n, 3.0 / n, seed=100 + trial, directed=directed),
                  directed=directed)
        m = PercolationModel(random_states(g.n, seed=trial))
        assert np.abs(exact_all(g, m).p - brute_force_percolation(g, m)).max() < 1e-9


def test_centrality_sum_chain_on_four_cycle():
    g = build(cycle_edges(4))
    m = PercolationModel([1.0, 0.6, 0.2, 0.0])
    res = exact_all(g, m)
    bf = brute_force_percolation(g, m)
    assert np.abs(res.p - bf).max() < 1e-9
    assert res.p.sum() <= res.b.sum() + 1e-9
    assert res.b.sum() <= res.rho + 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    edges = erdos_renyi_edges(12, 0.3, seed=2)
    by_label = random_states(12, seed=9)
    g1 = build(edges)
    states1 = np.array([by_label[int(lab)] for lab in g1.orig_ids])
    p1 = exact_all(g1, PercolationModel(states1)).p
    perm = rng.permutation(12)
    g2 = build([(int(perm[u]), int(perm[v])) for u, v in edges])
    dense2 = {int(o): i for i, o in enumerate(g2.orig_ids)}
    states2 = np.empty(g2.n)
    p1_mapped = np.empty(g2.n)
    for v in range(g1.n):
        lab = int(g1.orig_ids[v])
        w = dense2[int(perm[lab])]
        states2[w] = by_label[lab]
        p1_mapped[w] = p1[v]
    p2 = exact_all(g2, PercolationModel(states2)).p
    assert np.abs(p2 - p1_mapped).max() < 1e-12


def test_reversed_graph_swaps_endpoint_roles():
    # reversing arcs while flipping states (1 - x) preserves percolation
    for seed in range(5):
        g = build(erdos_renyi_edges(10, 0.25, seed=seed, directed=True), directed=True)
        x = random_states(g.n, seed=50 + seed)
        p_fwd = exact_all(g, PercolationModel(x)).p
        p_rev = exact_all(reversed_graph(g), PercolationModel(1.0 - x)).p
        assert np.abs(p_fwd - p_rev).max() < 1e-12
        bf = brute_force_percolation(reversed_graph(g), PercolationModel(1.0 - x))
        assert np.abs(p_fwd - bf).max() < 1e-9


def test_disconnected_pairs_contribute_zero():
    g = build([(0, 1), (2, 3)])
    m = PercolationModel([1.0, 0.8, 0.3, 0.0])
    res = exact_all(g, m)
    assert (res.p == 0.0).all()
    assert res.rho == 0.0
    assert res.diameter == 1


def test_source_sweep_overflow_detected():
    """Past 2^1024 paths sigma is inf and every dependency ratio NaN."""
    g = build(layered_edges([1] + [2] * 1100 + [1]))
    with pytest.raises(OverflowError, match="overflowed float64"):
        exact._source_sweep(g, random_states(g.n, seed=1), 0, BfsWorkspace(g.n))


def test_path_explosion_guard():
    g = build(layered_edges([1, 2, 2, 2, 2, 2, 2, 1]))
    m = PercolationModel(random_states(g.n, seed=1))
    with pytest.raises(PathExplosionError):
        brute_force_percolation(g, m, path_cap=10)


def test_parallel_bit_identical_to_serial():
    # fixed-size source blocks make the reduction independent of the workers
    g = build(erdos_renyi_edges(600, 0.02, seed=4))
    m = PercolationModel(random_states(g.n, seed=5))
    one = exact_all(g, m)
    with open_pool(g, m, 2) as pool:
        two = exact_all(g, m, pool=pool)
    assert (one.p == two.p).all()
    assert (one.b == two.b).all()
    assert one.rho == two.rho and one.diameter == two.diameter


def test_blocks_fold_in_source_order():
    # sources summed in order within fixed-size blocks, then the blocks in
    # order; three blocks, so any other order shows in the bits
    g = build(erdos_renyi_edges(600, 0.02, seed=4))
    m = PercolationModel(random_states(g.n, seed=5))
    acc_p, acc_b = np.zeros(g.n), np.zeros(g.n)
    for start in range(0, g.n, exact._BLOCK):
        block_p, block_b = np.zeros(g.n), np.zeros(g.n)
        for s in range(start, min(start + exact._BLOCK, g.n)):
            dp, db, _, _ = oracle_exact._source_sweep(g, m.x, s, True, True)
            block_p += dp
            block_b += db
        acc_p += block_p
        acc_b += block_b
    pairs = g.n * (g.n - 1)
    safe = np.where(m.minus_s > 0.0, m.minus_s, 1.0)
    p = np.where(m.minus_s > 0.0, acc_p / (pairs * safe), 0.0)
    for threads in (1, 2):
        with open_pool(g, m, threads) as pool:
            res = exact_all(g, m, pool=pool)
        assert np.array_equal(res.p, p) and np.array_equal(res.b, acc_b / pairs)


@pytest.fixture(scope="module")
def two_blocks():
    """Enough sources for two 256-source blocks, so a pool of two gets one each."""
    g = build(erdos_renyi_edges(300, 0.03, seed=6))
    m = PercolationModel(random_states(g.n, seed=7))
    return g, m, exact_all(g, m)


@pytest.mark.parametrize("threads", [None, 0, 1, 2])
def test_every_entry_point_takes_any_thread_count(two_blocks, monkeypatch, threads):
    """Every ``--threads`` value (None: all usable CPUs, here two; 0 and 1:
    one process) opens the pool that gives the one-process bits."""
    g, m, serial = two_blocks
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    with open_pool(g, m, cli._threads(argparse.Namespace(threads=threads))) as pool:
        res = exact_all(g, m, pool=pool)
        vertex_diameter = exact_vertex_diameter(g, pool=pool)
    assert np.array_equal(res.p, serial.p) and np.array_equal(res.b, serial.b)
    assert (res.rho, res.diameter) == (serial.rho, serial.diameter)
    assert exact_rho_and_diameter(g) == (serial.rho, serial.diameter)
    assert vertex_diameter == serial.vertex_diameter


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("run", [
    pytest.param(lambda g, m, cfg, pool: estimate(g, m, cfg, seed=1, pool=pool), id="estimate"),
    pytest.param(lambda g, m, cfg, pool: baselines.run_prk_fixed(g, m, cfg, seed=1, pool=pool),
                 id="run_prk_fixed"),
    pytest.param(lambda g, m, cfg, pool: baselines.run_pab_naive(g, m, cfg, seed=1, pool=pool),
                 id="run_pab_naive"),
    pytest.param(lambda g, m, cfg, pool: exact_all(g, m, pool=pool), id="exact_all"),
])
def test_every_entry_point_refuses_a_model_one_vertex_short(monkeypatch, run, threads):
    """The size check, made once where every sampler and exact job is
    bound, refuses the model before any search runs, in one process and in
    a pool's workers alike: a search would fail on the patched reset."""
    def searched(ws):
        raise AssertionError("a search ran before the size check")

    monkeypatch.setattr(BfsWorkspace, "reset", searched)
    g = build(cycle_edges(8))
    m = PercolationModel(random_states(g.n - 1, seed=3))
    with open_pool(g, m, threads) as pool:
        with pytest.raises(ValueError, match="^model and graph disagree on vertex count$"):
            run(g, m, ScheduleConfig(epsilon=0.3, delta=0.2), pool)


CONFIG = ScheduleConfig(epsilon=0.1, delta=0.1)
SOLVERS = {
    "estimate": lambda g, m, pool: estimate(g, m, CONFIG, seed=0, pool=pool),
    "exact_all": lambda g, m, pool: exact_all(g, m, pool=pool),
    "exact_vertex_diameter": lambda g, m, pool: exact_vertex_diameter(g, pool=pool),
    "run_prk_fixed": lambda g, m, pool: baselines.run_prk_fixed(g, m, CONFIG, seed=0,
                                                                vertex_diameter=3, pool=pool),
    "run_pab_naive": lambda g, m, pool: baselines.run_pab_naive(g, m, CONFIG, seed=0, pool=pool),
}


@pytest.mark.parametrize("solver", SOLVERS)
def test_a_pool_serves_only_the_graph_it_was_opened_for(solver, monkeypatch):
    """Workers hold the graph and model their pool was opened for, so a
    solver handed a pool opened for another graph of the same size, or
    for the same graph with other states, refuses before any job is sent
    rather than answer for the other graph (a 600-cycle has vertex
    diameter 301, the chords i -> 7i + 3 mod 600 give 3)."""
    cycle = build(cycle_edges(600))
    chords = build([(i, (7 * i + 3) % 600) for i in range(600)])
    assert chords.n == 600 and exact_vertex_diameter(chords) == 3
    states = PercolationModel(random_states(600, seed=1))
    other_states = PercolationModel(random_states(600, seed=2))
    opened_for = [(cycle, states)] + [(chords, other_states)] * (solver != "exact_vertex_diameter")
    for graph, model in opened_for:
        with open_pool(graph, model, 2) as pool:
            submitted = []
            monkeypatch.setattr(pool, "submit", lambda *args: submitted.append(args))
            with pytest.raises(ValueError, match="another graph or model"):
                SOLVERS[solver](chords, states, pool)
            assert submitted == []
