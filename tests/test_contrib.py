"""Array-backed contributions against the dict bodies they replaced, bit for bit."""

import math

import numpy as np
import pytest

from percolator import (BfsWorkspace, Contribution, McEraState, PercolationModel,
                        bag_estimate, balanced_bidirectional_bfs, pab_sample,
                        prk_sample, random_states, sample_pair, sample_paths)
from percolator.rng import derive_rng
from percolator.sampling import NO_CONTRIBUTION, PathBag

import oracle_contrib
import oracle_exact
import oracle_mcera
from gen import build, chung_lu_edges, erdos_renyi_edges

GRAPHS = {
    "er": build(erdos_renyi_edges(60, 0.08, seed=3)),
    "hubs": build(chung_lu_edges(150, 5, 2.3, seed=5)),
    "directed": build(erdos_renyi_edges(60, 0.07, seed=4, directed=True), directed=True),
}


@pytest.fixture(params=list(GRAPHS), scope="module")
def case(request):
    graph = GRAPHS[request.param]
    return graph, PercolationModel(random_states(graph.n, seed=8))


def assert_same(contrib, want: dict) -> None:
    """``contrib`` is a well-formed Contribution equal to the oracle dict,
    key for key and bit for bit."""
    assert isinstance(contrib, Contribution)
    assert contrib.idx.dtype == np.int64 and contrib.val.dtype == np.float64
    assert contrib.idx.shape == contrib.val.shape == (len(contrib),)
    assert np.sort(contrib.idx).tolist() == sorted(set(contrib.idx.tolist()))   # no repeats
    assert len(contrib) == np.count_nonzero(contrib.val)
    assert bool(contrib) == bool(want)
    got = oracle_contrib.as_dict(contrib)
    assert sorted(got) == sorted(want)
    keys = sorted(want)
    assert (np.array([got[v] for v in keys]).view(np.int64).tolist()
            == np.array([want[v] for v in keys]).view(np.int64).tolist())


def bag_stream(graph, model, count, seed):
    """Bags of seeded connected pairs, ln(10) paths per shortest path, so
    internal vertices repeat across the paths of one bag."""
    ws = BfsWorkspace(graph.n)
    for i in range(count):
        rng = derive_rng(seed, 0, i)
        s, z = sample_pair(graph.n, rng)
        meet = balanced_bidirectional_bfs(graph, s, z, ws)
        if meet.connected:
            yield sample_paths(meet, math.log(10), rng)


def test_contribution_length_and_truth():
    assert len(NO_CONTRIBUTION) == 0 and not NO_CONTRIBUTION
    three = Contribution(np.array([4, 0, 7]), np.array([0.5, 0.25, 1.0]))
    assert len(three) == 3 and three      # a plain (idx, val) tuple has length 2


def test_bag_estimate_matches_dict_oracle(case):
    graph, model = case
    repeated = 0
    for bag in bag_stream(graph, model, 400, seed=1):
        assert_same(bag_estimate(bag, model), oracle_contrib.bag_estimate(bag, model))
        hits = [v for path in bag.paths for v in path[1:-1]]
        repeated += len(hits) > len(set(hits))
    assert repeated > 20
    empty = PathBag(s=0, z=1, paths=np.empty((0, 2), dtype=np.int64), requested=0)
    assert_same(bag_estimate(empty, model), oracle_contrib.bag_estimate(empty, model))


def test_prk_sample_matches_dict_oracle(case):
    graph, model = case
    ws = BfsWorkspace(graph.n)
    rng, oracle_rng = np.random.default_rng(2), np.random.default_rng(2)
    nonempty = 0
    for _ in range(600):
        got = prk_sample(graph, model, rng, ws)
        assert_same(got, oracle_contrib.prk_sample(graph, model, oracle_rng))
        nonempty += bool(got)
    assert nonempty > 50
    assert rng.random() == oracle_rng.random()        # the same draws were made


def test_pab_sample_matches_dict_oracle(case):
    graph, model = case
    rng = np.random.default_rng(3)
    for _ in range(300):
        s, z = sample_pair(graph.n, rng)
        assert_same(pab_sample(graph, model, s, z), oracle_exact.pab_sample(graph, model, s, z))


def test_fold_matches_per_vertex_loop(case):
    """One seeded stream folded as estimate folds it: fancy-index updates on
    one side, the old per-vertex loop over the oracle's dicts on the other.
    The state's tallies total the bags' internal lengths and cap flags."""
    graph, model = case
    state = McEraState(n=graph.n, c=25, seed=4)
    oracle = oracle_mcera.McEraState(n=graph.n, c=25, seed=4)
    oracle_sum_f = np.zeros(graph.n)
    bags = list(bag_stream(graph, model, 300, seed=5))
    signs = state.signs_for_block(len(bags))
    for bag, row in zip(bags, signs):
        contrib = bag_estimate(bag, model)
        state.add_sample(contrib, row)
        want = oracle_contrib.bag_estimate(bag, model)
        for v, f in want.items():
            oracle_sum_f[v] += f
        oracle_contrib.add_sample(oracle, want, row)
    assert state.r == oracle.r == len(bags)
    assert state.internal == sum(len(bag.paths[0]) - 2 for bag in bags)
    assert state.capped == sum(bag.capped for bag in bags)
    assert np.count_nonzero(state.sq_sums) > graph.n // 4
    signed, sq = oracle_mcera.dense_sums(state)
    for a, b in ((state.dense(state.sums), oracle_sum_f), (signed, oracle.signed_sums),
                 (sq, oracle.sq_sums)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
