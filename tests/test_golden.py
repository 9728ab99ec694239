"""Same-seed goldens: digests of whole reports on a small heavy-tailed graph.

The digests were computed with the per-neighbour path walk and the
n-sized per-sample BFS arrays that the workspace-based sampler replaced,
and (the pair-sample and exact ones) with the two-pass source sweep and
dict-based pair sample that the one-pass shortest-path DAG replaced; a
rewrite of the sampler or the exact engine must reproduce them bit for bit.
"""

import hashlib
import json

import pytest

from percolator import PercolationModel, ScheduleConfig, estimate, exact_all, random_states
from percolator.baselines import run_pab_naive, run_prk_fixed
from percolator.workers import open_pool

from gen import build, chung_lu_edges


def digest(report: dict) -> str:
    fields = {k: (v.tolist() if hasattr(v, "tolist") else v)
              for k, v in report.items() if not k.startswith("elapsed")}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def hub_graph():
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    return graph, PercolationModel(random_states(graph.n, seed=9))


def test_estimate_report_digest():
    graph, model = hub_graph()
    report = estimate(graph, model, ScheduleConfig(epsilon=0.05, delta=0.1), seed=3)
    assert report.r_final == 395
    assert digest(report.as_dict()) == (
        "2102f4515d18be04c966a28fc71fcb88fb94ffb113fcee7a9f6940b1de454a21")


def test_prk_fixed_report_digest():
    graph, model = hub_graph()
    out = run_prk_fixed(graph, model, ScheduleConfig(0.05, 0.1), seed=3)
    assert out["r_final"] == 1061
    assert digest(out) == (
        "64ea27d1d101e7bd3a2c646f16296bf87b67b36a1904cc7e54d0e1b008db892b")


def test_pab_naive_report_digest():
    graph, model = hub_graph()
    out = run_pab_naive(graph, model, ScheduleConfig(0.05, 0.1), seed=3, max_samples=4096)
    assert out["r_final"] == 4096
    assert digest(out) == (
        "f7d8db5e2d69c47a7b6f1808c6501ca335f6475595360b2d41a170d59d690022")


def test_exact_all_digest():
    graph, model = hub_graph()
    assert digest(vars(exact_all(graph, model))) == (
        "839c916229292384ba9c253b8e7aa02d66c60a661f3d7db70f072a03c4baedfd")


@pytest.mark.parametrize("threads", [2, 3])
def test_pooled_samplers_report_what_one_process_reports(threads):
    """Drawn in a pool, every estimator's report is the one-process report,
    timings apart. Blocks of samples smaller than a pool job (the bootstrap,
    47 samples) and spanning several (the naive baseline's steps of 94 and
    more) both occur."""
    graph, model = hub_graph()
    config = ScheduleConfig(epsilon=0.05, delta=0.1)
    runs = (lambda pool: estimate(graph, model, config, seed=3, pool=pool).as_dict(),
            lambda pool: run_prk_fixed(graph, model, config, seed=3, pool=pool),
            lambda pool: run_pab_naive(graph, model, config, seed=3, max_samples=4096,
                                       pool=pool))
    serial = [digest(run(None)) for run in runs]
    with open_pool(graph, model, threads) as pool:
        pooled = [digest(run(pool)) for run in runs]
    assert pooled == serial
