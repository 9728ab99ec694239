import hashlib
import math

import numpy as np
import pytest

from percolator import (PercolationModel, ScheduleConfig, estimate, random_states,
                        vd_baseline_sample_size)
from percolator.baselines import run_pab_naive, run_prk_fixed

from gen import build, cycle_edges
from test_rng import eps_met_runs


def test_prk_fixed_uses_baseline_sample_count(er1000, er1000_exact):
    graph, model = er1000
    report = run_prk_fixed(graph, model, ScheduleConfig(epsilon=0.1, delta=0.1), seed=0,
                           vertex_diameter=er1000_exact.vertex_diameter)
    assert report["r_final"] == vd_baseline_sample_size(
        er1000_exact.vertex_diameter, 0.1, 0.1)
    assert np.abs(report["estimates"] - er1000_exact.p).max() <= 0.1


def test_prk_fixed_computes_diameter_when_missing():
    g = build(cycle_edges(5))
    from percolator import PercolationModel, random_states
    model = PercolationModel(random_states(5, seed=1))
    report = run_prk_fixed(g, model, ScheduleConfig(epsilon=0.3, delta=0.2), seed=2)
    assert report["vertex_diameter"] == 3


def test_pab_naive_stops_and_is_labeled():
    g = build(cycle_edges(6))
    from percolator import PercolationModel, random_states
    model = PercolationModel(random_states(6, seed=3))
    report = run_pab_naive(g, model, ScheduleConfig(epsilon=0.3, delta=0.2), seed=4,
                           max_samples=50_000)
    assert report["algorithm"] == "p-ab-progressive-naive"
    assert report["stop_reason"] in ("eps-met", "ceiling-hit")
    assert report["r_final"] <= 50_000
    assert ((0.0 <= report["estimates"]) & (report["estimates"] <= 1.0)).all()


def test_progressive_beats_fixed_size_in_time_and_samples(er1000, er1000_exact):
    """Directional runtime check at a small epsilon on the shared graph."""
    graph, model = er1000
    eps = 0.01
    mcera_report = estimate(graph, model, ScheduleConfig(epsilon=eps, delta=0.1), seed=0)
    prk_report = run_prk_fixed(graph, model, ScheduleConfig(epsilon=eps, delta=0.1), seed=0,
                               vertex_diameter=er1000_exact.vertex_diameter)
    assert mcera_report.r_final < prk_report["r_final"]
    mcera_seconds = mcera_report.elapsed_bootstrap + mcera_report.elapsed_estimation
    assert mcera_seconds < prk_report["elapsed_estimation"]
    # both stay within the target accuracy
    assert np.abs(mcera_report.estimates - er1000_exact.p).max() <= eps
    assert np.abs(prk_report["estimates"] - er1000_exact.p).max() <= eps


@pytest.mark.parametrize("kwargs", [dict(epsilon=0.0), dict(epsilon=1.5), dict(delta=0.0),
                                    dict(delta=1.0), dict(mc_trials=0),
                                    dict(max_samples=0), dict(max_samples=-5)])
def test_pab_naive_checks_arguments_before_sampling(monkeypatch, kwargs):
    from percolator import PercolationModel, baselines, random_states
    real, calls = baselines.pab_sample, []

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)
    monkeypatch.setattr(baselines, "pab_sample", counted)
    g = build(cycle_edges(6))
    model = PercolationModel(random_states(6, seed=3))
    args = dict(epsilon=0.3, delta=0.2)
    run_pab_naive(g, model, ScheduleConfig(**args), seed=4, max_samples=64)
    assert calls
    calls.clear()
    cap = kwargs.get("max_samples", 64)
    bad = {k: v for k, v in kwargs.items() if k != "max_samples"}
    with pytest.raises(ValueError, match="max_samples" if cap < 1 else None):
        run_pab_naive(g, model, ScheduleConfig(**{**args, **bad}), seed=4, max_samples=cap)
    assert calls == []


# (r_final, xi_final, estimates digest) of ``eps_met_runs`` at seed 0, taken
# from the baseline when it evaluated its bound on every iteration
NAIVE_EPS_MET = [(3072, 0.14836888113347885, "144e25ae2f72aa1c"),
                 (12288, 0.07819916383035308, "f4abcd4a58d6970d"),
                 (1536, 0.17475715096042027, "4f074aa3c6595611"),
                 (6144, 0.09054965808035513, "b741eac63f6e97ea")]


def test_pab_naive_evaluates_only_where_it_could_stop(monkeypatch):
    """The naive bound is xi = 2 * era + floor with era >= 0, so below the cap
    an iteration whose floor 3 * sqrt(ln(8 / delta_i) / (2r)) exceeds epsilon
    cannot stop. Only the others evaluate, and the reports keep their bits."""
    from percolator import baselines, bounds
    calls = []

    def counted(state, class_of, sizes):
        calls.append(state.r)
        return bounds.mcera(state, class_of, sizes)
    monkeypatch.setattr(baselines, "mcera", counted)
    cap = 1 << 20
    for (graph, model, eps), pinned in zip(eps_met_runs(), NAIVE_EPS_MET):
        config = ScheduleConfig(epsilon=eps, delta=0.1)
        calls.clear()
        out = run_pab_naive(graph, model, config, seed=0, max_samples=cap)
        digest = hashlib.sha256(out["estimates"].tobytes()).hexdigest()[:16]
        assert (out["r_final"], out["xi_final"], digest) == pinned
        assert out["stop_reason"] == "eps-met"
        targets = [min(config.first_target << k, cap) for k in range(out["iterations"])]
        for r in calls:
            i = targets.index(r) + 1
            floor = 3.0 * math.sqrt(math.log(8.0 / config.delta_iter(i)) / (2.0 * r))
            assert floor <= eps or r == cap
        assert calls[-1] == out["r_final"] == targets[-1]
        assert len(calls) < out["iterations"]


@pytest.mark.parametrize("n, kwargs", [(6, dict(epsilon=0.0)), (6, dict(epsilon=1.5)),
                                       (6, dict(delta=0.0)), (6, dict(delta=1.0)), (7, {})])
def test_prk_fixed_checks_arguments_before_the_exact_pass(monkeypatch, n, kwargs):
    """Bad arguments, or a model of another size, fail before the O(n*m)
    vertex-diameter pass runs."""
    from percolator import baselines
    real, calls = baselines.exact_vertex_diameter, []

    def counted(graph, pool=None):
        calls.append(graph.n)
        return real(graph, pool=pool)
    monkeypatch.setattr(baselines, "exact_vertex_diameter", counted)
    g = build(cycle_edges(6))
    args = dict(epsilon=0.3, delta=0.2)
    run_prk_fixed(g, PercolationModel(random_states(6, seed=3)), ScheduleConfig(**args), seed=4)
    assert calls == [6]
    calls.clear()
    with pytest.raises(ValueError):
        run_prk_fixed(g, PercolationModel(random_states(n, seed=3)),
                      ScheduleConfig(**{**args, **kwargs}), seed=4)
    assert calls == []


@pytest.mark.parametrize("n", [5, 7])
def test_pab_naive_rejects_a_model_of_another_size(n):
    g = build(cycle_edges(6))
    with pytest.raises(ValueError, match="vertex count"):
        run_pab_naive(g, PercolationModel(random_states(n, seed=3)),
                      ScheduleConfig(epsilon=0.3, delta=0.2), seed=4, max_samples=64)
