import numpy as np
import pytest

from percolator import ScheduleConfig, estimate, vd_baseline_sample_size
from percolator.baselines import run_pab_naive, run_prk_fixed

from gen import build, cycle_edges


def test_prk_fixed_uses_baseline_sample_count(er1000, er1000_exact):
    graph, model = er1000
    report = run_prk_fixed(graph, model, epsilon=0.1, delta=0.1, seed=0,
                           vertex_diameter=er1000_exact.vertex_diameter)
    assert report["r_final"] == vd_baseline_sample_size(
        er1000_exact.vertex_diameter, 0.1, 0.1)
    assert np.abs(report["estimates"] - er1000_exact.p).max() <= 0.1


def test_prk_fixed_computes_diameter_when_missing():
    g = build(cycle_edges(5))
    from percolator import PercolationModel, random_states
    model = PercolationModel(random_states(5, seed=1))
    report = run_prk_fixed(g, model, epsilon=0.3, delta=0.2, seed=2)
    assert report["vertex_diameter"] == 3


def test_pab_naive_stops_and_is_labeled():
    g = build(cycle_edges(6))
    from percolator import PercolationModel, random_states
    model = PercolationModel(random_states(6, seed=3))
    report = run_pab_naive(g, model, epsilon=0.3, delta=0.2, seed=4,
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
    prk_report = run_prk_fixed(graph, model, epsilon=eps, delta=0.1, seed=0,
                               vertex_diameter=er1000_exact.vertex_diameter)
    assert mcera_report.r_final < prk_report["r_final"]
    mcera_seconds = mcera_report.elapsed_bootstrap + mcera_report.elapsed_estimation
    assert mcera_seconds < prk_report["elapsed_estimation"]
    # both stay within the target accuracy
    assert np.abs(mcera_report.estimates - er1000_exact.p).max() <= eps
    assert np.abs(prk_report["estimates"] - er1000_exact.p).max() <= eps


@pytest.mark.parametrize("kwargs", [dict(epsilon=0.0), dict(epsilon=1.5), dict(delta=0.0),
                                    dict(delta=1.0), dict(mc_trials=0)])
def test_pab_naive_checks_arguments_before_sampling(monkeypatch, kwargs):
    from percolator import PercolationModel, baselines, random_states
    real, calls = baselines.pab_sample, []

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)
    monkeypatch.setattr(baselines, "pab_sample", counted)
    g = build(cycle_edges(6))
    model = PercolationModel(random_states(6, seed=3))
    args = dict(epsilon=0.3, delta=0.2, seed=4, max_samples=64)
    run_pab_naive(g, model, **args)
    assert calls
    calls.clear()
    with pytest.raises(ValueError):
        run_pab_naive(g, model, **{**args, **kwargs})
    assert calls == []
