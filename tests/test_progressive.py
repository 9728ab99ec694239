import math

import numpy as np
import pytest

from percolator import (PercolationModel, ScheduleConfig, bounds, estimate,
                        exact_all, progressive, random_states,
                        stopping_condition)

from gen import build, chung_lu_edges, cycle_edges, erdos_renyi_edges, path_edges


def strip_timing(report_dict):
    return {k: v for k, v in report_dict.items()
            if not k.startswith("elapsed")}


def test_stopping_condition_cases():
    assert stopping_condition(0.05, [0.04, 0.03], ceiling=100, r_i=50)
    assert not stopping_condition(0.05, [0.04, 0.06], ceiling=100, r_i=50)
    assert stopping_condition(0.05, [0.9, 0.9], ceiling=100, r_i=100)


def test_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError):
        ScheduleConfig(epsilon=0.1, delta=1.0)
    with pytest.raises(ValueError):
        ScheduleConfig(epsilon=0.1, delta=0.1, mc_trials=0)
    with pytest.raises(ValueError):
        ScheduleConfig(epsilon=0.1, delta=0.1, beta=1.5)


def test_config_fixes_geom_ratio_and_keeps_report_keys():
    with pytest.raises(TypeError):
        ScheduleConfig(epsilon=0.1, delta=0.1, geom_ratio=2.0)
    cfg = ScheduleConfig(epsilon=0.1, delta=0.2, mc_trials=7, beta=0.3, bag_cap=9)
    assert cfg.as_dict() == {"epsilon": 0.1, "delta": 0.2, "mc_trials": 7, "beta": 0.3,
                             "geom_ratio": 1.2, "bag_cap": 9}
    assert list(cfg.as_dict()) == ["epsilon", "delta", "mc_trials", "beta",
                                   "geom_ratio", "bag_cap"]


def test_config_derived_quantities():
    cfg = ScheduleConfig(epsilon=0.05, delta=0.1)
    assert cfg.bootstrap_size == math.ceil(math.log(10) / 0.05)
    assert cfg.alpha == pytest.approx(math.log(10))
    total = sum(cfg.delta_iter(i) for i in range(1, 200))
    assert total <= cfg.delta / 2 + 1e-12


def test_small_graph_rejected():
    g = build([(0, 1)])
    m = PercolationModel([1.0, 0.0])
    with pytest.raises(ValueError):
        estimate(g, m, ScheduleConfig(epsilon=0.1, delta=0.1), seed=0)


def test_all_equal_states_estimate_zero():
    g = build(cycle_edges(5))
    m = PercolationModel([0.7] * 5)
    report = estimate(g, m, ScheduleConfig(epsilon=0.1, delta=0.1), seed=1)
    assert (report.estimates == 0.0).all()
    assert report.all_states_equal
    assert report.stop_reason in ("eps-met", "ceiling-hit")


def test_estimates_bounded_and_report_consistent():
    g = build(erdos_renyi_edges(40, 0.15, seed=2))
    m = PercolationModel(random_states(g.n, seed=3))
    cfg = ScheduleConfig(epsilon=0.1, delta=0.1)
    report = estimate(g, m, cfg, seed=4)
    assert ((0.0 <= report.estimates) & (report.estimates <= 1.0)).all()
    assert report.r_final <= report.ceiling
    if report.stop_reason == "ceiling-hit":
        assert report.r_final == report.ceiling
    else:
        assert (report.xi_per_class <= cfg.epsilon).all()
    max_iters = math.log(report.ceiling / cfg.first_target) / math.log(cfg.geom_ratio) + 2
    assert report.iterations <= max_iters
    assert report.config == cfg.as_dict()


def test_deterministic_given_seed():
    g = build(erdos_renyi_edges(30, 0.2, seed=5))
    m = PercolationModel(random_states(g.n, seed=6))
    cfg = ScheduleConfig(epsilon=0.1, delta=0.1)
    a = estimate(g, m, cfg, seed=9).as_dict()
    b = estimate(g, m, cfg, seed=9).as_dict()
    assert strip_timing(a) == strip_timing(b)
    c = estimate(g, m, cfg, seed=10).as_dict()
    assert c["estimates"] != a["estimates"]


def test_guarantee_on_path_graph():
    g = build(path_edges(3))
    m = PercolationModel([1.0, 0.5, 0.0])
    p = exact_all(g, m).p
    cfg = ScheduleConfig(epsilon=0.05, delta=0.1)
    ok = 0
    runs = 50
    for seed in range(runs):
        report = estimate(g, m, cfg, seed=seed)
        ok += np.abs(report.estimates - p).max() <= cfg.epsilon
    assert ok >= runs * 0.9 - 3 * math.sqrt(runs * 0.1 * 0.9)


def test_directed_graph_accuracy():
    g = build(erdos_renyi_edges(100, 0.05, seed=21, directed=True), directed=True)
    m = PercolationModel(random_states(g.n, seed=22))
    p = exact_all(g, m).p
    for seed in range(3):
        report = estimate(g, m, ScheduleConfig(epsilon=0.1, delta=0.1), seed=seed)
        assert np.abs(report.estimates - p).max() <= 0.1


def test_rho_substitution_flag():
    # star with leaves only ever sampled: internal lengths can be zero when
    # every sampled pair is adjacent; use a 3-vertex path where (0,1),(1,0),
    # (1,2),(2,1) dominate -> rho can still be positive, so force the
    # degenerate case with a triangle (all distances 1)
    g = build([(0, 1), (1, 2), (0, 2)])
    m = PercolationModel([1.0, 0.5, 0.0])
    report = estimate(g, m, ScheduleConfig(epsilon=0.2, delta=0.2), seed=0)
    assert report.rho_substituted
    assert report.rho_estimate == pytest.approx(1.0 / 6.0)


def run_counting_mcera(monkeypatch, graph, model, config, seed, skip=True):
    """``estimate``'s report dict without timings, and its number of
    ``mcera`` calls; ``skip=False`` disables the floor skip by making
    ``xi_floor`` return -inf, so every iteration evaluates every class."""
    calls = []

    def counted(state, members):
        calls.append(state.r)
        return bounds.mcera(state, members)

    with monkeypatch.context() as patch:
        patch.setattr(progressive, "mcera", counted)
        if not skip:
            patch.setattr(progressive, "xi_floor", lambda t, r, delta: -math.inf)
        report = estimate(graph, model, config, seed=seed)
    return strip_timing(report.as_dict()), len(calls)


def test_floor_skip_keeps_the_golden_report(monkeypatch):
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=9))
    cfg = ScheduleConfig(epsilon=0.05, delta=0.1)
    skipped, calls = run_counting_mcera(monkeypatch, graph, model, cfg, seed=3)
    full, full_calls = run_counting_mcera(monkeypatch, graph, model, cfg, seed=3, skip=False)
    assert skipped == full
    assert skipped["stop_reason"] == "ceiling-hit" and skipped["iterations"] > 1
    # a ceiling-hit run evaluates each occupied class once, at the ceiling
    occupied = np.count_nonzero(skipped["xi_per_class"])
    assert calls == occupied
    assert full_calls == occupied * skipped["iterations"]


@pytest.mark.parametrize("eps", [0.2, 0.1])
@pytest.mark.parametrize("name", ["path3", "cycle5"])
def test_floor_skip_keeps_eps_met_reports(monkeypatch, name, eps):
    """With the ceiling lifted to 2^16 these runs end eps-met, so both the
    skipped and the evaluated branch run; the reports must not move."""
    if name == "path3":
        graph, model = build(path_edges(3)), PercolationModel([1.0, 0.5, 0.0])
    else:
        graph, model = build(cycle_edges(5)), PercolationModel(random_states(5, seed=1))
    monkeypatch.setattr(progressive, "sufficient_sample_size", lambda *args: 1 << 16)
    cfg = ScheduleConfig(epsilon=eps, delta=0.1)
    for seed in range(2):
        skipped, calls = run_counting_mcera(monkeypatch, graph, model, cfg, seed)
        full, full_calls = run_counting_mcera(monkeypatch, graph, model, cfg, seed, skip=False)
        assert skipped == full
        assert skipped["stop_reason"] == "eps-met"
        occupied = np.count_nonzero(skipped["xi_per_class"])
        assert full_calls == occupied * skipped["iterations"]
        assert occupied <= calls < full_calls
