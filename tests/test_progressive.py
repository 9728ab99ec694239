import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from percolator import (BfsWorkspace, PercolationModel, ScheduleConfig, bounds, estimate,
                        exact_all, progressive, random_states)
from percolator.rng import BOOTSTRAP_STREAM, ESTIMATE_STREAM, SampleStream, derive_rng
from percolator.sampling import sample_pair

from gen import build, chung_lu_edges, cycle_edges, erdos_renyi_edges, path_edges
from oracle_exact import bfs_level_counts, brute_force_percolation


def strip_timing(report_dict):
    return {k: v for k, v in report_dict.items()
            if not k.startswith("elapsed")}


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       states=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_numeric_supremum_sets_the_ceiling_on_two_edges(seed, states):
    """Every pair of ``0 1`` / ``2 3`` is adjacent or disconnected, so rho
    is substituted with 1/(n(n - 1)) = 1/12. At epsilon 0.88 and delta
    0.99 the closed form asks for 0.987 samples, the numeric supremum for
    2: the search sets this report's ceiling, so it cannot be dropped for
    the closed form."""
    report = estimate(build([(0, 1), (2, 3)]), PercolationModel(states),
                      ScheduleConfig(epsilon=0.88, delta=0.99), seed=seed)
    assert report.rho_substituted and report.rho_estimate == 1.0 / 12.0
    assert (report.ceiling, report.r_final) == (2, 2)


def run_counting_mcera(monkeypatch, graph, model, config, seed, skip=True):
    """``estimate``'s report dict without timings, and the sample count r
    of each ``mcera`` call, one call evaluating every class of an iteration;
    ``skip=False`` disables the floor skip by making ``xi_floor`` return
    -inf, so every iteration evaluates."""
    calls = []

    def counted(state, class_of, sizes):
        calls.append(state.r)
        return bounds.mcera(state, class_of, sizes)

    with monkeypatch.context() as patch:
        patch.setattr(progressive, "mcera", counted)
        if not skip:
            patch.setattr(progressive, "xi_floor", lambda v, t, r, delta: -math.inf)
        report = estimate(graph, model, config, seed=seed)
    return strip_timing(report.as_dict()), calls


def test_floor_skip_keeps_the_golden_report(monkeypatch):
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=9))
    cfg = ScheduleConfig(epsilon=0.05, delta=0.1)
    skipped, calls = run_counting_mcera(monkeypatch, graph, model, cfg, seed=3)
    full, full_calls = run_counting_mcera(monkeypatch, graph, model, cfg, seed=3, skip=False)
    assert skipped == full
    assert skipped["stop_reason"] == "ceiling-hit" and skipped["iterations"] > 1
    # a ceiling-hit run evaluates once, at the ceiling
    assert calls == [skipped["r_final"]]
    assert len(full_calls) == skipped["iterations"]


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
        assert len(full_calls) == skipped["iterations"]
        # the stopping iteration evaluates; some earlier ones do not
        assert calls[-1] == full_calls[-1] == skipped["r_final"]
        assert set(calls) < set(full_calls)


def audit_report(report):
    """Check an ``estimate`` report dict against its own stop rule, from the
    report alone, with the formulas of README and SILVAN written out here
    rather than taken from ``bounds``: the stop reason against xi and eps;
    each occupied class's xi against its data-free floor at the final
    iteration's delta share; and the ceiling against the closed-form one
    at the final rho estimate (the ceiling is a running maximum, so it may
    exceed that one, never fall below it)."""
    eps, delta = report["config"]["epsilon"], report["config"]["delta"]
    xi = np.array(report["xi_per_class"])
    var = np.array(report["var_bound_per_class"])
    t, r = xi.size, report["r_final"]
    occupied = xi > 0
    assert occupied.any()
    met = bool((xi[occupied] <= eps).all())
    assert report["stop_reason"] == ("eps-met" if met else "ceiling-hit")
    if not met:
        assert r == report["ceiling"]
    # the iterations' shares delta / 2^(i+1) sum to delta / 2; 0.8 of one bounds a class
    ell = math.log(4 * t / (0.8 * delta / 2 ** (report["iterations"] + 1)))
    floor = 13 / 3 * ell / r + np.sqrt(2 * ell * var[occupied] / r + 16 * ell ** 2 / r ** 2)
    assert (xi[occupied] >= floor * (1 - 1e-12)).all(), (xi[occupied], floor)
    vhat = min(0.25, max(eps, var[occupied].max()))
    closed = (2 * vhat + 2 * eps / 3) / eps ** 2 * (
        max(0.0, math.log(2 * report["rho_estimate"] / vhat)) + math.log(2 / delta))
    assert report["ceiling"] >= math.ceil(closed * (1 - 1e-12)), (report["ceiling"], closed)


@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_golden_reports_audit_themselves(eps):
    """The golden graph's reports, at the golden epsilon and at the pinned
    ``approx`` one, pass the report-only audit."""
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=9))
    report = estimate(graph, model, ScheduleConfig(epsilon=eps, delta=0.1), seed=3)
    audit_report(report.as_dict())


@pytest.mark.parametrize("eps", [0.2, 0.1])
@pytest.mark.parametrize("name", ["path3", "cycle5"])
def test_eps_met_reports_audit_themselves(monkeypatch, name, eps):
    """The ``eps-met`` runs of ``test_floor_skip_keeps_eps_met_reports``
    pass the report-only audit."""
    if name == "path3":
        graph, model = build(path_edges(3)), PercolationModel([1.0, 0.5, 0.0])
    else:
        graph, model = build(cycle_edges(5)), PercolationModel(random_states(5, seed=1))
    monkeypatch.setattr(progressive, "sufficient_sample_size", lambda *args: 1 << 16)
    for seed in range(2):
        report = estimate(graph, model, ScheduleConfig(epsilon=eps, delta=0.1), seed)
        assert report.stop_reason == "eps-met"
        audit_report(report.as_dict())


def floors_on_schedule(eps, delta, v_top, rho):
    """``estimate``'s targets for a run whose largest occupied class bound is
    ``v_top`` and whose ceiling is sized with ``rho``, each as (iteration,
    target, the top class's floor there); the last target is the ceiling.
    A ceiling that grows during the run caps earlier targets lower, which
    only lowers r at a given iteration, and a later iteration at the ceiling
    has a smaller delta_i: neither lowers the smallest floor listed here."""
    config = ScheduleConfig(epsilon=eps, delta=delta)
    t = bounds.empirical_peeling(np.zeros(1), config.bootstrap_size, delta).t
    ceiling = bounds.sufficient_sample_size(min(0.25, max(v_top, eps)), rho, eps, delta / 2)
    target, i, out = min(config.first_target, ceiling), 1, []
    while True:
        out.append((i, target, bounds.xi_floor(v_top, t, target, 0.8 * config.delta_iter(i))))
        if target == ceiling:
            return out
        target = min(math.ceil(config.geom_ratio * target), ceiling)
        i += 1


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(1e-3, 0.95), delta=st.floats(1e-4, 0.9), rho=st.floats(1e-6, 1e8),
       share=st.floats(0.0, 1.0))
@example(eps=0.05, delta=0.1, rho=1e-12, share=1.0)   # rho substituted, n = 10^6
@example(eps=1e-3, delta=0.00674379, rho=1e8, share=0.09268644)   # floor 1.09 eps
def test_ceiling_comes_before_any_class_can_meet_epsilon(eps, delta, rho, share):
    """While rho stays within [1e-6, 1e8] the top class's floor exceeds
    epsilon at every target up to the ceiling, so every run ends
    ``ceiling-hit`` and MC-ERA is evaluated once, at the ceiling. v_top is
    drawn from [the bound of a class whose samples were all zero, 1/4]:
    every occupied class's bound lies there. A change to the ceiling, the
    bound's constants, the delta split or the schedule that lets a run stop
    early fails here."""
    config = ScheduleConfig(epsilon=eps, delta=delta)
    edge0 = float(bounds.empirical_peeling(np.zeros(1), config.bootstrap_size,
                                           delta).var_bound[-1])
    v_top = edge0 + share * (0.25 - edge0)
    for i, target, floor in floors_on_schedule(eps, delta, v_top, rho):
        assert floor > eps, (i, target, floor)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 40), p=st.floats(0.05, 0.3), graph_seed=st.integers(0, 2 ** 32 - 1),
       states_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1),
       eps=st.floats(0.02, 0.25), delta=st.floats(0.005, 0.1))
def test_one_class_when_every_exclusion_sum_is_large(n, p, graph_seed, states_seed, seed,
                                                    eps, delta):
    """The one-class lemma on small graphs with uniform states. A pair
    sample gives a vertex v at most 1/minus_s[v], so when min(minus_s) >=
    2^t, t = ceil(log4 r_boot) + 2, every bootstrap mean square is at most
    4^-t and every vertex lands in the catch-all class, whose bound is then
    within epsilon for delta <= 0.1. So only the catch-all is occupied,
    v-hat is epsilon, and the run ends at the ceiling, which is at least the
    sample size that v-hat = epsilon and the report's rho estimate ask for:
    the bootstrap and the Monte-Carlo Rademacher average set only the
    reported bounds, not the sample count. Nothing here replays bits."""
    graph = build(erdos_renyi_edges(n, p, seed=graph_seed))
    assume(graph.n >= 3)
    model = PercolationModel(random_states(graph.n, seed=states_seed))
    config = ScheduleConfig(epsilon=eps, delta=delta)
    t = math.ceil(math.log(config.bootstrap_size) / math.log(4.0)) + 2
    assume(model.minus_s.min() >= 2.0 ** t)
    report = estimate(graph, model, config, seed=seed)
    assert report.xi_per_class.size == t
    assert np.flatnonzero(report.xi_per_class).tolist() == [t - 1]
    assert report.var_bound_per_class[-1] <= eps
    assert report.stop_reason == "ceiling-hit"
    assert report.r_final == report.ceiling
    assert report.ceiling >= bounds.sufficient_sample_size(eps, report.rho_estimate, eps,
                                                           delta / 2)


def test_a_huge_rho_lets_the_floor_drop_below_epsilon():
    """``eps-met`` is reachable: with rho = 5.77e13, far past any graph held
    in memory (rho <= n - 2), the ceiling (298,042) is so far out that the
    top class's floor drops below epsilon one target short of it, so the
    ``eps-met`` exit stays."""
    eps, delta, v_top = 0.003261563685770309, 0.06612939759370268, 0.039540411818056044
    schedule = floors_on_schedule(eps, delta, v_top, 5.77e13)
    below = [(i, target) for i, target, floor in schedule if floor <= eps]
    assert below == [(29, 274_913), (30, 298_042)]
    assert schedule[-1][1] == 298_042


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["er", "chung-lu"]), directed=st.booleans(),
       n=st.integers(4, 9), arcless=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_ids_with_no_arcs(kind, directed, n, arcless, seed):
    """Ids that appear only on self-loop lines become vertices without arcs:
    the exact engine still matches the path-enumeration oracle, and the
    estimator's scores stay finite and are exactly 0 there."""
    rng = np.random.default_rng(seed)
    if kind == "er":
        edges = erdos_renyi_edges(n, 0.4, seed=seed, directed=directed)
    else:
        edges = chung_lu_edges(n, 3, 2.3, seed=seed)
        if all(u == v for u, v in edges):      # keep one arc
            edges.append((0, 1))
    loops = [(n + 10 + k, n + 10 + k) for k in range(arcless)]
    for line in loops:                  # anywhere in the file, so any dense id
        edges.insert(int(rng.integers(len(edges) + 1)), line)
    graph = build(edges, directed=directed)
    dense = [int(np.flatnonzero(graph.orig_ids == u)[0]) for u, _ in loops]
    assert not graph.out_degrees[dense].any() and not graph.in_degrees[dense].any()
    model = PercolationModel(random_states(graph.n, seed=seed + 1))
    exact_p = exact_all(graph, model).p
    assert np.abs(exact_p - brute_force_percolation(graph, model)).max() < 1e-9
    report = estimate(graph, model, ScheduleConfig(epsilon=0.3, delta=0.2), seed=seed)
    assert np.isfinite(report.estimates).all()
    assert (report.estimates[dense] == 0.0).all()


HUBS = build(chung_lu_edges(150, 5, 2.3, seed=5))
# a small bag cap, so that both capped and uncapped pairs occur
DRAW = partial(progressive._draw_pair_sample, HUBS,
               PercolationModel(random_states(HUBS.n, seed=2)),
               alpha=ScheduleConfig(0.1, 0.1).alpha, cap=3, ws=BfsWorkspace(HUBS.n))


@settings(max_examples=30, deadline=None)
@given(a=st.integers(0, 30), more=st.integers(0, 30), seed=st.integers(0, 2 ** 32))
def test_split_index_range_draws_the_same_samples(a, more, seed):
    """The samples taken up to a and then up to b are those taken up to b at
    once, bit for bit: sample i depends on its index alone, as sharding by
    index range needs."""
    b = a + more
    whole = list(SampleStream(DRAW, seed, ESTIMATE_STREAM).take(b))
    stream = SampleStream(DRAW, seed, ESTIMATE_STREAM)
    split = [*stream.take(a), *stream.take(b)]
    assert len(split) == len(whole) == b
    for c1, c2 in zip(whole, split):
        assert c1.idx.tobytes() == c2.idx.tobytes()
        assert c1.val.tobytes() == c2.val.tobytes()
        assert (c1.internal, c1.capped) == (c2.internal, c2.capped)


@pytest.mark.parametrize("seed", [7, 8])
def test_rho_and_cap_events_count_every_sample(seed):
    """``rho_estimate`` and ``bag_cap_events`` recomputed from outside the
    samplers: every bootstrap and main-loop pair redrawn from its own
    generator, its distance and path count from the oracle's BFS. rho is
    the sum of d - 1 over the connected pairs of both phases over their
    sample count; a cap event is a connected, percolated pair whose
    ceil(alpha * sigma_sz) exceeds the cap (3 here). At seed 7 the
    bootstrap holds 5 of the 36 cap events and 53 of the internal length
    457, and 7 of the 206 pairs are disconnected."""
    graph = build(chung_lu_edges(150, 3, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=2))
    config = ScheduleConfig(epsilon=0.1, delta=0.1, bag_cap=3)
    report = estimate(graph, model, config, seed=seed)
    internal = capped = 0
    for stream, r in ((BOOTSTRAP_STREAM, config.bootstrap_size),
                      (ESTIMATE_STREAM, report.r_final)):
        for i in range(r):
            s, z = sample_pair(graph.n, derive_rng(seed, stream, i))
            _, dist, sigma = bfs_level_counts(graph, s, until=z)
            if dist[z] > 0:
                internal += int(dist[z]) - 1
                capped += (model.pair_weight(s, z) != 0.0
                           and math.ceil(config.alpha * sigma[z]) > config.bag_cap)
    assert internal > 0 and capped > 0
    assert report.bag_cap_events == capped
    assert report.rho_estimate == internal / (config.bootstrap_size + report.r_final)
