import math

import numpy as np
import pytest

from percolator import (McEraState, PercolationModel, empirical_peeling,
                        eps_bound, era_upper_bound, exact_percolation, mcera,
                        random_states, sufficient_sample_size,
                        vd_baseline_sample_size, wimpy_variance)
from percolator.bounds import sufficient_sample_size_closed_form
from percolator.progressive import _draw_pair_sample
from percolator.rng import derive_rng, rademacher_signs

from gen import build, cycle_edges


def make_state(value_rows, c=1):
    """State for a single function; value_rows is the f(s_i) sequence."""
    state = McEraState(n=1, c=c, seed=0)
    vals = np.asarray(value_rows, dtype=np.float64)
    state.r = vals.size
    state.sq_sums[0] = (vals ** 2).sum()
    return state, vals


def test_wimpy_examples():
    state, _ = make_state([1.0, 0.0, 1.0])
    assert wimpy_variance(state, np.array([0])) == pytest.approx(2 / 3)

    state, _ = make_state([0.0, 0.0, 0.0])
    assert wimpy_variance(state, np.array([0])) == 0.0

    two = McEraState(n=2, c=1, seed=0)
    two.r = 2
    two.sq_sums[:] = [0.5 ** 2 + 0.5 ** 2, 1.0]
    assert wimpy_variance(two, np.array([0, 1])) == pytest.approx(0.5)


def test_mcera_examples():
    zero = McEraState(n=1, c=4, seed=0)
    zero.r = 3
    assert mcera(zero, np.array([0])) == 0.0

    one = McEraState(n=1, c=1, seed=0)
    one.r = 2
    one.signed_sums[0, 0] = 1.0 * 1 + 1.0 * -1
    assert mcera(one, np.array([0])) == 0.0

    two = McEraState(n=1, c=2, seed=0)
    two.r = 2
    two.signed_sums[0, 0] = 1.0 + 0.0        # lambda row (+1, +1)
    two.signed_sums[0, 1] = -1.0 + 0.0       # lambda row (-1, +1)
    assert mcera(two, np.array([0])) == pytest.approx(0.0)


def test_mcera_all_plus_one_equals_max_mean():
    # with every sign +1 the trial max is the max empirical mean
    state = McEraState(n=3, c=2, seed=0)
    state.r = 4
    means = np.array([0.25, 0.7, 0.1])
    state.signed_sums[:] = (means * state.r)[:, None]
    assert mcera(state, np.arange(3)) == pytest.approx(means.max())


def test_era_upper_bound_values():
    assert era_upper_bound(0.123, 0.0, 25, 100, 0.1) == pytest.approx(0.123)
    assert era_upper_bound(0.0, 0.25, 25, 100, 0.1) == pytest.approx(0.030349, abs=1e-6)
    rs = [era_upper_bound(0.0, 0.25, 25, r, 0.1) for r in (10, 100, 1000)]
    assert rs[0] > rs[1] > rs[2]


def test_eps_bound_worked_value():
    xi = eps_bound(0.0, 0.0, 0.25, t=1, c=25, r=100, delta=0.1)
    # independent transcription of the chained bound
    ell = math.log(40.0)
    r_i = 2 * ell / 100
    expected = 2 * r_i + math.sqrt(2 * ell * (0.25 + 4 * r_i) / 100) + ell / 300
    assert xi == pytest.approx(expected, abs=1e-12)
    assert xi == pytest.approx(0.36039, abs=1e-5)


def test_eps_bound_vanishes_with_samples():
    xis = [eps_bound(0.0, 0.0, 0.25, 1, 25, r, 0.1) for r in (10**3, 10**6, 10**9)]
    assert xis[0] > xis[1] > xis[2]
    assert xis[-1] < 1e-3


def test_eps_bound_monotone_in_variance_terms():
    base = eps_bound(0.01, 0.02, 0.10, 2, 25, 500, 0.1)
    assert eps_bound(0.01, 0.02, 0.20, 2, 25, 500, 0.1) >= base
    assert eps_bound(0.01, 0.08, 0.10, 2, 25, 500, 0.1) >= base


def test_eps_bound_floors_negative_rademacher():
    neg = eps_bound(-5.0, 0.0, 0.25, 1, 25, 100, 0.1)
    flat = eps_bound(0.0, 0.0, 0.25, 1, 25, 100, 0.1)
    assert neg <= flat
    assert math.isfinite(neg)


def test_sufficient_sample_size_worked_value():
    assert sufficient_sample_size(0.25, 3.97, 0.05, 0.1) == 1229
    closed = sufficient_sample_size_closed_form(0.25, 3.97, 0.05, 0.1)
    expected = (2 * 0.25 + 2 * 0.05 / 3) / 0.05 ** 2 * (math.log(2 * 3.97 / 0.25) + math.log(10))
    assert closed == pytest.approx(expected, rel=1e-9)


def test_sufficient_sample_size_eps_scaling():
    r1 = sufficient_sample_size(0.25, 3.97, 0.05, 0.1)
    r2 = sufficient_sample_size(0.25, 3.97, 0.025, 0.1)
    assert 3.0 < r2 / r1 < 5.0


def test_sufficient_sample_size_monotone():
    base = sufficient_sample_size(0.10, 2.0, 0.05, 0.1)
    assert sufficient_sample_size(0.10, 4.0, 0.05, 0.1) >= base
    assert sufficient_sample_size(0.20, 2.0, 0.05, 0.1) >= base


def test_sufficient_sample_size_contract():
    with pytest.raises(ValueError):
        sufficient_sample_size(0.3, 1.0, 0.05, 0.1)
    with pytest.raises(ValueError):
        sufficient_sample_size(0.0, 1.0, 0.05, 0.1)


def test_peeling_all_zero_collapses_to_catch_all():
    part = empirical_peeling(np.zeros(10), r=100, delta=0.1)
    assert (part.class_of == part.t - 1).all()
    ell = math.log(2 * part.t / 0.1)
    assert part.var_bound[part.t - 1] == pytest.approx(ell / 300)


def test_peeling_bucket_assignment():
    sq = np.array([0.2, 0.01]) * 64     # r = 64 -> means 0.2 and 0.01
    part = empirical_peeling(sq, r=64, delta=0.1)
    assert part.class_of[0] == 0        # (1/16, 1/4]
    assert part.class_of[1] == 2        # (1/256, 1/64]
    assert part.class_of[0] != part.class_of[1]


def test_peeling_bounds_capped_and_monotone():
    rng = np.random.default_rng(0)
    part = empirical_peeling(rng.random(50) * 30, r=30, delta=0.1)
    assert (part.var_bound <= 0.25 + 1e-15).all()
    assert (part.var_bound > 0).all()
    assert (np.diff(part.var_bound) <= 1e-15).all()
    assert part.t == math.ceil(math.log(30) / math.log(4)) + 2


def test_vd_baseline_worked_value():
    assert vd_baseline_sample_size(16, 0.05, 0.1) == 1261


def test_vd_baseline_independent_of_n_and_doubling():
    r1 = vd_baseline_sample_size(10, 0.05, 0.1)
    r2 = vd_baseline_sample_size(18, 0.05, 0.1)   # VD-2 doubled: 8 -> 16
    assert r2 - r1 == round(0.5 / 0.05 ** 2)
    with pytest.raises(ValueError):
        vd_baseline_sample_size(1, 0.05, 0.1)
    assert vd_baseline_sample_size(2, 0.05, 0.1) >= 1


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.1), (1.5, 0.1),
                                       (0.05, 0.0), (0.05, 1.0), (0.05, -0.5)])
def test_vd_baseline_rejects_epsilon_delta_outside_unit_interval(eps, delta):
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        vd_baseline_sample_size(10, eps, delta)


def test_rademacher_signs_deterministic_and_appendable():
    a = rademacher_signs(7, 0, 100, 25)
    b = rademacher_signs(7, 0, 100, 25)
    assert (a == b).all()
    head = rademacher_signs(7, 0, 60, 25)
    tail = rademacher_signs(7, 60, 40, 25)
    assert (np.vstack([head, tail]) == a).all()
    assert set(np.unique(a)) == {-1.0, 1.0}
    # crude balance check: mean of 2500 fair signs
    assert abs(a.mean()) < 4 / math.sqrt(a.size)
    assert (rademacher_signs(8, 0, 100, 25) != a).any()


def test_deviation_bound_coverage():
    """Empirical validity of the chained bound at fixed sample size."""
    g = build(cycle_edges(6))
    model = PercolationModel(random_states(6, seed=3))
    p = exact_percolation(g, model)
    r, c, delta = 200, 25, 0.1
    hits = 0
    trials = 200
    for trial in range(trials):
        state = McEraState(n=g.n, c=c, seed=trial)
        sum_f = np.zeros(g.n)
        signs = state.signs_for_block(r)
        for i in range(r):
            rng = derive_rng(1000 + trial, 5, i)
            contrib, _, _ = _draw_pair_sample(g, model, rng, alpha=math.log(10), cap=1 << 16)
            sum_f[contrib.idx] += contrib.val
            state.add_sample(contrib, signs[i])
        everyone = np.arange(g.n)
        xi = eps_bound(mcera(state, everyone), wimpy_variance(state, everyone),
                       0.25, t=1, c=c, r=r, delta=delta)
        sd = np.abs(sum_f / r - p).max()
        hits += sd <= xi
    # should hold in >= (1 - delta) of trials; binomial 3 sigma slack
    assert hits >= trials * (1 - delta) - 3 * math.sqrt(trials * delta * (1 - delta))
