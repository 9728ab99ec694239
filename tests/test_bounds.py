import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percolator import (Contribution, McEraState, PercolationModel, empirical_peeling,
                        eps_bound, era_upper_bound, exact_all, mcera,
                        random_states, sufficient_sample_size,
                        vd_baseline_sample_size, xi_floor)
from percolator.bounds import sufficient_sample_size_closed_form
from percolator.progressive import _draw_pair_sample
from percolator.rng import derive_rng, rademacher_signs

import oracle_mcera
from gen import build, cycle_edges


def fold(state, samples, signs=None):
    """Fold ``samples`` (one {vertex: value} dict each) in through add_sample;
    ``signs`` defaults to the state's own sign stream."""
    if signs is None:
        signs = state.signs_for_block(len(samples))
    for sample, row in zip(samples, np.asarray(signs, dtype=np.float64)):
        contrib = Contribution(np.array(list(sample), dtype=np.int64),
                               np.array(list(sample.values()), dtype=np.float64))
        state.add_sample(contrib, row)
    return state


def make_state(value_rows, c=1):
    """State for a single function; value_rows is the f(s_i) sequence."""
    vals = np.asarray(value_rows, dtype=np.float64)
    state = fold(McEraState(n=1, c=c, seed=0), [{0: v} if v else {} for v in vals])
    return state, vals


def whole(state):
    """(mcera, wimpy variance) of the one class holding every vertex."""
    rc, wimpy = mcera(state, np.zeros(state.n, dtype=np.int64), np.array([state.n]))
    return float(rc[0]), float(wimpy[0])


def test_wimpy_examples():
    state, _ = make_state([1.0, 0.0, 1.0])
    assert whole(state)[1] == pytest.approx(2 / 3)

    state, _ = make_state([0.0, 0.0, 0.0])
    assert whole(state)[1] == 0.0

    two = fold(McEraState(n=2, c=1, seed=0), [{0: 0.5, 1: 1.0}, {0: 0.5}])
    assert two.r == 2
    assert whole(two)[1] == pytest.approx(0.5)


def test_mcera_examples():
    zero = fold(McEraState(n=1, c=4, seed=0), [{}, {}, {}])
    assert zero.r == 3
    assert whole(zero)[0] == 0.0

    # signed sum 1.0 * 1 + 1.0 * -1
    one = fold(McEraState(n=1, c=1, seed=0), [{0: 1.0}, {0: 1.0}], signs=[[1], [-1]])
    assert whole(one)[0] == 0.0

    # f = (1, 0); lambda rows (+1, +1) and (-1, +1) by trial
    two = fold(McEraState(n=1, c=2, seed=0), [{0: 1.0}, {}], signs=[[1, -1], [1, 1]])
    assert two.signed_sums[two.row_of[0]].tolist() == [1.0, -1.0]
    assert whole(two)[0] == pytest.approx(0.0)


def test_mcera_all_plus_one_equals_max_mean():
    # with every sign +1 the trial max is the max empirical mean
    means = np.array([0.25, 0.7, 0.1])
    state = fold(McEraState(n=3, c=2, seed=0), [dict(enumerate(means))] * 4,
                 signs=np.ones((4, 2)))
    assert state.r == 4
    assert whole(state)[0] == pytest.approx(means.max())


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def assert_matches_oracle_by_class(state, oracle, class_of, t):
    """The one-pass ``mcera`` of each class equals the dense oracle's
    ``mcera`` and ``wimpy_variance`` over that class's members, bit for bit."""
    rc, wimpy = mcera(state, class_of, np.bincount(class_of, minlength=t))
    assert rc.shape == wimpy.shape == (t,)
    for j in range(t):
        members = np.flatnonzero(class_of == j)
        assert same_bits(rc[j], oracle_mcera.mcera(oracle, members)), j
        assert same_bits(wimpy[j], oracle_mcera.wimpy_variance(oracle, members)), j


@pytest.mark.parametrize("c", [1, 25])
@pytest.mark.parametrize("negative", [False, True], ids=["stream-signs", "all-minus"])
@pytest.mark.parametrize("seed", range(3))
def test_sparse_state_matches_dense_oracle(seed, negative, c):
    """Seeded contribution streams folded into the first-touch state and the
    dense n-row oracle give bit-equal sums, mcera and wimpy variance after
    every block, for classes with and without untouched members."""
    n, reach = 300, 200                 # vertices >= reach are never touched
    rng = np.random.default_rng(seed)
    state = McEraState(n=n, c=c, seed=seed)
    oracle = oracle_mcera.McEraState(n=n, c=c, seed=seed)
    labellings = [(np.zeros(n, dtype=np.int64), 1),                 # everyone
                  ((np.arange(n) >= reach).astype(np.int64), 2),    # reachable, never touched
                  (np.arange(n) // 70, 5),                          # class 2 straddles reach
                  (rng.integers(0, 5, n), 8)]                       # classes 5-7 empty
    for _ in range(5):
        signs = state.signs_for_block(40)
        if negative:
            signs = -np.ones_like(signs)    # every touched sum is negative
        for row in signs:
            k = int(rng.integers(0, 12))
            contrib = Contribution(rng.choice(reach, k, replace=False).astype(np.int64),
                                   rng.uniform(0.01, 1.0, k))
            state.add_sample(contrib, row)
            oracle.add_sample(contrib, row)
        signed, sq = oracle_mcera.dense_sums(state)
        assert np.array_equal(signed.view(np.int64), oracle.signed_sums.view(np.int64))
        assert np.array_equal(sq.view(np.int64), oracle.sq_sums.view(np.int64))
        for class_of, t in labellings:
            assert_matches_oracle_by_class(state, oracle, class_of, t)
    touched = np.nonzero(state.row_of >= 0)[0]
    assert state.rows == touched.size <= reach
    # vertex_of inverts row_of on the rows in use
    assert np.array_equal(state.row_of[state.vertex_of[:state.rows]], np.arange(state.rows))
    if negative:
        # the untouched members' zero sums decide the max
        untouched = (state.row_of < 0).astype(np.int64)
        rc, _ = mcera(state, untouched, np.bincount(untouched, minlength=2))
        assert rc[0] < 0.0 and rc[1] == 0.0
        assert whole(state)[0] == 0.0


@st.composite
def classed_samples(draw):
    """(t, class of each vertex, samples as {vertex: value} dicts, c, whether
    every sign is -1); small n and many samples make fully touched classes
    common, t up to 8 over at most 10 vertices leaves classes empty."""
    t = draw(st.integers(1, 8))
    n = draw(st.integers(1, 10))
    class_of = draw(st.lists(st.integers(0, t - 1), min_size=n, max_size=n))
    samples = draw(st.lists(st.dictionaries(st.integers(0, n - 1), st.floats(0.01, 1.0),
                                            max_size=n), min_size=1, max_size=8))
    return t, class_of, samples, draw(st.integers(1, 4)), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(classed_samples())
@example((1, [0, 0], [{0: 0.5}], 2, True))      # an untouched member decides the max
@example((1, [0], [{0: 0.5}], 1, True))         # touched throughout, all sums negative
@example((3, [0, 2], [{0: 0.5}, {1: 0.25}], 3, False))   # class 1 empty
def test_one_pass_matches_dense_oracle_class_by_class(case):
    t, class_of, samples, c, negative = case
    class_of = np.array(class_of, dtype=np.int64)
    state = McEraState(n=class_of.size, c=c, seed=5)
    signs = -np.ones((len(samples), c)) if negative else state.signs_for_block(len(samples))
    fold(state, samples, signs)
    oracle = fold(oracle_mcera.McEraState(n=class_of.size, c=c, seed=5), samples, signs)
    assert_matches_oracle_by_class(state, oracle, class_of, t)


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


@pytest.mark.parametrize("t", [1, 2, 7, 40])
def test_xi_floor_is_eps_bound_with_zero_terms(t):
    for c, r, delta in itertools.product((1, 2, 25, 100), (1, 37, 1000, 10**7),
                                         (1e-9, 0.008, 0.4, 0.99)):
        assert xi_floor(0.0, t, r, delta) == eps_bound(0.0, 0.0, 0.0, t, c, r, delta)
    assert xi_floor(0.0, t, 1000, 0.1) == pytest.approx(25 / 3 * math.log(40.0 * t) / 1000)


@given(rc=st.floats(allow_nan=False, allow_infinity=False),
       wimpy=st.floats(0.0, 0.25), var_bound=st.floats(0.0, 0.25),
       t=st.integers(1, 60), c=st.integers(1, 100), r=st.integers(1, 10**9),
       delta=st.floats(1e-12, 0.999))
@example(rc=-0.0, wimpy=0.0, var_bound=0.0, t=1, c=25, r=1, delta=0.5)
@example(rc=-1e300, wimpy=0.25, var_bound=0.25, t=3, c=25, r=441, delta=0.01)
def test_eps_bound_never_below_xi_floor(rc, wimpy, var_bound, t, c, r, delta):
    assert eps_bound(rc, wimpy, var_bound, t, c, r, delta) >= xi_floor(var_bound, t, r, delta)


def test_sufficient_sample_size_worked_value():
    assert sufficient_sample_size(0.25, 3.97, 0.05, 0.1) == 1229
    closed = sufficient_sample_size_closed_form(0.25, 3.97, 0.05, 0.1)
    expected = (2 * 0.25 + 2 * 0.05 / 3) / 0.05 ** 2 * (math.log(2 * 3.97 / 0.25) + math.log(10))
    assert closed == pytest.approx(expected, rel=1e-9)


def test_numeric_supremum_exceeds_the_closed_form():
    """A point of the reachable domain (v = 1/4, rho = 1/(n(n - 1)) at
    n = 4, delta/2 = 0.495) where the closed form does not dominate: the
    numeric search stays (see test_progressive's two-edge run)."""
    closed = sufficient_sample_size_closed_form(0.25, 1 / 12, 0.88, 0.495)
    assert closed == pytest.approx(0.987, abs=1e-3) and math.ceil(closed) == 1
    assert sufficient_sample_size(0.25, 1 / 12, 0.88, 0.495) == 2


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


def assert_sizes_count_the_classes(part):
    assert part.sizes.dtype == np.intp
    assert np.array_equal(part.sizes, np.bincount(part.class_of, minlength=part.t))


def test_peeling_all_zero_collapses_to_catch_all():
    part = empirical_peeling(np.zeros(10), r=100, delta=0.1)
    assert (part.class_of == part.t - 1).all()
    assert_sizes_count_the_classes(part)
    ell = math.log(2 * part.t / 0.1)
    assert part.var_bound[part.t - 1] == pytest.approx(ell / 300)


def test_peeling_bucket_assignment():
    sq = np.array([0.2, 0.01]) * 64     # r = 64 -> means 0.2 and 0.01
    part = empirical_peeling(sq, r=64, delta=0.1)
    assert part.class_of[0] == 0        # (1/16, 1/4]
    assert part.class_of[1] == 2        # (1/256, 1/64]
    assert part.class_of[0] != part.class_of[1]
    assert_sizes_count_the_classes(part)


def mask_loop_classes(what, t):
    """The class rule ``empirical_peeling`` applied with one set of masks
    per class before it became one ``searchsorted``, kept as an oracle."""
    edges = 0.25 ** np.arange(1, t + 1)
    class_of = np.empty(what.size, dtype=np.int64)
    for j in range(t):
        if j == t - 1:
            mask = what <= edges[j]
        elif j == 0:
            mask = what > edges[1]
        else:
            mask = (what > edges[j + 1]) & (what <= edges[j])
        class_of[mask] = j
    return class_of


def test_peeling_classes_match_the_mask_loop_at_every_edge():
    """Every bucket edge 4^-k, both of its float neighbours, 0 and values
    above 1/4 land in the class the mask loop gives, for t = 2..13; r is a
    power of two, so sq_sums / r gives the intended values exactly."""
    edges = 0.25 ** np.arange(0, 16)
    what = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                           [0.0, 0.3, 0.9, 2.0]))
    seen = set()
    for log2_r in range(23):
        r = 1 << log2_r
        part = empirical_peeling(what * r, r, delta=0.1)
        assert np.array_equal(part.class_of, mask_loop_classes(what, part.t))
        assert_sizes_count_the_classes(part)
        seen.add(part.t)
    assert seen == set(range(2, 14))


def test_peeling_bounds_capped_and_monotone():
    rng = np.random.default_rng(0)
    part = empirical_peeling(rng.random(50) * 30, r=30, delta=0.1)
    assert (part.var_bound <= 0.25 + 1e-15).all()
    assert (part.var_bound > 0).all()
    assert (np.diff(part.var_bound) <= 1e-15).all()
    assert part.t == math.ceil(math.log(30) / math.log(4)) + 2
    assert_sizes_count_the_classes(part)


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
    p = exact_all(g, model).p
    r, c, delta = 200, 25, 0.1
    hits = 0
    trials = 200
    for trial in range(trials):
        state = McEraState(n=g.n, c=c, seed=trial)
        signs = state.signs_for_block(r)
        for i in range(r):
            rng = derive_rng(1000 + trial, 5, i)
            state.add_sample(_draw_pair_sample(g, model, rng, alpha=math.log(10), cap=1 << 16),
                             signs[i])
        xi = eps_bound(*whole(state), 0.25, t=1, c=c, r=r, delta=delta)
        sd = np.abs(state.estimates() - p).max()
        hits += sd <= xi
    # should hold in >= (1 - delta) of trials; binomial 3 sigma slack
    assert hits >= trials * (1 - delta) - 3 * math.sqrt(trials * delta * (1 - delta))
