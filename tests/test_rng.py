"""The sample stream driver: index order, reservations and the blocks it
queues, and how far ahead the estimators reserve.

For the driver alone, a pool is a stand-in that runs a job when its
result is asked for, so the tests see every block the driver sends and
how many wait."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolator import (PercolationModel, ScheduleConfig, baselines, bounds, estimate,
                        progressive, random_states, rng)
from percolator.rng import SampleStream
from percolator.workers import open_pool

from gen import build, chung_lu_edges, cycle_edges, path_edges


def draw(generator):
    return int(generator.integers(1 << 62))


class LazyPool:
    def __init__(self, workers: int):
        self.processes = workers
        self.sent, self.pending = [], 0

    def submit(self, fn, block):
        self.sent.append(block)
        self.pending += 1
        return LazyJob(self, fn, block)


class LazyJob:
    def __init__(self, pool, fn, block):
        self.pool, self.fn, self.block = pool, fn, block

    def result(self):
        self.pool.pending -= 1
        return self.fn(self.block)

    def cancel(self):
        self.pool.pending -= 1
        return True


def serial(seed: int, stop: int, tag: int = rng.ESTIMATE_STREAM) -> list:
    return [draw(rng.derive_rng(seed, tag, i)) for i in range(stop)]


@settings(max_examples=60, deadline=None)
@given(workers=st.sampled_from([None, 1, 2, 3]), seed=st.integers(0, 2 ** 32),
       calls=st.lists(st.tuples(st.booleans(), st.integers(0, 400)), max_size=8))
def test_pooled_stream_hands_out_the_serial_samples(workers, seed, calls):
    """Any mix of reservations and takes, with no pool or with one, hands
    out sample i drawn from its own generator, in index order. The
    blocks, drawn by the pool or here, are disjoint, of at most ``_BLOCK``
    indices and none past the highest reserved or taken bound, and
    closing cancels the ones waiting in the pool."""
    pool = None if workers is None else LazyPool(workers)
    drawn = []

    def recorded(sampler, seed, stream, block):
        drawn.append(block)
        return draw_block(sampler, seed, stream, block)

    draw_block = rng._draw_block
    rng._draw_block = recorded
    try:
        stream = SampleStream(draw, seed, rng.ESTIMATE_STREAM, pool)
    finally:
        rng._draw_block = draw_block
    got, bound = [], 0
    for is_take, stop in calls:
        bound = max(bound, stop)
        if is_take:
            got.extend(stream.take(stop))
        else:
            stream.reserve(stop)
    assert got == serial(seed, len(got))
    sent = [] if pool is None else pool.sent
    blocks = sorted(set(drawn) | set(sent), key=lambda block: block.start)
    assert all(a.stop <= b.start for a, b in zip(blocks, blocks[1:]))
    assert all(0 < len(block) <= rng._BLOCK and block.stop <= bound for block in blocks)
    stream.close()
    assert pool is None or pool.pending == 0


@pytest.mark.parametrize("workers,sizes", [(1, [23]), (2, [16, 15]), (3, [12, 12, 11])])
def test_short_reservation_is_shared_by_every_worker(workers, sizes):
    """47 samples, the size of a bootstrap, reserved while nothing is queued:
    one share for each worker, and the first for this process."""
    pool = LazyPool(workers)
    with SampleStream(draw, 5, rng.BOOTSTRAP_STREAM, pool) as stream:
        stream.reserve(47)
        assert [len(block) for block in pool.sent] == sizes
        assert pool.sent[0].start == 47 - sum(sizes)     # the first share is drawn here
        assert list(stream.take(47)) == serial(5, 47, rng.BOOTSTRAP_STREAM)
    assert pool.pending == 0


def spy_streams(monkeypatch, module) -> list:
    """Record ``module``'s stream events in order: ("reserve", stream tag,
    stop) for every reservation, takes included, ("fold", tag, None) for
    every sample handed out, and ("send", tag, block stop) for every pool job."""
    events = []

    class Spy(SampleStream):
        def __init__(self, sampler, seed, stream, pool=None):
            super().__init__(sampler, seed, stream, pool)
            self.tag = stream
            if pool is not None:
                def submit(fn, block):
                    events.append(("send", stream, block.stop))
                    return pool.submit(fn, block)
                self._pool = type("Recorded", (), {"submit": staticmethod(submit)})

        def reserve(self, stop):
            events.append(("reserve", self.tag, stop))
            super().reserve(stop)

        def take(self, stop):
            for sample in super().take(stop):
                events.append(("fold", self.tag, None))
                yield sample

    monkeypatch.setattr(module, "SampleStream", Spy)
    return events


def furthest(events, tag) -> int:
    return max(stop for kind, t, stop in events if t == tag and kind != "fold")


def eps_met_runs():
    """Runs that stop eps-met far below a ceiling lifted to 2^16."""
    path3 = build(path_edges(3)), PercolationModel([1.0, 0.5, 0.0])
    cycle5 = build(cycle_edges(5)), PercolationModel(random_states(5, seed=1))
    return [(*case, eps) for case in (path3, cycle5) for eps in (0.2, 0.1)]


def test_pooled_runs_reserve_nothing_past_their_last_sample(monkeypatch):
    """In a pool, the progressive estimator and the naive baseline reserve,
    and so draw, no sample index at or past the run's final count, although
    their reservations run ahead of the current target."""
    monkeypatch.setattr(progressive, "sufficient_sample_size", lambda *args: 1 << 16)
    estimate_events = spy_streams(monkeypatch, progressive)
    naive_events = spy_streams(monkeypatch, baselines)
    for graph, model, eps in eps_met_runs():
        config = ScheduleConfig(epsilon=eps, delta=0.1)
        serial = estimate(graph, model, config, seed=0)
        estimate_events.clear()
        naive_events.clear()
        with open_pool(graph, model, 2) as pool:
            report = estimate(graph, model, config, seed=0, pool=pool)
            naive = baselines.run_pab_naive(graph, model, config, seed=0, pool=pool)
        assert report.stop_reason == naive["stop_reason"] == "eps-met"
        assert report.r_final < report.ceiling and naive["r_final"] < 1 << 20
        assert report.estimates.tobytes() == serial.estimates.tobytes()
        assert furthest(estimate_events, rng.ESTIMATE_STREAM) == report.r_final
        assert furthest(naive_events, rng.BASELINE_STREAM) == naive["r_final"]
        # ahead: the first reservation is past the first target
        for events, tag in ((estimate_events, rng.ESTIMATE_STREAM),
                            (naive_events, rng.BASELINE_STREAM)):
            first = next(stop for kind, t, stop in events if kind == "reserve" and t == tag)
            assert first > 2 * config.bootstrap_size


def test_runs_that_cannot_stop_early_reserve_their_ceiling_first(monkeypatch):
    """On the heavy-tailed graph at epsilon 0.05 the top class's floor stays
    above epsilon below the ceiling, so the main loop reserves up to the
    ceiling of its first iteration before its first fold; the naive
    baseline's data-free floor keeps it from stopping before its cap, which
    it reserves first."""
    graph = build(chung_lu_edges(400, 6, 2.3, seed=5))
    model = PercolationModel(random_states(graph.n, seed=9))
    config = ScheduleConfig(epsilon=0.05, delta=0.1)
    ceilings = []

    def recorded(*args):
        ceilings.append(bounds.sufficient_sample_size(*args))
        return ceilings[-1]

    monkeypatch.setattr(progressive, "sufficient_sample_size", recorded)
    for module in (progressive, baselines):
        events = spy_streams(monkeypatch, module)
        with open_pool(graph, model, 2) as pool:
            if module is progressive:
                report = estimate(graph, model, config, seed=3, pool=pool)
                assert report.stop_reason == "ceiling-hit"
                tag, first_ceiling = rng.ESTIMATE_STREAM, ceilings[0]
            else:
                baselines.run_pab_naive(graph, model, config, seed=3, max_samples=4096,
                                        pool=pool)
                tag, first_ceiling = rng.BASELINE_STREAM, 4096
        main = [(kind, stop) for kind, t, stop in events if t == tag and kind != "send"]
        assert main[0] == ("reserve", first_ceiling) and ("fold", None) in main
        assert first_ceiling > 2 * config.bootstrap_size
