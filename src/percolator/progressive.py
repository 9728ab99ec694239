"""Progressive sampling loop with a variance-aware stopping rule.

Bootstrap: a small batch of pair samples fixes the variance classes, an
estimate of the average internal path length, and a hard ceiling on the
sample count. Main loop: the sample grows geometrically; after each
extension a per-class deviation bound is recomputed from the running
Monte-Carlo Rademacher state, and the run stops as soon as every class
is within epsilon or the ceiling is reached. Either exit yields the
(epsilon, delta) guarantee; the delta budget is split half to the
ceiling and half across the iterations.

Class j's bound cannot fall below ``xi_floor(var_bound[j], t, r,
0.8 * delta_i)``, and a run stops only when every occupied class meets
epsilon. So while the floor of the occupied class with the largest
variance bound exceeds epsilon below the ceiling, the run cannot stop
and the bounds are not evaluated; the iteration that stops always
evaluates every occupied class, so reports are the same as with an
evaluation on every iteration.

``_iterations`` is the one fold loop of every sample sequence: the
bootstrap's and the fixed-size baseline's one pass, this estimator's
main loop and the naive baseline's doubling. Each iteration folds its
block of sample records into a ``McEraState``, in index order, and hands
control back to the caller's evaluation. Every sample up to the first
planned target at which the caller could stop is certain to be folded,
so that whole range is reserved with the sample stream at once, and a
pool draws it while the main process folds. The main loop's state
starts from the bootstrap's tallies, so rho, the mean internal length,
and the cap events count the samples of both.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .bounds import (McEraState, empirical_peeling, eps_bound, mcera,
                     sufficient_sample_size, xi_floor)
from .graph import Graph
from .percolation import PercolationModel
from .rng import BOOTSTRAP_STREAM, ESTIMATE_STREAM, SampleStream
from .sampling import (DEFAULT_BAG_CAP, NO_CONTRIBUTION, BfsWorkspace, Contribution,
                       bag_estimate, balanced_bidirectional_bfs, sample_pair,
                       sample_paths)
from .workers import bind


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs of one estimation run; defaults follow the evaluated setup."""

    epsilon: float
    delta: float
    mc_trials: int = 25
    beta: float = 0.1              # alpha = ln(1/beta) oversampling rate
    geom_ratio: float = field(default=1.2, init=False)  # fixed; kept in as_dict()
    bag_cap: int = DEFAULT_BAG_CAP

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mc_trials < 1:
            raise ValueError("mc_trials must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.bag_cap < 1:
            raise ValueError("bag_cap must be >= 1")

    @property
    def alpha(self) -> float:
        return math.log(1.0 / self.beta)

    @property
    def bootstrap_size(self) -> int:
        return max(1, math.ceil(math.log(1.0 / self.delta) / self.epsilon))

    @property
    def first_target(self) -> int:
        return 2 * self.bootstrap_size

    def delta_iter(self, i: int) -> float:
        """Confidence share of iteration i >= 1; the shares sum to delta/2."""
        return self.delta / 2.0 ** (i + 1)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    """Estimates plus the provenance needed to audit or replay a run."""

    estimates: np.ndarray
    r_final: int
    iterations: int
    xi_per_class: np.ndarray
    var_bound_per_class: np.ndarray
    rho_estimate: float
    ceiling: int
    stop_reason: str               # "eps-met" or "ceiling-hit"
    seed: int
    elapsed_bootstrap: float
    elapsed_estimation: float
    config: dict
    all_states_equal: bool = False
    rho_substituted: bool = False
    bag_cap_events: int = 0

    def head(self) -> dict:
        """Every field but ``estimates``, in field order, as JSON values."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "estimates"}
        out.update(xi_per_class=self.xi_per_class.tolist(),
                   var_bound_per_class=self.var_bound_per_class.tolist(),
                   config=dict(self.config))
        return out

    def as_dict(self) -> dict:
        return {"estimates": self.estimates.tolist(), **self.head()}


def _draw_pair_sample(graph: Graph, model: PercolationModel, rng,
                      alpha: float, cap: int, ws: BfsWorkspace | None = None) -> Contribution:
    """One pair sample's record; a connected pair that does not percolate
    draws no paths but records its internal length."""
    s, z = sample_pair(graph.n, rng)
    meet = balanced_bidirectional_bfs(graph, s, z, ws)
    if not meet.connected:
        return NO_CONTRIBUTION
    if model.pair_weight(s, z) == 0.0:
        return replace(NO_CONTRIBUTION, internal=meet.dist - 1)
    return bag_estimate(sample_paths(meet, alpha, rng, cap=cap), model)


def _iterations(stream: SampleStream, state: McEraState, target: int,
                step=None, could_stop=lambda r, i: True):
    """Iterations i = 1, 2, ... of a run: fold ``stream``'s samples up to
    ``target`` into ``state`` in index order, yield i, then go on to
    ``step(target)``; the defaults make one pass. The caller stops only at
    an iteration where ``could_stop(r, i)`` holds, so the samples up to the
    first planned target at which it holds are reserved first: each of
    them is folded, as long as the caller's conditions only move that
    target later while it runs."""
    i = 0
    while True:
        i += 1
        ahead, j = target, i
        while not could_stop(ahead, j):
            ahead, j = step(ahead), j + 1
        stream.reserve(ahead)
        for row, sample in zip(state.signs_for_block(target - state.r), stream.take(target)):
            state.add_sample(sample, row)
        yield i
        target = step(target)


def estimate(graph: Graph, model: PercolationModel, config: ScheduleConfig,
             seed: int, pool=None) -> RunReport:
    """Full progressive run; see the module docstring for the phases. The
    samples are drawn in ``pool``'s workers when given (``workers.open_pool``)."""
    if graph.n < 3:
        raise ValueError("need at least 3 vertices for internal vertices to exist")
    n = graph.n
    t0 = time.perf_counter()
    draw = bind(_draw_pair_sample, graph, model, pool, alpha=config.alpha, cap=config.bag_cap)
    # the bootstrap's squared contributions set the classes
    boot = McEraState(n=n, c=0, seed=seed)
    with SampleStream(draw, seed, BOOTSTRAP_STREAM, pool) as stream:
        next(_iterations(stream, boot, config.bootstrap_size))
    partition = empirical_peeling(boot.dense(boot.sq_sums), boot.r, config.delta)
    # the main loop's state starts from the bootstrap's tallies; the bootstrap's
    # n-sized arrays go first, so that the main state's take their room
    tallies = {"internal": boot.internal, "capped": boot.capped}
    del boot
    occupied = partition.sizes > 0
    # every vertex lives in some occupied class, so their largest bound
    # covers the whole family; floored at epsilon to keep the ceiling's
    # log term bounded when the empirical variances are all near zero
    vhat_classes = float(partition.var_bound[occupied].max())
    vhat = min(0.25, max(vhat_classes, config.epsilon))
    state = McEraState(n=n, c=config.mc_trials, seed=seed, **tallies)

    def rho() -> float:
        """The mean internal length over the bootstrap's and the main loop's
        samples, or 1/(n(n-1)) while it is 0 (then it is 0 from the bootstrap on)."""
        return state.internal / (config.bootstrap_size + state.r) or 1.0 / (n * (n - 1))

    ceiling = sufficient_sample_size(vhat, rho(), config.epsilon, config.delta / 2.0)
    elapsed_boot = time.perf_counter() - t0

    def could_stop(r: int, i: int) -> bool:
        """Whether iteration i, at r samples, may stop: at the ceiling, or
        with the top class's floor within epsilon (the per-iteration delta
        share enters the bound as 5/delta_i)."""
        return r >= ceiling or xi_floor(vhat_classes, partition.t, r,
                                        0.8 * config.delta_iter(i)) <= config.epsilon

    def step(target: int) -> int:
        """The next target; a growing ceiling only moves later the first one that could stop."""
        return min(math.ceil(config.geom_ratio * target), ceiling)

    t1 = time.perf_counter()
    # empty classes hold no functions: their deviation is trivially zero
    xi = occupied.astype(float)

    with SampleStream(draw, seed, ESTIMATE_STREAM, pool) as stream:
        for iterations in _iterations(stream, state, min(config.first_target, ceiling),
                                      step, could_stop):
            # refresh, one-sidedly, the ceiling
            ceiling = max(ceiling, sufficient_sample_size(
                vhat, rho(), config.epsilon, config.delta / 2.0))

            # while the run cannot stop, the bounds are not evaluated
            if could_stop(state.r, iterations):
                delta_b = 0.8 * config.delta_iter(iterations)
                rc, wimpy = mcera(state, partition.class_of, partition.sizes)
                for j in np.flatnonzero(occupied):
                    xi[j] = eps_bound(float(rc[j]), float(wimpy[j]),
                                      float(partition.var_bound[j]), partition.t,
                                      config.mc_trials, state.r, delta_b)
                if (xi <= config.epsilon).all() or state.r >= ceiling:
                    break

    return RunReport(
        estimates=state.estimates(),
        r_final=state.r,
        iterations=iterations,
        xi_per_class=xi.copy(),
        var_bound_per_class=partition.var_bound.copy(),
        rho_estimate=rho(),
        ceiling=ceiling,
        stop_reason="eps-met" if (xi <= config.epsilon).all() else "ceiling-hit",
        seed=seed,
        elapsed_bootstrap=elapsed_boot,
        elapsed_estimation=time.perf_counter() - t1,
        config=config.as_dict(),
        all_states_equal=model.all_equal,
        rho_substituted=not tallies["internal"],
        bag_cap_events=state.capped,
    )
