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

``_iterations`` holds the loop's skeleton for this estimator and the
naive baseline alike: each iteration folds its block of samples into the
sums and the Monte-Carlo Rademacher state, in index order, and hands
control back to the caller's evaluation. Every sample up to the first
planned target at which the caller could stop is certain to be folded,
so that whole range is reserved with the sample stream at once, and a
pool draws it while the main process folds.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bounds import (McEraState, empirical_peeling, eps_bound, mcera,
                     sufficient_sample_size, xi_floor)
from .graph import Graph
from .percolation import PercolationModel
from .rng import BOOTSTRAP_STREAM, ESTIMATE_STREAM, SampleStream
from .sampling import (DEFAULT_BAG_CAP, NO_CONTRIBUTION, BfsWorkspace,
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


def stopping_condition(epsilon: float, xi_values, ceiling: int, r_i: int) -> bool:
    """True once every class bound is within epsilon or the ceiling is hit."""
    xi = np.asarray(xi_values, dtype=np.float64)
    return bool(np.all(xi <= epsilon)) or r_i >= ceiling


def _draw_pair_sample(graph: Graph, model: PercolationModel, rng,
                      alpha: float, cap: int, ws: BfsWorkspace | None = None):
    """One pair sample: (sparse contribution, internal-length obs, capped)."""
    s, z = sample_pair(graph.n, rng)
    meet = balanced_bidirectional_bfs(graph, s, z, ws)
    obs = float(meet.dist - 1) if meet.connected else 0.0
    if not meet.connected or model.pair_weight(s, z) == 0.0:
        return NO_CONTRIBUTION, obs, False
    bag = sample_paths(meet, alpha, rng, cap=cap)
    return bag_estimate(bag, model), obs, bag.capped


def _iterations(stream: SampleStream, state: McEraState, sum_f: np.ndarray, target: int,
                step, could_stop, contrib_of=lambda sample: sample):
    """Iterations i = 1, 2, ... of a progressive run: fold ``stream``'s
    samples up to ``target`` (``contrib_of`` picks a sample's
    contribution) into ``sum_f`` and ``state`` in index order, yield i,
    then go on to ``step(target)``. The caller stops only at an iteration
    where ``could_stop(r, i)`` holds, so the samples up to the first
    planned target at which it holds are reserved first: each of them is
    folded, as long as the caller's conditions only move that target
    later while it runs."""
    i = 0
    while True:
        i += 1
        ahead, j = target, i
        while not could_stop(ahead, j):
            ahead, j = step(ahead), j + 1
        stream.reserve(ahead)
        signs = state.signs_for_block(target - state.r)
        for row, sample in zip(signs, stream.take(target)):
            contrib = contrib_of(sample)
            sum_f[contrib.idx] += contrib.val
            state.add_sample(contrib, row)
        yield i
        target = step(target)


def estimate(graph: Graph, model: PercolationModel, config: ScheduleConfig,
             seed: int, pool=None) -> RunReport:
    """Full progressive run; see the module docstring for the phases. The
    samples are drawn in ``pool``'s workers when given (``workers.open_pool``)."""
    if graph.n < 3:
        raise ValueError("need at least 3 vertices for internal vertices to exist")
    if model.n != graph.n:
        raise ValueError("model and graph disagree on vertex count")
    n = graph.n
    min_rho = 1.0 / (n * (n - 1))
    t0 = time.perf_counter()
    draw = bind(_draw_pair_sample, graph, model, pool, alpha=config.alpha, cap=config.bag_cap)

    # bootstrap: squared contributions for peeling, distances for rho
    r_boot = config.bootstrap_size
    sq_boot = np.zeros(n)
    internal_sum = 0.0
    cap_events = 0

    def fold(sample):
        """A pair sample's contribution; its internal length and cap flag
        are counted on the way."""
        nonlocal internal_sum, cap_events
        contrib, obs, capped = sample
        internal_sum += obs
        cap_events += capped
        return contrib

    with SampleStream(draw, seed, BOOTSTRAP_STREAM, pool) as boot:
        for contrib in map(fold, boot.take(r_boot)):
            sq_boot[contrib.idx] += contrib.val * contrib.val

    rho_substituted = False
    rho = internal_sum / r_boot
    if rho == 0.0:
        rho = min_rho
        rho_substituted = True

    partition = empirical_peeling(sq_boot, r_boot, config.delta)
    del sq_boot
    sizes = np.bincount(partition.class_of, minlength=partition.t)
    occupied = sizes > 0
    # every vertex lives in some occupied class, so their largest bound
    # covers the whole family; floored at epsilon to keep the ceiling's
    # log term bounded when the empirical variances are all near zero
    vhat_classes = float(partition.var_bound[occupied].max())
    vhat = min(0.25, max(vhat_classes, config.epsilon))
    ceiling = sufficient_sample_size(vhat, rho, config.epsilon, config.delta / 2.0)
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
    state = McEraState(n=n, c=config.mc_trials, seed=seed)
    sum_f = np.zeros(n)
    # empty classes hold no functions: their deviation is trivially zero
    xi = occupied.astype(float)

    with SampleStream(draw, seed, ESTIMATE_STREAM, pool) as stream:
        for iterations in _iterations(stream, state, sum_f, min(config.first_target, ceiling),
                                      step, could_stop, fold):
            # refresh rho and, one-sidedly, the ceiling
            rho = internal_sum / (r_boot + state.r)
            if rho == 0.0:
                rho = min_rho
                rho_substituted = True
            ceiling = max(ceiling, sufficient_sample_size(
                vhat, rho, config.epsilon, config.delta / 2.0))

            # while the run cannot stop, the bounds are not evaluated
            if could_stop(state.r, iterations):
                delta_b = 0.8 * config.delta_iter(iterations)
                rc, wimpy = mcera(state, partition.class_of, sizes)
                for j in np.flatnonzero(occupied):
                    xi[j] = eps_bound(float(rc[j]), float(wimpy[j]),
                                      float(partition.var_bound[j]), partition.t,
                                      config.mc_trials, state.r, delta_b)
                if stopping_condition(config.epsilon, xi, ceiling, state.r):
                    break

    stop_reason = "eps-met" if bool(np.all(xi <= config.epsilon)) else "ceiling-hit"
    return RunReport(
        estimates=np.divide(sum_f, state.r, out=sum_f),
        r_final=state.r,
        iterations=iterations,
        xi_per_class=xi.copy(),
        var_bound_per_class=partition.var_bound.copy(),
        rho_estimate=rho,
        ceiling=ceiling,
        stop_reason=stop_reason,
        seed=seed,
        elapsed_bootstrap=elapsed_boot,
        elapsed_estimation=time.perf_counter() - t1,
        config=config.as_dict(),
        all_states_equal=model.all_equal,
        rho_substituted=rho_substituted,
        bag_cap_events=cap_events,
    )
