"""Progressive sampling loop with a variance-aware stopping rule.

Bootstrap: a small batch of pair samples fixes the variance classes, an
estimate of the average internal path length, and a hard ceiling on the
sample count. Main loop: the sample grows geometrically; after each
extension a per-class deviation bound is recomputed from the running
Monte-Carlo Rademacher state, and the run stops as soon as every class
is within epsilon or the ceiling is reached. Either exit yields the
(epsilon, delta) guarantee; the delta budget is split half to the
ceiling and half across the iterations.

No class bound can fall below ``xi_floor(t, r, 0.8 * delta_i)``, so
while that floor exceeds epsilon below the ceiling the run cannot stop
and the bounds are not evaluated; the iteration that stops always
evaluates every occupied class, so reports are the same as with an
evaluation on every iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bounds import (McEraState, empirical_peeling, eps_bound, mcera,
                     sufficient_sample_size, wimpy_variance, xi_floor)
from .graph import Graph
from .percolation import PercolationModel
from .rng import BOOTSTRAP_STREAM, ESTIMATE_STREAM, derive_rng
from .sampling import (DEFAULT_BAG_CAP, NO_CONTRIBUTION, BfsWorkspace,
                       bag_estimate, balanced_bidirectional_bfs, sample_pair,
                       sample_paths)


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


def estimate(graph: Graph, model: PercolationModel, config: ScheduleConfig,
             seed: int) -> RunReport:
    """Full progressive run; see the module docstring for the phases."""
    if graph.n < 3:
        raise ValueError("need at least 3 vertices for internal vertices to exist")
    if model.n != graph.n:
        raise ValueError("model and graph disagree on vertex count")
    n = graph.n
    min_rho = 1.0 / (n * (n - 1))
    t0 = time.perf_counter()
    ws = BfsWorkspace(n)

    # bootstrap: squared contributions for peeling, distances for rho
    r_boot = config.bootstrap_size
    sq_boot = np.zeros(n)
    internal_sum = 0.0
    cap_events = 0
    for j in range(r_boot):
        rng = derive_rng(seed, BOOTSTRAP_STREAM, j)
        contrib, obs, capped = _draw_pair_sample(graph, model, rng,
                                                 config.alpha, config.bag_cap, ws)
        internal_sum += obs
        cap_events += capped
        sq_boot[contrib.idx] += contrib.val * contrib.val

    rho_substituted = False
    rho = internal_sum / r_boot
    if rho == 0.0:
        rho = min_rho
        rho_substituted = True

    partition = empirical_peeling(sq_boot, r_boot, config.delta)
    members = [partition.members(j) for j in range(partition.t)]
    occupied = [j for j in range(partition.t) if members[j].size]
    # every vertex lives in some occupied class, so their largest bound
    # covers the whole family; floored at epsilon to keep the ceiling's
    # log term bounded when the empirical variances are all near zero
    vhat_classes = max(float(partition.var_bound[j]) for j in occupied)
    vhat = min(0.25, max(vhat_classes, config.epsilon))
    ceiling = sufficient_sample_size(vhat, rho, config.epsilon, config.delta / 2.0)
    elapsed_boot = time.perf_counter() - t0

    t1 = time.perf_counter()
    state = McEraState(n=n, c=config.mc_trials, seed=seed)
    sum_f = np.zeros(n)
    # empty classes hold no functions: their deviation is trivially zero
    xi = np.zeros(partition.t)
    for j in occupied:
        xi[j] = 1.0
    target = min(config.first_target, ceiling)
    iterations = 0

    while True:
        iterations += 1
        block = target - state.r
        signs = state.signs_for_block(block)
        for b in range(block):
            rng = derive_rng(seed, ESTIMATE_STREAM, state.r)
            contrib, obs, capped = _draw_pair_sample(graph, model, rng,
                                                     config.alpha, config.bag_cap, ws)
            internal_sum += obs
            cap_events += capped
            sum_f[contrib.idx] += contrib.val
            state.add_sample(contrib, signs[b])

        # refresh rho and, one-sidedly, the ceiling
        rho = internal_sum / (r_boot + state.r)
        if rho == 0.0:
            rho = min_rho
            rho_substituted = True
        ceiling = max(ceiling, sufficient_sample_size(
            vhat, rho, config.epsilon, config.delta / 2.0))

        # the per-iteration share enters the bound as 5/delta_i
        delta_b = 0.8 * config.delta_iter(iterations)
        # below the ceiling with the floor above epsilon no class can meet
        # epsilon, so the run cannot stop here: skip the evaluation
        if state.r >= ceiling or xi_floor(partition.t, state.r, delta_b) <= config.epsilon:
            for j in occupied:
                rc = mcera(state, members[j])
                wim = wimpy_variance(state, members[j])
                xi[j] = eps_bound(rc, wim, float(partition.var_bound[j]),
                                  partition.t, config.mc_trials, state.r, delta_b)
            if stopping_condition(config.epsilon, xi, ceiling, state.r):
                break
        target = min(math.ceil(config.geom_ratio * target), ceiling)

    stop_reason = "eps-met" if bool(np.all(xi <= config.epsilon)) else "ceiling-hit"
    return RunReport(
        estimates=sum_f / state.r,
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
