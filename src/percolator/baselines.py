"""Prior estimators used as comparison baselines.

``run_prk_fixed`` draws a vertex-diameter-sized batch of single-path
samples. ``run_pab_naive`` grows a pair sample under a doubling schedule
and stops on a plain Rademacher-average deviation bound; it stands in
for the earlier progressive approach (whose internals are not
reproduced here) and is labeled "naive" in its output accordingly. It
runs on the progressive estimator's loop, ``progressive._iterations``,
and keeps only its schedule and its bound.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bounds import McEraState, era_upper_bound, mcera, vd_baseline_sample_size
from .exact import exact_vertex_diameter
from .graph import Graph
from .percolation import PercolationModel
from .progressive import ScheduleConfig, _iterations
from .rng import BASELINE_STREAM, SampleStream
from .sampling import pab_sample, prk_sample, sample_pair
from .workers import bind


# the samplers a pool job names: private, as pickle looks them up by name
def _prk_draw(graph: Graph, model: PercolationModel, rng, ws):
    return prk_sample(graph, model, rng, ws)


def _pab_draw(graph: Graph, model: PercolationModel, rng, ws):
    return pab_sample(graph, model, *sample_pair(graph.n, rng), ws=ws)


def run_prk_fixed(graph: Graph, model: PercolationModel, config: ScheduleConfig,
                  seed: int, vertex_diameter: int | None = None, pool=None) -> dict:
    """Fixed sample size from the vertex-diameter bound at ``config``'s
    epsilon and delta, single-path draws, in ``pool``'s workers when given
    (``workers.open_pool``). Without ``vertex_diameter`` it runs
    ``exact_vertex_diameter``, an O(n*m) pass, in the same pool."""
    if model.n != graph.n:
        raise ValueError("model and graph disagree on vertex count")
    t0 = time.perf_counter()
    if vertex_diameter is None:
        vertex_diameter = exact_vertex_diameter(graph, pool=pool)
    vd_elapsed = time.perf_counter() - t0

    samples = vd_baseline_sample_size(vertex_diameter, config.epsilon, config.delta)
    t1 = time.perf_counter()
    state = McEraState(n=graph.n, c=0, seed=seed)
    with SampleStream(bind(_prk_draw, graph, model, pool), seed, BASELINE_STREAM, pool) as stream:
        next(_iterations(stream, state, samples))
    return {
        "algorithm": "p-rk-fixed",
        "estimates": state.estimates(),
        "r_final": samples,
        "iterations": 1,
        "stop_reason": "fixed-size",
        "vertex_diameter": int(vertex_diameter),
        "seed": seed,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "elapsed_bootstrap": vd_elapsed,
        "elapsed_estimation": time.perf_counter() - t1,
    }


def run_pab_naive(graph: Graph, model: PercolationModel, config: ScheduleConfig,
                  seed: int, max_samples: int = 1 << 20, pool=None) -> dict:
    """Doubling schedule on pair samples with a whole-family bound, drawn
    in ``pool``'s workers when given (``workers.open_pool``).

    The stop rule chains the Monte-Carlo Rademacher average through the
    standard symmetrization constants, with no variance partitioning;
    intentionally looser than the progressive estimator's rule. Epsilon,
    delta, the trial count, the first target and the per-iteration delta
    shares are ``config``'s.
    """
    if model.n != graph.n:
        raise ValueError("model and graph disagree on vertex count")
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    t0 = time.perf_counter()
    n = graph.n
    state = McEraState(n=n, c=config.mc_trials, seed=seed)
    # the whole family as one class
    one_class, sizes = np.zeros(n, dtype=np.int8), np.array([n])

    def floor(r: int, i: int) -> float:
        """xi at iteration i and r samples less its Rademacher term 2 * era >= 0."""
        return 3.0 * math.sqrt(math.log(8.0 / config.delta_iter(i)) / (2.0 * r))

    def could_stop(r: int, i: int) -> bool:
        return floor(r, i) <= config.epsilon or r >= max_samples

    def step(target: int) -> int:
        return min(2 * target, max_samples)

    xi = math.inf
    with SampleStream(bind(_pab_draw, graph, model, pool), seed, BASELINE_STREAM, pool) as stream:
        for iterations in _iterations(stream, state, min(config.first_target, max_samples),
                                      step, could_stop):
            # below the cap, xi >= floor > epsilon: the bound is not evaluated
            if could_stop(state.r, iterations):
                (rc,), (wimpy,) = mcera(state, one_class, sizes)
                era = era_upper_bound(max(float(rc), 0.0), float(wimpy), config.mc_trials,
                                      state.r, config.delta_iter(iterations) / 2.0)
                xi = 2.0 * era + floor(state.r, iterations)
                if xi <= config.epsilon or state.r >= max_samples:
                    break

    return {
        "algorithm": "p-ab-progressive-naive",
        "estimates": state.estimates(),
        "r_final": state.r,
        "iterations": iterations,
        "stop_reason": "eps-met" if xi <= config.epsilon else "ceiling-hit",
        "xi_final": xi,
        "seed": seed,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "mc_trials": config.mc_trials,
        "elapsed_bootstrap": 0.0,
        "elapsed_estimation": time.perf_counter() - t0,
    }
