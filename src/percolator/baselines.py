"""Prior estimators used as comparison baselines.

``run_prk_fixed`` draws a vertex-diameter-sized batch of single-path
samples. ``run_pab_naive`` grows a pair sample under a doubling schedule
and stops on a plain Rademacher-average deviation bound; it stands in
for the earlier progressive approach (whose internals are not
reproduced here) and is labeled "naive" in its output accordingly.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bounds import McEraState, era_upper_bound, mcera, vd_baseline_sample_size, wimpy_variance
from .exact import exact_rho_and_diameter
from .graph import Graph
from .percolation import PercolationModel
from .progressive import ScheduleConfig
from .rng import BASELINE_STREAM, derive_rng
from .sampling import BfsWorkspace, pab_sample, prk_sample, sample_pair


def run_prk_fixed(graph: Graph, model: PercolationModel, epsilon: float,
                  delta: float, seed: int,
                  vertex_diameter: int | None = None) -> dict:
    """Fixed sample size from the vertex-diameter bound, single-path draws."""
    t0 = time.perf_counter()
    if vertex_diameter is None:
        _, diameter = exact_rho_and_diameter(graph)
        vertex_diameter = diameter + 1
    vd_elapsed = time.perf_counter() - t0

    samples = vd_baseline_sample_size(vertex_diameter, epsilon, delta)
    t1 = time.perf_counter()
    sum_f = np.zeros(graph.n)
    ws = BfsWorkspace(graph.n)
    for i in range(samples):
        rng = derive_rng(seed, BASELINE_STREAM, i)
        contrib = prk_sample(graph, model, rng, ws)
        sum_f[contrib.idx] += contrib.val
    return {
        "algorithm": "p-rk-fixed",
        "estimates": sum_f / samples,
        "r_final": samples,
        "iterations": 1,
        "stop_reason": "fixed-size",
        "vertex_diameter": int(vertex_diameter),
        "seed": seed,
        "epsilon": epsilon,
        "delta": delta,
        "elapsed_bootstrap": vd_elapsed,
        "elapsed_estimation": time.perf_counter() - t1,
    }


def run_pab_naive(graph: Graph, model: PercolationModel, epsilon: float,
                  delta: float, seed: int, mc_trials: int = 25,
                  max_samples: int = 1 << 20) -> dict:
    """Doubling schedule on pair samples with a whole-family bound.

    The stop rule chains the Monte-Carlo Rademacher average through the
    standard symmetrization constants, with no variance partitioning;
    intentionally looser than the progressive estimator's rule. The first
    target, the per-iteration delta shares and the argument checks are
    ``ScheduleConfig``'s.
    """
    config = ScheduleConfig(epsilon, delta, mc_trials=mc_trials)
    t0 = time.perf_counter()
    n = graph.n
    state = McEraState(n=n, c=mc_trials, seed=seed)
    sum_f = np.zeros(n)
    everyone = np.arange(n)
    target = min(config.first_target, max_samples)
    iterations = 0
    xi = math.inf

    while True:
        iterations += 1
        block = target - state.r
        signs = state.signs_for_block(block)
        for b in range(block):
            rng = derive_rng(seed, BASELINE_STREAM, state.r)
            s, z = sample_pair(n, rng)
            contrib = pab_sample(graph, model, s, z)
            sum_f[contrib.idx] += contrib.val
            state.add_sample(contrib, signs[b])
        delta_i = config.delta_iter(iterations)
        rc = mcera(state, everyone)
        wim = wimpy_variance(state, everyone)
        era = era_upper_bound(max(rc, 0.0), wim, mc_trials, state.r, delta_i / 2.0)
        xi = 2.0 * era + 3.0 * math.sqrt(math.log(8.0 / delta_i) / (2.0 * state.r))
        if xi <= epsilon or state.r >= max_samples:
            break
        target = min(2 * target, max_samples)

    return {
        "algorithm": "p-ab-progressive-naive",
        "estimates": sum_f / state.r,
        "r_final": state.r,
        "iterations": iterations,
        "stop_reason": "eps-met" if xi <= epsilon else "ceiling-hit",
        "xi_final": xi,
        "seed": seed,
        "epsilon": epsilon,
        "delta": delta,
        "mc_trials": mc_trials,
        "elapsed_bootstrap": 0.0,
        "elapsed_estimation": time.perf_counter() - t0,
    }
