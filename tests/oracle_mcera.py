"""Reference MC-ERA state: the dense n-row accumulators that the
first-touch sparse ``McEraState`` replaced.

Kept only as a test oracle. ``McEraState``, ``wimpy_variance`` and
``mcera`` are the dense bodies verbatim: one row per vertex, touched or
not, and every class evaluated over all of its members' rows.
``dense_sums`` expands a sparse state into the same n-row arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from percolator.rng import rademacher_signs
from percolator.sampling import Contribution

log = logging.getLogger(__name__)


@dataclass
class McEraState:
    """Accumulators for the c-trial Monte-Carlo Rademacher average.

    ``signed_sums[v, k]`` is the running sum of sign * f_v over samples,
    ``sq_sums[v]`` the running sum of f_v squared; signs come from the
    counter-based stream keyed by (seed, sample index, trial).
    """

    n: int
    c: int
    seed: int
    r: int = 0
    signed_sums: np.ndarray = field(init=False)
    sq_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        self.signed_sums = np.zeros((self.n, self.c))
        self.sq_sums = np.zeros(self.n)

    def signs_for_block(self, count: int) -> np.ndarray:
        """Sign rows for the next ``count`` samples (row i -> sample r+i)."""
        return rademacher_signs(self.seed, self.r, count, self.c)

    def add_sample(self, contrib: Contribution, signs: np.ndarray) -> None:
        """Fold one sample's sparse contributions in; advances r."""
        self.signed_sums[contrib.idx] += contrib.val[:, None] * signs
        self.sq_sums[contrib.idx] += contrib.val * contrib.val
        self.r += 1


def wimpy_variance(state: McEraState, members: np.ndarray) -> float:
    """Largest mean-of-squares over the class: max_v sq_sums[v] / r."""
    if state.r < 1:
        raise ValueError("wimpy variance needs at least one sample")
    if members.size == 0:
        log.debug("wimpy variance of an empty class, returning 0")
        return 0.0
    return float(state.sq_sums[members].max() / state.r)


def mcera(state: McEraState, members: np.ndarray) -> float:
    """Monte-Carlo Rademacher average of the class, sup taken as-is.

    (1/c) * sum over trials of max_v signed_sums[v, k] / r; may be
    negative, no clamping here.
    """
    if state.r < 1:
        raise ValueError("mcera needs at least one sample")
    if members.size == 0:
        log.debug("mcera of an empty class, returning 0")
        return 0.0
    per_trial = state.signed_sums[members].max(axis=0) / state.r
    return float(per_trial.mean())


def dense_sums(state) -> tuple[np.ndarray, np.ndarray]:
    """A sparse ``percolator.McEraState``'s sums as (n x c, n) arrays."""
    signed = np.zeros((state.n, state.c))
    sq = np.zeros(state.n)
    touched = np.nonzero(state.row_of >= 0)[0]
    signed[touched] = state.signed_sums[state.row_of[touched]]
    sq[touched] = state.sq_sums[state.row_of[touched]]
    return signed, sq
