"""Percolation states and the pair-difference weights built on them.

The central quantity is, for each vertex v, the sum of ramp differences
R(x_u - x_w) = max(0, x_u - x_w) over all ordered pairs (u, w) avoiding v.
It is the denominator of the per-path weight ``kappa`` and is computed for
all vertices at once in O(n log n) with a sort and prefix sums.
"""

from __future__ import annotations

import numpy as np


def ramp(x: float) -> float:
    """max(0, x)."""
    return x if x > 0.0 else 0.0


def percolation_differences(states) -> tuple[float, np.ndarray]:
    """Total ramp-difference sum and the per-vertex exclusion sums.

    Returns ``(total, minus_s)`` where ``total`` is the sum of
    R(x_j - x_i) over all ordered pairs and ``minus_s[v]`` the same sum
    restricted to pairs not involving v. Works on a sorted copy; the
    result is indexed by the original vertex order. Without ties the
    sorting permutation is unique, so any sort gives the same bits; with
    them the bits depend on the tied states' order, and the sort is
    redone stably. Each step writes over an array a finished step no
    longer reads, so besides ``states`` and the sort order at most four
    n-sized float arrays are held; the values are those of the plain
    expressions in the comments.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("states must be a nonempty 1-d vector")
    if not np.all((x >= 0.0) & (x <= 1.0)):      # also rejects NaN
        raise ValueError("percolation states must lie in [0, 1]")
    n = x.size
    order = np.argsort(x)
    a = x[order]
    if (a[1:] == a[:-1]).any():     # tied states: only a stable order fixes the bits
        order = np.argsort(x, kind="stable")
        a = x[order]
    pref = np.empty(n + 1)                       # concatenate(([0.0], cumsum(a)))
    pref[0] = 0.0
    np.cumsum(a, out=pref[1:])
    idx = np.arange(n, dtype=np.float64)
    # for sorted a: pairs below i and pairs above i; ties contribute zero
    below = idx * a
    below -= pref[:n]                            # idx * a - pref[:n]
    above = np.subtract(pref[n], pref[1:], out=pref[1:])
    np.subtract(n - 1, idx, out=idx)
    idx *= a
    above -= idx                                 # (pref[n] - pref[1:]) - (n - 1 - idx) * a
    del idx
    total = float(below.sum())
    sorted_minus = np.subtract(total, below, out=below)
    sorted_minus -= above                        # total - below - above
    del above
    # guard the tiny negatives left by cancellation; exact zero for equal states
    np.maximum(sorted_minus, 0.0, out=sorted_minus)
    minus_s = a                                  # a is read no more
    minus_s[order] = sorted_minus
    return total, minus_s


class PercolationModel:
    """Immutable bundle of states, exclusion sums, and the global total."""

    def __init__(self, states):
        self.x = np.array(states, dtype=np.float64)
        self.total, self.minus_s = percolation_differences(self.x)
        self.x.flags.writeable = False
        self.minus_s.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def all_equal(self) -> bool:
        return self.total == 0.0

    def pair_weight(self, s: int, z: int) -> float:
        """R(x_s - x_z), the unnormalized weight of the ordered pair."""
        return ramp(float(self.x[s] - self.x[z]))


def random_states(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform [0,1] states; identical bits for identical (n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.random.Generator(np.random.PCG64(seed)).random(n)


def load_states(source, graph=None) -> np.ndarray:
    """Read one state per line of the text stream ``source``; '#'-prefixed
    header lines are skipped.

    Line i (after comments) is the state of dense vertex i, i.e. of the
    i-th original id in first-appearance order. When ``graph`` is given
    the count is validated against it.
    """
    vals = []
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            vals.append(float(stripped))
        except ValueError:
            raise ValueError(f"states line {lineno}: not a number: {stripped!r}") from None
    states = np.asarray(vals, dtype=np.float64)
    if graph is not None and states.size != graph.n:
        raise ValueError(f"states file has {states.size} values, graph has {graph.n} vertices")
    return states
