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
    result is indexed by the original vertex order.
    """
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("states must be a nonempty 1-d vector")
    if not np.all((x >= 0.0) & (x <= 1.0)):      # also rejects NaN
        raise ValueError("percolation states must lie in [0, 1]")
    n = x.size
    order = np.argsort(x, kind="stable")
    a = x[order]
    pref = np.concatenate(([0.0], np.cumsum(a)))
    idx = np.arange(n, dtype=np.float64)
    # for sorted a: pairs below i and pairs above i; ties contribute zero
    below = idx * a - pref[:n]
    above = (pref[n] - pref[1:]) - (n - 1 - idx) * a
    total = float(below.sum())
    sorted_minus = total - below - above
    # guard the tiny negatives left by cancellation; exact zero for equal states
    np.maximum(sorted_minus, 0.0, out=sorted_minus)
    minus_s = np.empty(n, dtype=np.float64)
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

    def kappa(self, s: int, z: int, v: int) -> float:
        """Normalized pair weight seen by internal vertex v, in [0, 1].

        Zero when no percolated pair avoiding v exists (minus_s[v] = 0);
        in that degenerate case every admissible numerator is zero too.
        """
        if v == s or v == z:
            raise ValueError(f"internal vertex {v} collides with endpoints ({s}, {z})")
        denom = self.minus_s[v]
        if denom == 0.0:
            return 0.0
        return self.pair_weight(s, z) / denom


def random_states(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform [0,1] states; identical bits for identical (n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.random.Generator(np.random.PCG64(seed)).random(n)


def load_states(source, graph=None) -> np.ndarray:
    """Read one state per line; '#'-prefixed header lines are skipped.

    Line i (after comments) is the state of dense vertex i, i.e. of the
    i-th original id in first-appearance order. When ``graph`` is given
    the count is validated against it.
    """
    own = isinstance(source, str)
    fh = open(source) if own else source
    try:
        vals = []
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                vals.append(float(stripped))
            except ValueError:
                raise ValueError(f"states line {lineno}: not a number: {stripped!r}") from None
    finally:
        if own:
            fh.close()
    states = np.asarray(vals, dtype=np.float64)
    if graph is not None and states.size != graph.n:
        raise ValueError(f"states file has {states.size} values, graph has {graph.n} vertices")
    return states


def save_states(target, states, graph=None) -> None:
    """Write states one per line, after a header naming the id order."""
    own = isinstance(target, str)
    fh = open(target, "w") if own else target
    try:
        if graph is not None:
            fh.write("# ids: " + " ".join(str(i) for i in graph.orig_ids) + "\n")
        for v in np.asarray(states, dtype=np.float64):
            fh.write(f"{v:.17g}\n")
    finally:
        if own:
            fh.close()
