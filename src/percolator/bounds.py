"""Statistical machinery for the progressive estimator.

Holds the one accumulator of a run's samples (plain and squared sums,
signed sums for the Rademacher trials, one row per vertex the run has
touched, and the samples' tallies), the supremum-deviation bounds
computed from it together with their data-free floor, the
variance-based empirical peeling of vertices into classes, and the two
sufficient-sample-size formulas (the variance-aware one and the
vertex-diameter baseline used for comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import rademacher_signs
from .sampling import Contribution


@dataclass
class Partition:
    """Vertices grouped into variance classes, highest variance first.

    ``var_bound[j]`` upper-bounds the true variance of every estimator
    function in class j; bounds are nonincreasing in j and at most 1/4.
    """

    t: int
    class_of: np.ndarray           # per-vertex class index in [0, t), int8 (t <= 34)
    var_bound: np.ndarray          # per-class bound, in (0, 1/4]
    sizes: np.ndarray              # per-class member count


@dataclass
class McEraState:
    """The one accumulator of a run's samples: sums for the c-trial
    Monte-Carlo Rademacher average, plain and squared sums, and tallies.

    Rows are allocated in first-touch order: ``row_of[v]`` is vertex v's
    row, -1 until a sample first gives v a nonzero value. For a touched
    v, ``signed_sums[row_of[v], k]`` is the running sum of sign * f_v over
    samples, ``sums[row_of[v]]`` that of f_v and ``sq_sums[row_of[v]]``
    that of f_v squared; an untouched vertex's sums are exactly zero.
    Signs come from the counter-based stream keyed by (seed, sample index,
    trial); ``c = 0`` keeps no signed sums, for runs that never evaluate
    the Monte-Carlo Rademacher average. ``internal`` and ``capped`` total
    the samples' fields of the same names, from the counts given (a main
    loop's state starts from its bootstrap's). Only the first ``rows`` rows
    are in use, ``vertex_of[:rows]`` names their vertices; the arrays grow
    by doubling. ``row_of`` is int32 below 2^31 vertices, since rows
    number at most n: half an int64 array. The one n-vector that
    ``dense`` fills is made with the state, so that it takes the room a
    finished state left rather than extend the heap at the run's end.
    """

    n: int
    c: int
    seed: int
    r: int = 0
    internal: int = 0
    capped: int = 0
    rows: int = field(default=0, init=False)
    row_of: np.ndarray = field(init=False)
    vertex_of: np.ndarray = field(init=False)
    signed_sums: np.ndarray = field(init=False)
    sums: np.ndarray = field(init=False)
    sq_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        self.row_of = np.full(self.n, -1,
                              dtype=np.int32 if self.n < 2 ** 31 else np.int64)
        self._dense = np.zeros(self.n)
        self.vertex_of = np.zeros(0, dtype=np.int64)
        self.signed_sums = np.zeros((0, self.c))
        self.sums, self.sq_sums = np.zeros(0), np.zeros(0)

    def signs_for_block(self, count: int) -> np.ndarray:
        """Sign rows for the next ``count`` samples (row i -> sample r+i)."""
        return rademacher_signs(self.seed, self.r, count, self.c)

    def add_sample(self, contrib: Contribution, signs: np.ndarray) -> None:
        """Fold one sample's record in; advances r."""
        rows = self.row_of[contrib.idx]
        fresh = (rows < 0).nonzero()[0]
        if fresh.size:
            rows[fresh] = self._allocate(contrib.idx[fresh])
        self.signed_sums[rows] += contrib.val[:, None] * signs
        self.sums[rows] += contrib.val
        self.sq_sums[rows] += contrib.val * contrib.val
        self.internal += contrib.internal
        self.capped += contrib.capped
        self.r += 1

    def dense(self, per_row: np.ndarray) -> np.ndarray:
        """``per_row`` (``sums`` or ``sq_sums``) as an n-vector, 0 where
        untouched: the state's one n-vector, which the next call overwrites."""
        self._dense[self.vertex_of[:self.rows]] = per_row[:self.rows]
        return self._dense

    def estimates(self) -> np.ndarray:
        """The sample means of f, in the state's one n-vector, divided in place."""
        return np.divide(self.dense(self.sums), self.r, out=self._dense)

    def _allocate(self, vertices: np.ndarray) -> np.ndarray:
        """Zeroed rows for first-touched ``vertices``, in order."""
        new = np.arange(self.rows, self.rows + vertices.size, dtype=np.int64)
        self.rows += vertices.size
        if self.rows > self.sums.size:
            # a power of two, at least double the old capacity, up to n
            size = min(self.n, max(64, 1 << (self.rows - 1).bit_length()))
            old = (self.signed_sums, self.sums, self.sq_sums, self.vertex_of)
            grown = [np.zeros((size, *a.shape[1:]), a.dtype) for a in old]
            for a, b in zip(grown, old):
                a[:len(b)] = b
            self.signed_sums, self.sums, self.sq_sums, self.vertex_of = grown
        self.row_of[vertices] = new
        self.vertex_of[new] = vertices
        return new


def mcera(state: McEraState, class_of: np.ndarray,
          sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Rademacher average and wimpy variance of each of the
    classes of ``class_of``, whose member counts are ``sizes`` (t = its
    length), from one pass over the touched rows.

    ``rc[j]`` is (1/c) * sum over trials of max_v signed_sums[v, k] / r,
    taken as-is (it may be negative, no clamping here); ``wimpy[j]`` is
    max_v sq_sums[v] / r; both maxima run over class j's members. An
    untouched member's sums are exactly 0, so they join both maxima; an
    empty class holds no function and gets 0 for both. Maxima do not
    depend on the order of their terms, so the rows are read in row order.
    """
    if state.r < 1:
        raise ValueError("mcera needs at least one sample")
    t, rows = sizes.size, state.rows
    cls = class_of[state.vertex_of[:rows]]
    # only a nonempty class touched throughout has no exact 0 in its maxima
    whole = (np.bincount(cls, minlength=t) == sizes) & (sizes > 0)
    top = np.repeat(np.where(whole, -np.inf, 0.0)[:, None], state.c, axis=1)
    np.maximum.at(top, cls, state.signed_sums[:rows])
    # sums of squares are >= 0, so 0 can start every class's max
    sq_top = np.zeros(t)
    np.maximum.at(sq_top, cls, state.sq_sums[:rows])
    return (top / state.r).mean(axis=1), sq_top / state.r


def era_upper_bound(rc: float, wimpy: float, c: int, r: int, delta: float) -> float:
    """Probabilistic upper bound on the true Rademacher average."""
    return rc + math.sqrt(4.0 * wimpy * math.log(1.0 / delta) / (c * r))


def eps_bound(rc: float, wimpy: float, var_bound: float, t: int,
              c: int, r: int, delta: float) -> float:
    """Upper bound xi on the supremum deviation of one class.

    Chains the Monte-Carlo Rademacher average through its concentration
    terms; ``delta`` is this class's share of the failure probability.
    A negative Rademacher estimate is floored at zero before entering
    the square roots (loosening only).
    """
    ell = math.log(4.0 * t / delta)
    r_tilde = max(0.0, era_upper_bound(rc, wimpy, c, r, delta / (4.0 * t)))
    lr = ell / r
    r_i = r_tilde + lr + math.sqrt(lr * lr + 2.0 * lr * r_tilde)
    return 2.0 * r_i + math.sqrt(2.0 * ell * (var_bound + 4.0 * r_i) / r) + ell / (3.0 * r)


def xi_floor(var_bound: float, t: int, r: int, delta: float) -> float:
    """Lowest value ``eps_bound`` can take for a class with variance bound
    ``var_bound`` at (t, r, delta).

    ``eps_bound`` does not decrease in ``rc`` or ``wimpy`` and floors the
    Rademacher term at zero, so its value with both at zero bounds the
    class's xi from below whatever the samples; it does not depend on c.
    It is computed through ``eps_bound`` itself because correctly rounded
    +, sqrt and max are monotone, so the float floor holds exactly as well.
    """
    return eps_bound(0.0, 0.0, var_bound, t, 1, r, delta)


def _bennett_h(x: float) -> float:
    return (1.0 + x) * math.log1p(x) - x


def _phi_denominator(x: float, eps: float) -> float:
    g = x * (1.0 - x)
    return g * _bennett_h(eps / g)


def _xhat(var_bound: float, eps: float) -> float:
    """Upper end of the search interval for the numeric sample-size sup."""
    lo = 0.5 - math.sqrt(eps / 3.0 - eps * eps / 9.0)
    hi = 0.5
    # phi is decreasing in x on (0, 1/2]; find the smallest x in [lo, hi]
    # where it drops to 2 eps^2 (always satisfied at 1/2)
    target = 2.0 * eps * eps
    if _phi_denominator(lo, eps) <= target:
        xhat1 = lo
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _phi_denominator(mid, eps) <= target:
                hi = mid
            else:
                lo = mid
        xhat1 = hi
    xhat2 = 0.5 - math.sqrt(max(0.0, 0.25 - var_bound))
    return min(xhat1, xhat2)


def sufficient_sample_size_closed_form(var_bound: float, psi_ub: float,
                                       eps: float, delta: float) -> float:
    """Bernstein-shaped closed-form sample count (before rounding)."""
    log_term = max(0.0, math.log(2.0 * psi_ub / var_bound)) + math.log(1.0 / delta)
    return (2.0 * var_bound + 2.0 * eps / 3.0) / (eps * eps) * log_term


def sufficient_sample_size(var_bound: float, psi_ub: float,
                           eps: float, delta: float) -> int:
    """Samples sufficient for a uniform eps-approximation w.p. 1 - delta.

    ``var_bound`` bounds the estimators' maximum variance, ``psi_ub``
    the sum of all centralities (the average-internal-nodes estimate is
    the usual caller value). Returns the ceiling of the larger of the
    closed form and the numeric supremum it approximates.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    if not 0.0 < var_bound <= 0.25:
        raise ValueError("var_bound must lie in (0, 1/4]")
    if psi_ub <= 0.0:
        raise ValueError("psi_ub must be positive")
    closed = sufficient_sample_size_closed_form(var_bound, psi_ub, eps, delta)

    xhat = _xhat(var_bound, eps)

    def objective(x: float) -> float:
        num = math.log(2.0 * psi_ub * xhat / (x * delta))
        if num <= 0.0:
            return 0.0
        return num / _phi_denominator(x, eps)

    # coarse log-spaced grid, then golden-section around the best point
    grid = np.exp(np.linspace(math.log(xhat * 1e-9), math.log(xhat * (1 - 1e-12)), 200))
    vals = [objective(float(x)) for x in grid]
    best = int(np.argmax(vals))
    lo = float(grid[max(0, best - 1)])
    hi = float(grid[min(len(grid) - 1, best + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
    numeric = max(vals[best], f1, f2)
    return max(1, int(math.ceil(max(closed, numeric))))


def empirical_peeling(sq_sums: np.ndarray, r: int, delta: float) -> Partition:
    """Group vertices into geometric variance buckets with safe bounds.

    Bucket j < t-1 holds vertices whose empirical mean square falls in
    (4^-(j+2), 4^-(j+1)]; the last bucket catches everything smaller
    (zeros included). Each class's variance bound is its bucket edge
    plus a one-sided empirical-Bernstein slack at confidence
    delta / (2t), clamped to 1/4. Only the vertices with a nonzero sum
    are classified; every other one lands in the last bucket, whose
    largest member zeros cannot raise.
    """
    if r < 1:
        raise ValueError("peeling needs at least one bootstrap sample")
    nz = np.flatnonzero(sq_sums)
    what = sq_sums[nz] / r
    t = int(math.ceil(math.log(r) / math.log(4.0))) + 2     # at most 34 for r < 2^63
    edges = 0.25 ** np.arange(1, t + 1)          # bucket upper edges, descending
    # how many of the inner edges edges[1:] lie strictly below each value
    cls = (t - 1) - np.searchsorted(edges[:0:-1], what, side="left")
    class_of = np.full(sq_sums.size, t - 1, dtype=np.int8)
    class_of[nz] = cls
    # counted on the nonzero vertices: a bincount of class_of would widen it to intp
    sizes = np.bincount(cls, minlength=t)
    sizes[t - 1] += sq_sums.size - nz.size

    ell = math.log(2.0 * t / delta)
    # the catch-all bucket's edge is its largest member (0 when empty)
    top = np.append(edges[:-1], what[cls == t - 1].max(initial=0.0))
    slack = np.sqrt(2.0 * top * ell / r) + ell / (3.0 * r)
    var_bound = np.minimum(0.25, top + slack)
    return Partition(t=t, class_of=class_of, var_bound=var_bound, sizes=sizes)


def vd_baseline_sample_size(vertex_diameter: int, eps: float, delta: float) -> int:
    """Fixed sample size from the vertex-diameter bound, for comparison.

    Scales with log2 of the internal-vertex count of the longest
    shortest path; independent of n.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    if vertex_diameter < 2:
        raise ValueError("vertex diameter must be at least 2")
    if vertex_diameter == 2:
        log_term = 1.0
    else:
        log_term = math.floor(math.log2(vertex_diameter - 2)) + 1.0
    return int(math.ceil(0.5 / (eps * eps) * (log_term + math.log(1.0 / delta))))
