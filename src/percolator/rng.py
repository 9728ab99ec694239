"""Deterministic stream derivation for samplers and Rademacher signs.

Every random quantity in a run is keyed by (master seed, stream tag,
counter), so streams can be extended or sharded across workers without
replaying earlier draws, and single-threaded runs are bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import count

import numpy as np

_MASK = (1 << 64) - 1
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15

# stream tags
BOOTSTRAP_STREAM = 1
ESTIMATE_STREAM = 2
LAMBDA_STREAM = 3
BASELINE_STREAM = 4
DIAMETER_STREAM = 97    # eccentricity probes of the vertex-diameter bound


def mix64(value: int) -> int:
    """SplitMix64 finalizer; a cheap, well-distributed 64-bit hash."""
    x = value & _MASK
    x = ((x ^ (x >> 30)) * _MULT1) & _MASK
    x = ((x ^ (x >> 27)) * _MULT2) & _MASK
    return x ^ (x >> 31)


def combine(*parts: int) -> int:
    h = _GOLDEN
    for p in parts:
        h = mix64(h ^ mix64((p & _MASK) + _GOLDEN))
    return h


def derive_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Private generator for one (seed, stream, counter) triple."""
    return np.random.Generator(np.random.PCG64(combine(seed, stream, index)))


_BLOCK = 64         # most samples per pool job; no result depends on it
_IN_FLIGHT = 2      # blocks queued per worker


class SampleStream:
    """The samples ``sampler(derive_rng(seed, stream, i))`` of one stream
    for i = 0, 1, ..., handed out in index order by ``take``.
    Sample i draws only from its own generator, so it is the same however
    the index range is split.

    With a ``pool`` (``workers.open_pool``) the samples are drawn by
    ``sampler``, made by ``workers.bind`` so that it pickles small and
    runs in a worker or in this process alike. A caller that is certain to
    take every index below some bound says so with ``reserve``; the
    workers then draw those blocks while the caller folds earlier ones.
    A reservation made while nothing is queued is split in one share per
    worker plus one, which this process draws itself when it takes it,
    rather than wait on a worker for it. Nothing past the reserved bound
    is drawn, at most ``_IN_FLIGHT`` blocks per worker are queued, and
    ``close`` (or leaving a ``with`` block) cancels the ones not started.
    """

    def __init__(self, sampler, seed: int, stream: int, pool=None):
        self._job = partial(_draw_block, sampler, seed, stream)
        self._pool = pool
        self._taken = self._sent = self._reserved = 0
        self._jobs = deque()        # queued blocks (futures or _Here), in index order
        if pool is None:
            self._ready = _draw(sampler, seed, stream, count())
        else:
            self._ready = iter(())      # the rest of the block being handed out
            self._workers = pool._max_workers   # the executor's size

    def reserve(self, stop: int) -> None:
        """Every index below ``stop`` will be taken: the pool may draw them."""
        if stop > self._reserved:
            self._reserved = stop
            if self._pool is not None:
                shares = self._workers + (not self._jobs)
                self._size = min(_BLOCK, -(-(stop - self._sent) // shares))
                self._send()

    def take(self, stop: int):
        """The samples of the indices from the first one not yet taken up to
        ``stop``, in index order; the range counts as reserved."""
        self.reserve(stop)
        while self._taken < stop:
            sample = next(self._ready, _DONE)
            if sample is _DONE:
                self._ready = iter(self._jobs.popleft().result())
                self._send()
                continue
            self._taken += 1
            yield sample

    def _send(self) -> None:
        while self._sent < self._reserved and len(self._jobs) < _IN_FLIGHT * self._workers:
            block = range(self._sent, min(self._sent + self._size, self._reserved))
            # with nothing queued, the next block is drawn here when taken
            self._jobs.append(self._pool.submit(self._job, block) if self._jobs
                              else _Here(self._job, block))
            self._sent = block.stop

    def close(self) -> None:
        for job in self._jobs:
            job.cancel()
        self._jobs.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Here:
    """A block that this process draws when its result is asked for."""

    def __init__(self, job, block: range):
        self.result = partial(job, block)

    def cancel(self) -> bool:
        return True


_DONE = object()


def _draw(sampler, seed: int, stream: int, indices):
    return (sampler(derive_rng(seed, stream, i)) for i in indices)


def _draw_block(sampler, seed: int, stream: int, block: range) -> list:
    return list(_draw(sampler, seed, stream, block))


def rademacher_signs(seed: int, start: int, count: int, c: int) -> np.ndarray:
    """(count, c) matrix of +-1 signs for sample indices [start, start+count).

    Entry (i, k) depends only on (seed, start + i, k), so growing a sign
    matrix column-by-column never changes previously issued columns.
    """
    base = np.uint64(mix64(combine(seed, LAMBDA_STREAM)))
    i = np.arange(start, start + count, dtype=np.uint64)[:, None]
    k = np.arange(c, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        x = base ^ (i * np.uint64(_MULT1)) ^ (k * np.uint64(_MULT2))
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MULT1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MULT2)
        x ^= x >> np.uint64(31)
    return np.where((x >> np.uint64(63)).astype(bool), 1.0, -1.0)
