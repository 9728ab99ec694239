"""Deterministic stream derivation for samplers and Rademacher signs.

Every random quantity in a run is keyed by (master seed, stream tag,
counter), so streams can be extended or split into blocks for workers
without replaying earlier draws, and a run gives the same bits at any
worker count.
"""

from __future__ import annotations

from collections import deque
from functools import partial

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


_BLOCK = 64         # most samples per block; no result depends on it


class SampleStream:
    """The samples ``sampler(derive_rng(seed, stream, i))`` of one stream
    for i = 0, 1, ..., handed out in index order by ``take``.
    Sample i draws only from its own generator, so it is the same however
    the index range is split into blocks.

    A caller that is certain to take every index below some bound says so
    with ``reserve``, which cuts the new indices into blocks of at most
    ``_BLOCK`` and queues them all. Without a ``pool`` each block is drawn
    here when it is taken. With one (``workers.open_pool``) the blocks are
    pool jobs, which the workers draw while the caller folds earlier ones;
    ``sampler``, made by ``workers.bind``, pickles small and runs in a
    worker or here alike. A reservation made while nothing is queued is
    split in one share per worker plus one, the first, which this process
    draws itself when it takes it rather than wait on a worker for it.
    Nothing past the reserved bound is drawn, and ``close`` (or leaving a
    ``with`` block) cancels the jobs not started.
    """

    def __init__(self, sampler, seed: int, stream: int, pool=None):
        self._job = partial(_draw_block, sampler, seed, stream)
        self._pool = pool
        self._processes = 0 if pool is None else pool.processes
        self._taken = self._sent = 0
        self._jobs = deque()        # queued blocks (futures or _Here), in index order
        self._ready = iter(())      # the rest of the block being handed out

    def reserve(self, stop: int) -> None:
        """Every index below ``stop`` will be taken: the pool may draw them."""
        if stop <= self._sent:
            return
        shares = max(1, self._processes + (not self._jobs))
        size = min(_BLOCK, -(-(stop - self._sent) // shares))
        for start in range(self._sent, stop, size):
            block = range(start, min(start + size, stop))
            # with nothing queued, or no pool, the block is drawn here when taken
            self._jobs.append(self._pool.submit(self._job, block)
                              if self._jobs and self._pool is not None
                              else _Here(self._job, block))
        self._sent = stop

    def take(self, stop: int):
        """The samples of the indices from the first one not yet taken up to
        ``stop``, in index order; the range counts as reserved."""
        self.reserve(stop)
        while self._taken < stop:
            sample = next(self._ready, _DONE)
            if sample is _DONE:
                self._ready = iter(self._jobs.popleft().result())
                continue
            self._taken += 1
            yield sample

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


def _draw_block(sampler, seed: int, stream: int, block: range) -> list:
    return [sampler(derive_rng(seed, stream, i)) for i in block]


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
