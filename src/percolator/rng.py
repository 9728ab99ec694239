"""Deterministic stream derivation for samplers and Rademacher signs.

Every random quantity in a run is keyed by (master seed, stream tag,
counter), so streams can be extended or sharded across workers without
replaying earlier draws, and single-threaded runs are bit-reproducible.
"""

from __future__ import annotations

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


_BLOCK = 64     # samples per pool job; no result depends on it


def draw_samples(sampler, seed: int, stream: int, start: int, stop: int, pool=None):
    """``sampler(rng)`` for the samples ``[start, stop)`` of a stream, in index
    order. Sample i draws only from ``derive_rng(seed, stream, i)``, so it
    is the same however a run splits its index range. With a ``pool``
    (``workers.open_pool``), blocks of ``_BLOCK`` indices are drawn in its
    workers by ``sampler``, made by ``workers.bind`` so that it pickles
    small, and the samples still come in index order."""
    if pool is None:
        for i in range(start, stop):
            yield sampler(derive_rng(seed, stream, i))
        return
    blocks = [range(i, min(i + _BLOCK, stop)) for i in range(start, stop, _BLOCK)]
    for block in pool.map(partial(_draw_block, sampler, seed, stream), blocks):
        yield from block


def _draw_block(sampler, seed: int, stream: int, block: range) -> list:
    return list(draw_samples(sampler, seed, stream, block.start, block.stop))


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
