"""Seeded edge-list generators for the benchmark workloads.

Each generator returns two int64 arrays (u, v), one entry per edge-list
line, and depends only on its arguments, so the same seed always gives
the same file. They use numpy alone and never import the program.
"""

from __future__ import annotations

import numpy as np


def uniform_edges(ids: int, lines: int, seed: int):
    """``lines`` endpoint pairs drawn uniformly from [0, ids).

    Self-loops and duplicates are left in: the loader drops them, so the
    graph has n slightly below ``ids`` and m slightly below ``lines``.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(ids, size=lines), rng.integers(ids, size=lines)


def chung_lu_edges(ids: int, mean_degree: float, exponent: float, seed: int):
    """Chung-Lu power-law edge list with randomly permuted ids.

    Vertex i gets weight (i + 1)^(-1/(exponent - 1)); ids*mean_degree/2
    lines are drawn with both endpoints proportional to weight. Ids are
    shuffled so hubs do not sit at the front of the id order.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, ids + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    cum = np.cumsum(weights)
    lines = int(round(ids * mean_degree / 2))
    u = np.searchsorted(cum, rng.random(lines) * cum[-1], side="right")
    v = np.searchsorted(cum, rng.random(lines) * cum[-1], side="right")
    perm = rng.permutation(ids)
    return perm[np.minimum(u, ids - 1)], perm[np.minimum(v, ids - 1)]


def newman_watts_edges(n: int, k: int, add_prob: float, seed: int):
    """Ring lattice with k/2 neighbours per side plus random chords.

    Same draws and edge order as the test suite's small-world generator,
    so seed 11 with (5000, 6, 0.1) rebuilds its ``smallworld5k`` graph.
    """
    rng = np.random.default_rng(seed)
    edges = set()
    half = max(1, k // 2)
    for i in range(n):
        for d in range(1, half + 1):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    extra = int(add_prob * n * half)
    while extra > 0:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            extra -= 1
    pairs = np.array(sorted(edges), dtype=np.int64)
    return pairs[:, 0], pairs[:, 1]


def write_edges(path: str, u: np.ndarray, v: np.ndarray, chunk: int = 100_000) -> int:
    """Write one 'u v' line per pair; returns the file size in bytes."""
    size = 0
    with open(path, "wb") as fh:
        for i in range(0, len(u), chunk):
            pairs = zip(u[i:i + chunk].tolist(), v[i:i + chunk].tolist())
            data = "".join(f"{a} {b}\n" for a, b in pairs).encode("ascii")
            fh.write(data)
            size += len(data)
    return size
