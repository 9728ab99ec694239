"""Reference sparse contributions: the per-vertex dict bodies that the
array-backed ``Contribution`` replaced.

Kept only as a test oracle. ``bag_estimate`` and ``prk_sample`` build
``dict[int, float]`` with Python loops (``prk_sample`` through
``oracle_exact.kappa``), and ``add_sample`` is the old
``McEraState.add_sample`` body, folding such a dict in one vertex at a
time; ``self`` is the dense ``oracle_mcera.McEraState`` it updates.
"""

from __future__ import annotations

import numpy as np

from percolator import (BfsWorkspace, Graph, PercolationModel,
                        balanced_bidirectional_bfs, sample_pair, sample_paths)
from percolator.sampling import PathBag

from oracle_exact import kappa
from oracle_mcera import McEraState


def as_dict(contrib) -> dict[int, float]:
    """A ``Contribution`` in the oracle's form, ``{vertex: value}``."""
    return dict(zip(contrib.idx.tolist(), contrib.val.tolist()))


def bag_estimate(bag: PathBag, model: PercolationModel) -> dict[int, float]:
    """Per-vertex contribution of one bag: (hits/|bag|) * kappa.

    Empty bags (disconnected pairs) contribute nothing but still count
    as one sample on the caller's side. Only vertices with a nonzero
    contribution appear in the result.
    """
    if not len(bag.paths):
        return {}
    weight = model.pair_weight(bag.s, bag.z)
    if weight == 0.0:
        return {}
    counts: dict[int, int] = {}
    for path in bag.paths:
        for v in path[1:-1]:
            counts[v] = counts.get(v, 0) + 1
    inv = 1.0 / len(bag.paths)
    out = {}
    for v, c in counts.items():
        denom = model.minus_s[v]
        if denom > 0.0:
            out[v] = c * inv * weight / denom
    return out


def prk_sample(graph: Graph, model: PercolationModel, rng,
               ws: BfsWorkspace | None = None) -> dict[int, float]:
    """One single-path sample: uniform pair, then one uniform shortest path.

    Contributes kappa(s, z, v) to every internal vertex of the drawn path;
    zero for disconnected or non-percolated pairs. ``ws`` is the BFS
    workspace to reuse, as in :func:`balanced_bidirectional_bfs`.
    """
    s, z = sample_pair(graph.n, rng)
    meet = balanced_bidirectional_bfs(graph, s, z, ws)
    if not meet.connected or model.pair_weight(s, z) == 0.0:
        return {}
    bag = sample_paths(meet, alpha=1.0, rng=rng, count=1)
    path = bag.paths[0]
    return {v: kappa(model, s, z, v) for v in path[1:-1]}


def add_sample(self: McEraState, contrib: dict[int, float], signs: np.ndarray) -> None:
    """Fold one sample's sparse contributions in; advances r."""
    for v, f in contrib.items():
        self.signed_sums[v] += f * signs
        self.sq_sums[v] += f * f
    self.r += 1
