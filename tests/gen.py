"""Small graph generators for the tests; everything is seeded."""

import io
from dataclasses import replace

import numpy as np

from percolator import Graph, load_edge_list


def build(edges, directed=False) -> Graph:
    text = "".join(f"{u} {v}\n" for u, v in edges)
    return load_edge_list(io.StringIO(text), directed=directed)


def out_neighbors(graph: Graph, v: int) -> np.ndarray:
    return graph.fwd_targets[graph.fwd_offsets[v]:graph.fwd_offsets[v + 1]]


def in_neighbors(graph: Graph, v: int) -> np.ndarray:
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range [0, {graph.n})")
    return graph.bwd_targets[graph.bwd_offsets[v]:graph.bwd_offsets[v + 1]]


def reversed_graph(graph: Graph) -> Graph:
    """Graph with every arc flipped (identity for undirected graphs)."""
    if not graph.directed:
        return graph
    return replace(graph, fwd_offsets=graph.bwd_offsets, fwd_targets=graph.bwd_targets,
                   bwd_offsets=graph.fwd_offsets, bwd_targets=graph.fwd_targets)


def edge_text(graph: Graph) -> str:
    """One 'u v' line per edge in original ids: undirected edges once,
    directed arcs all, in CSR order."""
    src, dst = np.repeat(np.arange(graph.n), graph.out_degrees), graph.fwd_targets
    keep = slice(None) if graph.directed else src < dst
    ids = graph.orig_ids
    return "".join(f"{u} {v}\n" for u, v in zip(ids[src[keep]].tolist(), ids[dst[keep]].tolist()))


def path_edges(k):
    return [(i, i + 1) for i in range(k - 1)]


def cycle_edges(k):
    return [(i, (i + 1) % k) for i in range(k)]


def star_edges(leaves):
    return [(0, i) for i in range(1, leaves + 1)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def layered_edges(widths):
    """Stacked complete bipartite layers; layer sizes given by widths."""
    edges = []
    offset = 0
    for a, b in zip(widths, widths[1:]):
        for i in range(a):
            for j in range(b):
                edges.append((offset + i, offset + a + j))
        offset += a
    return edges


def erdos_renyi_edges(n, p, seed, directed=False):
    rng = np.random.default_rng(seed)
    edges = []
    if directed:
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        us, vs = np.nonzero(mask)
    else:
        us, vs = np.triu_indices(n, k=1)
        keep = rng.random(us.size) < p
        us, vs = us[keep], vs[keep]
    edges = list(zip(us.tolist(), vs.tolist()))
    if not edges:
        edges = [(0, 1)]
    return edges


def chung_lu_edges(n, mean_degree, exponent, seed):
    """Heavy-tailed (power-law) edge list: both endpoints of each of the
    n*mean_degree/2 lines are drawn with probability proportional to
    (i + 1)^(-1/(exponent - 1)), so a few low ids become hubs. Self-loops
    and duplicates are left for the loader to drop."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0)))
    lines = int(round(n * mean_degree / 2))
    us = np.minimum(np.searchsorted(cum, rng.random(lines) * cum[-1], side="right"), n - 1)
    vs = np.minimum(np.searchsorted(cum, rng.random(lines) * cum[-1], side="right"), n - 1)
    return list(zip(us.tolist(), vs.tolist()))


def newman_watts_edges(n, k, add_prob, seed):
    """Ring lattice with k/2 neighbors per side plus random chords.

    Chords are added, never removed, so the graph stays connected.
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
    return sorted(edges)


def random_layers(widths, p, seed):
    """Random bipartite arcs between consecutive layers, each vertex with at
    least one arc to the next layer, so path counts are large and uneven."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0] + widths)
    edges = []
    for k in range(len(widths) - 1):
        for i in range(starts[k], starts[k + 1]):
            nxt = [j for j in range(starts[k + 1], starts[k + 2]) if rng.random() < p]
            edges += [(i, j) for j in nxt or [starts[k + 1]]]
    return edges
