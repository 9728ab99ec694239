"""Reference edge-list loader: the per-line parser the bulk loader replaced.

Kept only as a test oracle. It returns the fields of the ``Graph`` it
would have built as a dict, with the id -> dense id map under
``dense_of``. It accepts whatever ``int()`` accepts, so compare against
it only on inputs inside the documented grammar.
"""

from __future__ import annotations

import io

import numpy as np

from percolator import EdgeListParseError


def _iter_lines(source):
    """Lines of a path, blob, or stream; bytes are decoded as ascii."""
    if isinstance(source, bytes):
        return io.StringIO(source.decode("ascii")).readlines()
    if isinstance(source, str):
        if "\n" in source:
            return io.StringIO(source).readlines()
        with open(source, "rb") as fh:
            return [line.decode("ascii") for line in fh]
    lines = source.readlines()
    if lines and isinstance(lines[0], bytes):
        return [line.decode("ascii") for line in lines]
    return lines


def _build_csr(n: int, src: np.ndarray, dst: np.ndarray):
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, dst.astype(np.int64, copy=False)


def load_edge_list(source, directed: bool = False) -> dict:
    """Parse a SNAP-style edge list into the fields of a ``Graph``.

    ``source`` may be a path, a text or binary stream, or a str/bytes blob.
    Lines starting with '#' or '%' are comments. Each remaining line must
    hold exactly two integer tokens. Self-loops and duplicate edges are
    dropped (duplicates orientation-insensitively for undirected graphs);
    counters of both are kept on the returned graph.
    """
    lines = _iter_lines(source)
    dense_of: dict[int, int] = {}
    orig_ids: list[int] = []
    edges: list[tuple[int, int]] = []
    loops = 0

    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two integer tokens, got {len(tokens)}")
        try:
            u_orig, v_orig = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer token in {stripped!r}") from None
        u = dense_of.setdefault(u_orig, len(dense_of))
        if u == len(orig_ids):
            orig_ids.append(u_orig)
        v = dense_of.setdefault(v_orig, len(dense_of))
        if v == len(orig_ids):
            orig_ids.append(v_orig)
        if u == v:
            loops += 1
            continue
        edges.append((u, v))

    if not dense_of or not edges:
        raise EdgeListParseError("empty graph: no edges found")

    n = len(orig_ids)
    raw = len(edges)
    if directed:
        uniq = sorted(set(edges))
        src = np.fromiter((e[0] for e in uniq), dtype=np.int64, count=len(uniq))
        dst = np.fromiter((e[1] for e in uniq), dtype=np.int64, count=len(uniq))
        m = len(uniq)
        fwd_off, fwd_tgt = _build_csr(n, src, dst)
        bwd_off, bwd_tgt = _build_csr(n, dst, src)
    else:
        uniq = sorted({(u, v) if u < v else (v, u) for (u, v) in edges})
        m = len(uniq)
        src = np.fromiter((e[i] for e in uniq for i in (0, 1)), dtype=np.int64, count=2 * m)
        both_src = src[0::2]
        both_dst = src[1::2]
        all_src = np.concatenate([both_src, both_dst])
        all_dst = np.concatenate([both_dst, both_src])
        fwd_off, fwd_tgt = _build_csr(n, all_src, all_dst)
        bwd_off, bwd_tgt = fwd_off, fwd_tgt

    return dict(
        n=n, m=m, directed=directed,
        fwd_offsets=fwd_off, fwd_targets=fwd_tgt,
        bwd_offsets=bwd_off, bwd_targets=bwd_tgt,
        orig_ids=np.asarray(orig_ids, dtype=np.int64),
        self_loops_dropped=loops,
        duplicates_dropped=raw - m,
        dense_of=dense_of,
    )
