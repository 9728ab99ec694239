"""Compressed adjacency graphs loaded from whitespace edge lists.

Vertices are renumbered to dense integers [0, n) in first-appearance order;
the original ids are kept so reports can be emitted in the input's id space.
Graphs are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


class EdgeListParseError(ValueError):
    """Raised when an edge-list line cannot be parsed; message names the line."""


@dataclass(frozen=True)
class Graph:
    """Unweighted graph in compressed sparse row form.

    ``fwd_offsets``/``fwd_targets`` hold the out-adjacency. For directed
    graphs ``bwd_offsets``/``bwd_targets`` mirror it arc-for-arc; for
    undirected graphs they are the same arrays (every edge is stored in
    both orientations, so offsets[n] == 2*m).
    """

    n: int
    m: int
    directed: bool
    fwd_offsets: np.ndarray
    fwd_targets: np.ndarray
    bwd_offsets: np.ndarray
    bwd_targets: np.ndarray
    orig_ids: np.ndarray
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0
    out_degrees: np.ndarray = field(init=False, repr=False)
    in_degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        degrees = np.diff(self.fwd_offsets)
        object.__setattr__(self, "out_degrees", degrees)
        object.__setattr__(self, "in_degrees",
                           np.diff(self.bwd_offsets) if self.directed else degrees)

    def expand_frontier(self, frontier: np.ndarray, backward: bool = False):
        """All arcs leaving ``frontier``: (repeated sources, targets).

        Vectorized gather over the CSR arrays; ``backward=True`` follows
        in-arcs instead of out-arcs.
        """
        offsets = self.bwd_offsets if backward else self.fwd_offsets
        targets = self.bwd_targets if backward else self.fwd_targets
        starts = offsets[frontier]
        counts = (self.in_degrees if backward else self.out_degrees)[frontier]
        total = int(counts.sum())
        srcs = frontier.repeat(counts)
        # arc i of the output reads targets[i + starts[f] - (arcs before f)]
        starts -= np.add.accumulate(counts)
        starts += counts
        pos = starts.repeat(counts)
        pos += np.arange(total, dtype=np.int64)
        return srcs, targets[pos]


_INT64 = np.iinfo(np.int64)
_LINE = re.compile(rb"[ \t\r]*(?:[#%].*|([+-]?[0-9]+)[ \t\r]+([+-]?[0-9]+)[ \t\r]*)?")
_COMMENT_LINE = re.compile(rb"\n[ \t\r]*[#%][^\n]*")   # on its newline: "^" is 2x slower
_CHUNK = 1 << 22       # bytes read per block; parsing one peaks at about 5x that
_ROOM = 1 << 22        # ids the loader first makes room for: 32 MiB, a mapping of its own
_QUOTED = 80           # characters of a bad line an error quotes


def _fits_int64(token: bytes) -> bool:
    """Whether a ``[+-]?[0-9]+`` token is an int64. Only its digits past the
    sign and leading zeros are converted, and only up to 19 of them, so no
    token meets ``int()``'s digit limit."""
    digits = token.lstrip(b"+-").lstrip(b"0")
    return len(digits) <= 19 and int(digits or b"0") <= _INT64.max + (token[:1] == b"-")


def _line_error(data: bytes, lines_before: int = 0) -> EdgeListParseError:
    """The error naming the first line of ``data`` that breaks the grammar;
    ``lines_before`` lines of the input precede ``data``. It quotes the
    line, or a longer line's first ``_QUOTED`` characters and its length."""
    for lineno, line in enumerate(data.split(b"\n"), start=lines_before + 1):
        match = _LINE.fullmatch(line)
        if not match or match[1] and not all(map(_fits_int64, match.groups())):
            text = line.strip().decode("ascii", "backslashreplace")
            quote = (f"'{text}'" if len(text) <= _QUOTED
                     else f"'{text[:_QUOTED]}...' ({len(line)} bytes)")
            return EdgeListParseError(f"line {lineno}: expected two int64 ids, got {quote}")
    return EdgeListParseError("empty graph: no edges found")


def _parse_ids(data: bytes) -> tuple[np.ndarray, int] | None:
    """Id tokens of ``data`` (framed by newlines) outside comments, in order,
    and the count of its newlines; None if a line breaks the grammar. Whole
    lines and bytes are checked on ``data`` itself: one regex empties the
    comment lines, and one ``bytes.translate`` finds any byte outside
    whitespace, signs and digits. Byte masks then find the tokens, check
    each sign opens one and is followed by a digit, and check two tokens
    per line, all before ``np.fromstring``, which stops silently at a bad
    token and saturates."""
    if b"#" in data or b"%" in data:
        data = _COMMENT_LINE.sub(b"\n", data)
    if data.translate(None, b" \t\r\n+-0123456789"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ws = buf <= ord(" ")       # of the bytes left, only whitespace lies at or below a space
    if b"+" in data or b"-" in data:
        signs = ((buf == ord("+")) | (buf == ord("-"))).nonzero()[0]
        if not (ws[signs - 1].all() and (buf[signs + 1] - ord("0") < 10).all()):
            return None
    # tokens start and end where whitespace stops and starts
    bounds = np.not_equal(ws[1:], ws[:-1]).nonzero()[0]
    del ws
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    # the gaps after a token wider than one byte: their second byte is blank too
    wide = (buf[1:][ends[:-1]] <= ord(" ")).nonzero()[0]
    # last[i]: a newline lies between token i and the next (always after the
    # last token); read off the gap's one byte, or reduced over a wider gap
    newline = buf == ord("\n")
    last = newline[ends]
    if wide.size:
        spans = np.stack((ends[wide], starts[wide + 1]), axis=1).ravel()
        last[wide] = np.logical_or.reduceat(newline, spans)[0::2]
    if last.size:
        last[-1] = True
    lines = np.count_nonzero(newline)
    del newline
    long = ends - starts >= 19
    if (len(last) % 2 or last[0::2].any() or not last[1::2].all()
            or not all(_fits_int64(data[s:e])
                       for s, e in zip(starts[long].tolist(), ends[long].tolist()))):
        return None
    return np.fromstring(data, dtype=np.int64, count=len(starts), sep=" "), lines


def _read_ids(stream) -> np.ndarray:
    """Id tokens of a text or binary stream, parsed in line-aligned blocks
    of about ``_CHUNK`` bytes, so only the ids outlive a block. Each
    block's ids are appended to one array with room for ``_ROOM`` ids to
    start, its capacity doubled when a block overflows it and shrunk to
    the ids once at the end, where a final concatenate would double the
    ids. glibc serves a request of 32 MiB or more with a mapping of its
    own, and grows or shrinks such a mapping by remapping its pages, not
    by copying them (no view of the array exists meanwhile); pages never
    written cost no memory. A line longer than a block is kept as its
    blocks and joined once it ends. The parse counts a block's lines, for
    the next block's errors."""
    ids, size, rest, lines = np.empty(_ROOM, dtype=np.int64), 0, [], 0
    while True:
        block = stream.read(_CHUNK)
        block = block.encode() if isinstance(block, str) else block
        cut = block.rfind(b"\n") + 1
        if block and not cut:          # no line ends in this block yet: joined once one does
            rest.append(block)
            continue
        framed = b"".join((b"\n", *rest, memoryview(block)[:cut], b"\n"))
        rest = [block[cut:]]
        parsed = _parse_ids(framed)
        if parsed is None:
            raise _line_error(framed[1:-1], lines)
        parsed, newlines = parsed
        if size + len(parsed) > len(ids):
            ids.resize(max(2 * len(ids), size + len(parsed)), refcheck=False)
        ids[size:size + len(parsed)] = parsed
        size += len(parsed)
        if not block:
            ids.resize(size, refcheck=False)
            return ids
        lines += newlines - 2


_SLICE = 1 << 16      # elements per temporary in the loader's in-place steps


def _renumber(ids: np.ndarray):
    """Dense ids numbered by first appearance, and the distinct ids in that
    order. ``ids`` is overwritten: ids in a range no longer than ``ids``
    become the dense ids in place, wider ones are sorted in place."""
    low = int(ids.min())
    span = int(ids.max()) - low + 1
    if span > len(ids):       # sparse ids: sort them
        order = np.argsort(ids)
        ids.sort()
        fresh = _run_starts(ids)
        heads = np.flatnonzero(fresh)
        by_first = np.argsort(np.minimum.reduceat(order, heads))
        distinct = ids[heads[by_first]]
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(len(heads))
        # each sorted id's group, then its dense id, over the sorted ids
        np.cumsum(fresh, out=ids)
        ids -= 1
        del fresh, heads
        np.take(rank, ids, out=ids, mode="clip")
        dense = np.empty_like(ids)
        dense[order] = ids
        return dense, distinct
    # ids within [low, low + span): a table of each one's first position
    ids -= low
    first = np.full(span, len(ids), dtype=np.int64)
    for start in range(0, len(ids), _SLICE):
        part = ids[start:start + _SLICE]
        np.minimum.at(first, part, np.arange(start, start + len(part)))
    seen = np.flatnonzero(first < len(ids))
    by_first = np.argsort(first[seen])
    first[seen[by_first]] = np.arange(len(seen))
    # "clip" gathers in place; "raise" would buffer a copy (every index is in range)
    return np.take(first, ids, out=ids, mode="clip"), seen[by_first] + low


def _csr(n: int, keys: np.ndarray, counts: np.ndarray):
    """CSR from the ascending keys ``row * n + target`` of all its arcs and
    the arcs per row; the keys become the targets in place."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, np.remainder(keys, n, out=keys)


def _line_keys(dense: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Each line's key ``tail * n + head``, written over its tail in
    ``dense`` (the lines' dense id pairs) a slice at a time, the pair
    ordered first when undirected; a view of ``dense``."""
    tails, heads = dense[0::2], dense[1::2]
    for start in range(0, len(tails), _SLICE):
        tail, head = tails[start:start + _SLICE], heads[start:start + _SLICE]
        if not directed:
            tail, head = np.minimum(tail, head), np.maximum(tail, head)
        tails[start:start + _SLICE] = tail * n + head
    return tails


def load_edge_list(source, directed: bool = False) -> Graph:
    """Parse a SNAP-style edge list into a :class:`Graph`.

    ``source`` is a text or binary stream. Lines end with LF; space, tab
    and CR separate tokens. Lines whose first token starts with '#' or '%'
    are comments; every other non-blank line holds two ids, each matching
    ``[+-]?[0-9]+`` within int64. Self-loops and duplicate edges are
    dropped (duplicates orientation-insensitively for undirected graphs);
    counters of both are kept on the graph. The input is parsed in blocks,
    so only its ids are held at once, and the graph's arrays are built
    over them in place where they can be.
    """
    ids = _read_ids(source)
    keep = ids[0::2] != ids[1::2]
    edges = int(keep.sum())
    if not edges:
        raise EdgeListParseError("empty graph: no edges found")
    dense, orig_ids = _renumber(ids)
    del ids
    n = len(orig_ids)
    keys = _line_keys(dense, n, directed)[keep]
    del dense
    keys.sort()       # sorted_unique, sorting in place
    keys = keys[_run_starts(keys)]
    m = len(keys)
    out_counts = np.bincount(keys // n, minlength=n)
    in_counts = np.bincount(keys % n, minlength=n)
    # the keys u * n + v, then the reversed keys v * n + u built from them
    # in place (the keys end up as the u)
    arcs = np.empty(2 * m, dtype=np.int64)
    arcs[:m] = keys
    back = np.remainder(keys, n, out=arcs[m:])
    back *= n
    back += np.floor_divide(keys, n, out=keys)
    del keys
    if directed:
        back.sort()
        fwd, bwd = _csr(n, arcs[:m], out_counts), _csr(n, back, in_counts)
    else:      # every edge in both orientations, in one CSR
        arcs.sort()
        fwd = bwd = _csr(n, arcs, out_counts + in_counts)
    return Graph(
        n=n, m=m, directed=directed,
        fwd_offsets=fwd[0], fwd_targets=fwd[1], bwd_offsets=bwd[0], bwd_targets=bwd[1],
        orig_ids=orig_ids,
        self_loops_dropped=len(keep) - edges, duplicates_dropped=edges - m,
    )


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending, as ``np.unique`` gives
    them: a sort and a neighbour compare. numpy 2.x routes ``np.unique`` of
    integers through a hash table, several times slower on frontier-sized
    arrays."""
    ordered = np.sort(values)
    return ordered[_run_starts(ordered)]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """A mask of the entries of ``ordered`` that differ from the one before."""
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return fresh


class BfsWorkspace:
    """Distance and path-count labels reused by every search of one run.
    ``dist`` and ``sigma`` are (2, n): row 0 is the s side, row 1 the z
    side of a pair search, and a single-source search
    (:func:`shortest_path_dag`) labels row 0, so flat index
    ``side * n + v`` names v on a side. ``touched[side]`` lists the levels
    that side labelled since the last reset. Distances are below n, so
    below 2^31 vertices they are int32; ``place`` stays int64, since
    numpy gathers through an int32 index about 3x slower.
    """

    def __init__(self, n: int):
        self.n = n
        self.dist = np.full((2, n), -1, dtype=np.int32 if n < 2 ** 31 else np.int64)
        self.sigma = np.zeros((2, n))
        # each vertex's index in its level, written as the level is built
        self.place = np.empty(n, dtype=np.int64)
        self.touched: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])

    def reset(self) -> None:
        """Return every label written since the last reset to -1 / 0: a side
        that touched n/8 vertices or more is refilled (as ``_next_level``
        scans a large level), any other scattered over what it touched, so
        a reset costs at most 8x what the last search touched."""
        for dist, sigma, touched in zip(self.dist, self.sigma, self.touched):
            if 8 * sum(level.size for level in touched) >= self.n:
                dist.fill(-1)
                sigma.fill(0.0)
            elif touched:
                idx = np.concatenate(touched)
                dist[idx] = -1
                sigma[idx] = 0.0
            touched.clear()


def _next_level(tails: np.ndarray, heads: np.ndarray, depth: int,
                dist: np.ndarray, sigma: np.ndarray, place: np.ndarray):
    """One BFS level step: label every unseen head of the arcs ``tails ->
    heads`` at depth+1 and count its paths. Returns the new level, ascending,
    and the arcs into it in their given order; each new vertex's index in
    the level is left in ``place``.

    A level with at least n/8 arcs into it is read off a scan of ``dist``
    (n compares beat sorting that many heads); a smaller one is sorted, so
    a step costs at most 8x its arcs and a search costs what it explores.
    """
    # every unseen head lands in the new level, so these are the DAG arcs;
    # an index take is several times cheaper than a boolean mask
    into_next = (dist[heads] < 0).nonzero()[0]
    tails, heads = tails.take(into_next), heads.take(into_next)
    if 8 * heads.size >= dist.size:
        dist[heads] = depth + 1
        level = (dist == depth + 1).nonzero()[0]
    else:
        level = sorted_unique(heads)
        dist[level] = depth + 1
    # summed in slots of the new level, arc order kept: per vertex the
    # same additions as one bincount over all n vertices
    place[level] = np.arange(level.size)
    sigma[level] = np.bincount(place[heads], weights=sigma[tails], minlength=level.size)
    return level, tails, heads


def shortest_path_dag(graph: Graph, source: int, ws: BfsWorkspace):
    """Level-synchronous BFS from ``source`` with shortest-path counting,
    labelled on row 0 (the s side) of ``ws``, which it resets first.

    Yields (level, tails, heads) per level past the source, nearest first:
    the level's vertices, ascending, and the DAG arcs into it from the
    level before, grouped by tail ascending and ascending within a tail,
    as the CSR rows list them. Once a level is yielded, ``ws.dist[0]``
    holds the distance of every vertex up to it (-1 past it),
    ``ws.sigma[0]`` its count of shortest source->v paths (float64; counts
    can exceed integer range) and ``ws.place`` its index in its level. A
    caller that stops asking leaves the deeper vertices unexplored.
    """
    ws.reset()
    dist, sigma, levels = ws.dist[0], ws.sigma[0], ws.touched[0]
    frontier = np.array([source], dtype=np.int64)
    levels.append(frontier)
    dist[source], sigma[source] = 0, 1.0
    while True:
        frontier, tails, heads = _next_level(*graph.expand_frontier(frontier), len(levels) - 1,
                                             dist, sigma, ws.place)
        if not frontier.size:
            return
        levels.append(frontier)
        yield frontier, tails, heads
