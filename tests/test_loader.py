"""Bulk edge-list loader against the per-line reference loader it replaced."""

import gzip
import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from percolator import EdgeListParseError, graph as graph_module, load_edge_list

import oracle_loader
from gen import reversed_graph

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
FIELDS = ("n", "m", "directed", "fwd_offsets", "fwd_targets", "bwd_offsets",
          "bwd_targets", "orig_ids", "self_loops_dropped", "duplicates_dropped")

blanks = st.text(alphabet=" \t\r", max_size=3)
separators = st.text(alphabet=" \t\r", min_size=1, max_size=3)
ids = st.one_of(st.integers(-3, 12), st.sampled_from([INT64_MIN, INT64_MAX, 10**12]))


@st.composite
def id_tokens(draw):
    value = draw(ids)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return sign + "0" * draw(st.integers(0, 2)) + str(abs(value))


@st.composite
def edge_lists(draw):
    lines = draw(st.lists(st.one_of(
        st.tuples(blanks, st.sampled_from("#%"),
                  st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                           max_size=8)).map("".join),
        blanks,
        st.tuples(blanks, id_tokens(), separators, id_tokens(), blanks).map("".join),
    ), min_size=1, max_size=25))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def sources(text: str):
    yield io.StringIO(text)
    yield io.BytesIO(text.encode())
    yield gzip.GzipFile(fileobj=io.BytesIO(gzip.compress(text.encode())))
    yield io.TextIOWrapper(gzip.GzipFile(fileobj=io.BytesIO(gzip.compress(text.encode()))),
                           encoding="utf-8", newline="")


def assert_matches_oracle(graph, expected):
    for name in FIELDS:
        got, want = getattr(graph, name), expected[name]
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    assert np.array_equal(graph.out_degrees, np.diff(expected["fwd_offsets"]))
    assert np.array_equal(graph.in_degrees, np.diff(expected["bwd_offsets"]))
    for original, dense in expected["dense_of"].items():
        assert graph.orig_ids[dense] == original


def chunked(size: int):
    """The loader reading blocks of ``size`` bytes (characters from text streams)."""
    return mock.patch.object(graph_module, "_CHUNK", size)


# the loader's own block size, or one that splits lines, tokens and CRLF pairs
block_sizes = st.one_of(st.just(graph_module._CHUNK), st.integers(1, 24))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=edge_lists(), directed=st.booleans(), size=block_sizes)
def test_bulk_loader_matches_reference(text, directed, size):
    try:
        expected = oracle_loader.load_edge_list(io.StringIO(text), directed=directed)
    except EdgeListParseError:
        expected = None
    with chunked(size):
        for source in sources(text):
            if expected is None:
                with pytest.raises(EdgeListParseError, match="empty graph"):
                    load_edge_list(source, directed=directed)
            else:
                assert_matches_oracle(load_edge_list(source, directed=directed), expected)


def first_bad_line(data: bytes):
    """1-based number of the first line outside the grammar, or None."""
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        tokens = re.findall(rb"[^ \t\r]+", line)
        if not tokens or tokens[0][:1] in (b"#", b"%"):
            continue
        if len(tokens) != 2 or not all(
                re.fullmatch(rb"[+-]?[0-9]+", t) and INT64_MIN <= int(t) <= INT64_MAX
                for t in tokens):
            return lineno
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.lists(st.sampled_from(
    [b"0", b"1", b"7", b"-", b"+", b" ", b"\t", b"\r", b"\n", b"\n", b"\n", b"#", b"%",
     b"x", b"_", b"\xc3\xa9", b"9223372036854775808", b"9223372036854775807"]),
    max_size=40).map(b"".join), size=block_sizes)
def test_garbage_fails_on_its_first_bad_line(data, size):
    bad = first_bad_line(data)
    for source in (io.BytesIO(data), gzip.GzipFile(fileobj=io.BytesIO(gzip.compress(data)))):
        with chunked(size):
            try:
                graph = load_edge_list(source)
            except EdgeListParseError as exc:
                assert str(exc).startswith(f"line {bad}:" if bad else "empty graph"), (data, exc)
            else:
                assert bad is None
                text = io.StringIO(data.decode())      # non-ASCII bytes only in comments
                assert_matches_oracle(graph, oracle_loader.load_edge_list(text))


PREAMBLE = "# header\n\n  % note\n0 1\n\t\n"     # the bad line is line 6


@pytest.mark.parametrize("line", [
    "1 2 3",                          # token count
    "7",
    "1 2 # trailing",
    "1 x",                            # bad token
    "1 1_000",
    "0x1 2",
    "1.0 2",
    "- 1",                            # lone sign
    "1 +",
    "--1 2",
    "1-2 3",
    "9223372036854775808 1",          # overflow
    "1 -9223372036854775809",
    "1 0000000000000000099999999999999999999",
])
def test_bad_line_named_after_comments_and_blanks(line):
    text = PREAMBLE + line + "\r\n2 3\n"
    for size in (graph_module._CHUNK, *range(1, len(text) + 2)):
        with chunked(size):
            for source in sources(text):
                with pytest.raises(EdgeListParseError) as err:
                    load_edge_list(source)
                assert str(err.value) == f"line 6: expected two int64 ids, got '{line}'"


@pytest.mark.parametrize("letters", [78, 79, 3 << 20])
def test_a_long_bad_line_is_quoted_in_part(letters):
    """A bad line of up to 80 characters is quoted whole; a longer one, here
    3 MiB, by its first 80 characters, then ``...`` and its length in bytes."""
    line = "1 " + "x" * letters
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.BytesIO((PREAMBLE + line + "\n2 3\n").encode()))
    quote = f"'{line}'" if len(line) <= 80 else f"'{line[:80]}...' ({len(line)} bytes)"
    assert str(err.value) == f"line 6: expected two int64 ids, got {quote}"
    assert len(str(err.value)) < 150


def test_a_line_longer_than_many_blocks_is_gathered_in_linear_time():
    """A 16 MiB comment line read in 1 KiB blocks loads in well under the
    13 s that copying the gathered line at every block took."""
    data = b"# " + b"x" * (16 << 20) + b"\n0 1\n1 2\n"
    with chunked(1 << 10):
        start = time.perf_counter()
        graph = load_edge_list(io.BytesIO(data))
        seconds = time.perf_counter() - start
    assert graph.orig_ids.tolist() == [0, 1, 2]
    assert seconds < 3.0, seconds


# one-byte gaps (a space, a tab, a newline) beside wide ones: runs of
# blanks and tabs, a CR before a newline, blank and whitespace-only lines
GAPPED = "1 2\n3\t4\n\n5  \t 6\r\n  \n\t\n7 \t\r 8\n9 10\r\n"


def test_one_byte_and_wide_gaps_read_their_line_breaks():
    """Ids split by one-byte and by wide gaps load as the per-line loader
    reads them, at every block size that splits a gap; a three-token line
    behind a wide gap, with a wide gap inside it, is named by its line."""
    expected = oracle_loader.load_edge_list(io.StringIO(GAPPED))
    bad = GAPPED + " \t\n\r\n  11 12\t\t13\n14 15\n"
    for size in (graph_module._CHUNK, *range(1, len(bad) + 2)):
        with chunked(size):
            for source in sources(GAPPED):
                assert_matches_oracle(load_edge_list(source), expected)
            for source in sources(bad):
                with pytest.raises(EdgeListParseError) as err:
                    load_edge_list(source)
                assert str(err.value) == "line 11: expected two int64 ids, got '11 12\t\t13'"


def test_non_ascii_id_named_with_escapes():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO(PREAMBLE + "\u0661 2\n"))
    assert str(err.value) == r"line 6: expected two int64 ids, got '\xd9\xa1 2'"


def test_int64_extremes_and_long_zero_padded_ids_load():
    g = load_edge_list(io.BytesIO(b"-9223372036854775808 9223372036854775807\n"
                                  b"+0000000000000000000000000001 -0\n"))
    assert g.orig_ids.tolist() == [INT64_MIN, INT64_MAX, 1, 0]


@pytest.mark.parametrize("size", [graph_module._CHUNK, 1000])
def test_ids_past_the_int_digit_limit_load_or_name_their_line(size):
    """Tokens of more than 4,300 digits, past Python's ``int()`` digit limit:
    5,000 zeros before a valid id load as that id, with or without a sign;
    5,000 nines are out of range, an error naming the line."""
    zeros = "0" * 5_000
    with chunked(size):
        for source in sources(f"{zeros}2 1\n-{zeros}7 2\n"):
            assert load_edge_list(source).orig_ids.tolist() == [2, 1, -7]
        line = "3 " + "9" * 5_000
        for source in sources(f"1 2\n{line}\n"):
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(source)
            assert str(err.value) == (f"line 2: expected two int64 ids, got "
                                      f"'{line[:80]}...' ({len(line)} bytes)")


@pytest.mark.parametrize("text", ["", "\n\n", "# a\n\n% b\n", "  # a\n", "3 3\n# x\n"])
def test_no_edges_is_an_empty_graph(text):
    with pytest.raises(EdgeListParseError, match="^empty graph"):
        load_edge_list(io.BytesIO(text.encode()))


def test_degree_arrays_built_once_and_shared_when_undirected():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.in_degrees is g.out_degrees
    assert g.out_degrees.tolist() == [1, 2, 1]
    d = load_edge_list(io.StringIO("0 1\n1 2\n0 2\n"), directed=True)
    assert d.out_degrees.tolist() == [2, 1, 0]
    assert d.in_degrees.tolist() == [0, 1, 2]
    r = reversed_graph(d)
    assert r.out_degrees.tolist() == [0, 1, 2]
    assert r.orig_ids is d.orig_ids



# block ends fall inside comments, CRLF pairs, signed and 19+-digit tokens
# and the last line, which has no newline
EVERY_BOUNDARY = ("# comment -1 2\r\n-3 +4\r\n\r\n% 5 6\n"
                  "-9223372036854775808 0009223372036854775807\n"
                  "\t+12\t-0000000000000000000003 \r\n  # x\r\n4 -3")


@pytest.mark.parametrize("directed", [False, True])
def test_every_block_boundary_loads_the_same_graph(directed):
    expected = oracle_loader.load_edge_list(io.StringIO(EVERY_BOUNDARY), directed=directed)
    assert expected["n"] == 5 and expected["m"] == 3 + directed
    for size in range(1, len(EVERY_BOUNDARY) + 2):
        with chunked(size):
            for source in sources(EVERY_BOUNDARY):
                assert_matches_oracle(load_edge_list(source, directed=directed), expected)


LOAD_PEAK_CHILD = """
import sys
import numpy as np
from percolator import graph

def status_bytes(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) * 1024

rng = np.random.default_rng(3)
with open(sys.argv[1], "w") as fh:        # 500k lines over 100k ids, 50k lines at a time
    for _ in range(10):
        u, v = rng.integers(100_000, size=(2, 50_000)).tolist()
        fh.write("".join(f"{a} {b}\\n" for a, b in zip(u, v)))
graph._CHUNK = 1 << 16
before = status_bytes("VmRSS:")
with open(sys.argv[1], "rb") as fh:
    g = graph.load_edge_list(fh)
arrays = {id(a): a.nbytes for a in (g.fwd_offsets, g.fwd_targets, g.bwd_offsets, g.bwd_targets,
                                    g.orig_ids, g.out_degrees, g.in_degrees)}
print(status_bytes("VmHWM:") - before, sum(arrays.values()))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_load_peak_stays_within_a_few_graphs(tmp_path):
    """A fresh process's peak growth while loading stays under 1.75x the
    graph's own arrays: 1.43-1.45x here (14.9-15.1 MB for 10.4 MB of arrays
    over 500k lines), with the ids grown in one array and the graph built
    over them in place. Copying the ids once more at the end of the read
    gave 1.93-1.98x, copying them at each step 2.70-2.76x, and the
    whole-text loader before those 5.5x on 400k lines.
    ``VmHWM`` counts this process alone; ``ru_maxrss`` would include the
    peak of the process that spawned it."""
    src = str(Path(graph_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", LOAD_PEAK_CHILD, str(tmp_path / "g.txt")],
                         env=env, capture_output=True, text=True, check=True).stdout
    growth, arrays = map(int, out.split())
    assert arrays > 10_000_000
    assert growth < 1.75 * arrays, (growth, arrays)


DEFAULT_BLOCK_LOAD_CHILD = """
import sys
from percolator import graph

def status_bytes(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) * 1024

before = status_bytes("VmRSS:")
with open(sys.argv[1], "rb") as fh:
    g = graph.load_edge_list(fh)
arrays = {id(a): a.nbytes for a in (g.fwd_offsets, g.fwd_targets, g.bwd_offsets, g.bwd_targets,
                                    g.orig_ids, g.out_degrees, g.in_degrees)}
print(status_bytes("VmHWM:") - before, sum(arrays.values()))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
@pytest.mark.parametrize("seed", [1, 2])
def test_default_block_load_peak_does_not_depend_on_the_ids_placement(tmp_path, seed):
    """At the default ``_CHUNK``, a fresh process's peak growth while
    loading 1.5M uniform lines over 300k ids stays under 2.1x the graph's
    arrays: 1.87x and 1.90x here (58-59 MB for 31.2 MB of arrays), the
    same on seeds 4 and 5, with the ids in a mapping of their own from
    the start. Grown on the heap, the ids were copied or not as the
    allocator found room: 2.51x and 2.38x here, 2.19x-2.51x on seeds 4
    and 5. These are the smallest such inputs that fail on every seed
    tried: at 250k ids the heap-grown ids read 1.94x or 2.85x by seed,
    the ids in their own mapping 2.17x-2.21x. The 64 KiB blocks of
    ``test_load_peak_stays_within_a_few_graphs`` keep the ids on the heap
    apart from the parse and miss the copy."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(300_000, size=1_500_000), rng.integers(300_000, size=1_500_000)
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))
    src = str(Path(graph_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", DEFAULT_BLOCK_LOAD_CHILD, str(path)],
                         env=env, capture_output=True, text=True, check=True).stdout
    growth, arrays = map(int, out.split())
    assert arrays > 30_000_000
    assert growth < 2.1 * arrays, (growth / arrays, growth, arrays)


def framed_block(comment_at):
    """A newline-framed block of 80k generated id lines, with a comment in
    place of every line whose index ``comment_at`` holds."""
    u, v = np.random.default_rng(5).integers(400_000, size=(2, 80_000)).tolist()
    text = "\n".join("# a comment line" if comment_at(i) else f"{a} {b}"
                     for i, (a, b) in enumerate(zip(u, v)))
    return f"\n{text}\n\n".encode()


@pytest.mark.parametrize("comment_at", [lambda i: i < 3, lambda i: i % 10 == 9],
                         ids=["snap-header", "every-tenth-line"])
def test_comment_block_parse_peaks_within_6x_its_size(comment_at):
    """A block holding comments parses within 6x its bytes, as one without
    them does (``_CHUNK``): 5.7x after three SNAP ``#`` header lines and
    5.0x with every tenth line a comment. Blanking the comments through a
    mark array as long as the block peaked at 9.1x and 8.9x."""
    block = framed_block(comment_at)
    size = len(block)
    tracemalloc.start()
    try:
        ids, _ = graph_module._parse_ids(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * size, peak / size
    assert len(ids) == 2 * sum(not comment_at(i) for i in range(80_000))
