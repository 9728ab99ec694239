"""Bulk edge-list loader against the per-line reference loader it replaced."""

import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from percolator import EdgeListParseError, load_edge_list

import oracle_loader

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


def sources(text: str, tmpdir: str):
    path = Path(tmpdir) / "g.txt"
    path.write_bytes(text.encode())
    yield str(path)
    if "\n" in text:           # a str without a newline is a path
        yield text
    yield text.encode()
    yield io.StringIO(text)
    yield io.BytesIO(text.encode())


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
        assert graph.dense_id(original) == dense
    absent = max(expected["dense_of"]) + 1
    with pytest.raises(KeyError):
        graph.dense_id(absent)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=edge_lists(), directed=st.booleans())
def test_bulk_loader_matches_reference(text, directed):
    try:
        expected = oracle_loader.load_edge_list(io.StringIO(text), directed=directed)
    except EdgeListParseError:
        expected = None
    with tempfile.TemporaryDirectory() as tmpdir:
        for source in sources(text, tmpdir):
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
    max_size=40).map(b"".join))
def test_garbage_fails_on_its_first_bad_line(data):
    bad = first_bad_line(data)
    try:
        graph = load_edge_list(data)
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
    for source in (text, text.encode()):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(source)
        assert str(err.value) == f"line 6: expected two int64 ids, got '{line}'"


def test_non_ascii_id_named_with_escapes():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(PREAMBLE + "\u0661 2\n")
    assert str(err.value) == r"line 6: expected two int64 ids, got '\xd9\xa1 2'"


def test_int64_extremes_and_long_zero_padded_ids_load():
    g = load_edge_list(b"-9223372036854775808 9223372036854775807\n"
                       b"+0000000000000000000000000001 -0\n")
    assert g.orig_ids.tolist() == [INT64_MIN, INT64_MAX, 1, 0]
    assert g.dense_id(INT64_MIN) == 0 and g.dense_id(0) == 3


@pytest.mark.parametrize("text", ["", "\n\n", "# a\n\n% b\n", "  # a\n", "3 3\n# x\n"])
def test_no_edges_is_an_empty_graph(text):
    with pytest.raises(EdgeListParseError, match="^empty graph"):
        load_edge_list(text.encode())


def test_dense_id_rejects_ids_outside_the_graph():
    g = load_edge_list("5 9\n9 -4\n")
    assert [g.dense_id(i) for i in (5, 9, -4)] == [0, 1, 2]
    for absent in (0, 6, 10, -5, 1 << 70, -(1 << 70)):
        with pytest.raises(KeyError):
            g.dense_id(absent)


def test_degree_arrays_built_once_and_shared_when_undirected():
    g = load_edge_list("0 1\n1 2\n")
    assert g.in_degrees is g.out_degrees
    assert g.out_degrees.tolist() == [1, 2, 1]
    d = load_edge_list("0 1\n1 2\n0 2\n", directed=True)
    assert d.out_degrees.tolist() == [2, 1, 0]
    assert d.in_degrees.tolist() == [0, 1, 2]
    r = d.reversed()
    assert r.out_degrees.tolist() == [0, 1, 2]
    assert r._sorted_ids is d._sorted_ids
