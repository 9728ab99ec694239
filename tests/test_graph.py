import io

import pytest

from percolator import EdgeListParseError, load_edge_list
from percolator.graph import shortest_path_dag

from gen import build, cycle_edges, edge_text, in_neighbors, out_neighbors, path_edges


def test_path_graph_basics():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.n == 3 and g.m == 2
    assert g.out_degrees[1] == 2
    assert sorted(out_neighbors(g, 1).tolist()) == [0, 2]


def test_undirected_dedup_is_orientation_insensitive():
    g = load_edge_list(io.StringIO("0 1\n0 1\n1 0\n"))
    assert g.m == 1
    assert g.duplicates_dropped == 2


def test_directed_keeps_both_orientations():
    g = load_edge_list(io.StringIO("# c\n5 7\n7 5\n"), directed=True)
    assert g.n == 2 and g.m == 2
    assert out_neighbors(g, 0).tolist() == [1]
    assert in_neighbors(g, 0).tolist() == [1]


def test_dense_renumbering_preserves_first_appearance():
    g = load_edge_list(io.StringIO("10 3\n3 99\n"))
    assert g.orig_ids.tolist() == [10, 3, 99]


def test_self_loops_dropped_and_counted():
    g = load_edge_list(io.StringIO("0 0\n0 1\n1 1\n"))
    assert g.m == 1
    assert g.self_loops_dropped == 2


def test_malformed_lines_name_the_line():
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n0 x\n"))
    with pytest.raises(EdgeListParseError, match="line 1"):
        load_edge_list(io.StringIO("0 1 2\n"))
    with pytest.raises(EdgeListParseError, match="empty"):
        load_edge_list(io.StringIO("# only comments\n"))


def test_comment_styles_skipped():
    g = load_edge_list(io.StringIO("# a\n% b\n\n0 1\n"))
    assert g.n == 2 and g.m == 1


def test_directed_adjacency_mirrors():
    g = load_edge_list(io.StringIO("0 1\n"), directed=True)
    assert out_neighbors(g, 1).size == 0
    assert in_neighbors(g, 1).tolist() == [0]


def test_four_cycle_degrees():
    g = build(cycle_edges(4))
    assert g.out_degrees.tolist() == [2] * 4
    assert g.fwd_offsets[g.n] == g.out_degrees.sum() == 2 * g.m


def test_out_of_range_vertex_rejected():
    g = build(path_edges(3))
    for v in (-1, 3):
        with pytest.raises(ValueError):
            in_neighbors(g, v)


def test_reload_serialized_is_isomorphic():
    text = "4 9\n9 2\n2 4\n7 2\n"
    for directed in (False, True):
        g1 = load_edge_list(io.StringIO(text), directed=directed)
        g2 = load_edge_list(io.StringIO(edge_text(g1)), directed=directed)
        assert g2.n == g1.n and g2.m == g1.m
        dense2 = {int(o): i for i, o in enumerate(g2.orig_ids)}
        for v in range(g1.n):
            orig = int(g1.orig_ids[v])
            nb1 = sorted(int(g1.orig_ids[u]) for u in out_neighbors(g1, v))
            nb2 = sorted(int(g2.orig_ids[u]) for u in out_neighbors(g2, dense2[orig]))
            assert nb1 == nb2


def test_load_from_path_and_bytes(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    with open(path, "rb") as fh:
        g = load_edge_list(fh)
    assert g.n == 3
    g2 = load_edge_list(io.BytesIO(b"0 1\n1 2\n"))
    assert g2.n == 3 and g2.m == g.m


def test_bfs_level_counts_path_counting():
    g = build(cycle_edges(4))
    _, dist, sigma, _ = shortest_path_dag(g, 0)
    assert dist.tolist() == [0, 1, 2, 1]
    assert sigma.tolist() == [1, 1, 2, 1]


def test_bfs_truncated_at_target_level():
    g = build(path_edges(6))
    _, dist, _, _ = shortest_path_dag(g, 0, until=2)
    assert dist[2] == 2
    assert dist[4] == -1 and dist[5] == -1
