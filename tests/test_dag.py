"""One-pass shortest-path DAG against the code it replaced, bit for bit."""

import ast
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import percolator
from percolator import (BfsWorkspace, Contribution, McEraState, PercolationModel, load_edge_list,
                        pab_sample, random_states)
from percolator import graph as graph_module
from percolator.exact import _source_sweep
from percolator.graph import sorted_unique

import oracle_exact
from oracle_contrib import as_dict
from gen import build, chung_lu_edges, erdos_renyi_edges, layered_edges, random_layers

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

GRAPHS = {
    "er": build(erdos_renyi_edges(50, 0.1, seed=3)),
    "er-directed": build(erdos_renyi_edges(50, 0.08, seed=4, directed=True), directed=True),
    "hubs": build(chung_lu_edges(120, 5, 2.3, seed=5)),
    "layered": build(layered_edges([1, 3, 5, 4, 2, 1])),
    # a hub's 24 leaves all joined to vertex 25, then a 30-vertex tail:
    # levels with n/8 or more arcs into them and levels with one
    "broom": build([(0, i) for i in range(1, 25)] + [(i, 25) for i in range(1, 25)]
                   + [(i, i + 1) for i in range(25, 55)]),
    # path counts past 2^53, where the order of every addition shows
    "layers-2^53": build(random_layers([1] + [6] * 40 + [1], 0.5, seed=6)),
    "layers-2^53-directed": build(random_layers([1] + [6] * 40 + [1], 0.5, seed=7),
                                  directed=True),
}


@pytest.fixture(params=list(GRAPHS), scope="module")
def case(request):
    graph = GRAPHS[request.param]
    return graph, PercolationModel(random_states(graph.n, seed=8))


def test_layer_graphs_count_past_2_53():
    for name in ("layers-2^53", "layers-2^53-directed"):
        graph = GRAPHS[name]
        assert oracle_exact.whole_dag(graph, 0)[2].max() > 2.0 ** 60


def test_dag_matches_reference_bfs(case):
    graph, _ = case
    ws = BfsWorkspace(graph.n)
    for s in range(graph.n):
        for until in (None, graph.n - 1 - s):
            levels, dist, sigma, arcs = oracle_exact.whole_dag(graph, s, until, ws)
            want_levels, want_dist, want_sigma = oracle_exact.bfs_level_counts(graph, s, until)
            assert len(levels) == len(want_levels) == len(arcs) + 1
            assert all(np.array_equal(a, b) for a, b in zip(levels, want_levels))
            assert np.array_equal(dist, want_dist) and np.array_equal(sigma, want_sigma)
            for depth, (tails, heads) in enumerate(arcs):
                # every DAG arc between the two levels, in CSR order
                srcs, nbrs = graph.expand_frontier(levels[depth])
                into_next = dist[nbrs] == depth + 1
                assert np.array_equal(tails, srcs[into_next])
                assert np.array_equal(heads, nbrs[into_next])


@pytest.fixture
def sorted_sizes(monkeypatch):
    """The size of every array the level step sorts, in call order."""
    sizes = []

    def spy(values):
        sizes.append(values.size)
        return sorted_unique(values)

    monkeypatch.setattr(graph_module, "sorted_unique", spy)
    return sizes


def test_level_step_scans_dense_levels_and_sorts_sparse_ones(sorted_sizes):
    """A BFS step sorts the heads of its arcs into unseen vertices when
    they number under n/8, and otherwise reads the level off a scan of
    the distances. The step after the deepest level has no arcs, so it
    sorts. The broom takes both branches, so the graphs above do."""
    taken = {}
    for name, graph in GRAPHS.items():
        sorts = steps = 0
        for s in range(graph.n):
            del sorted_sizes[:]
            arcs = oracle_exact.whole_dag(graph, s)[3]
            small = [heads.size for _, heads in arcs if 8 * heads.size < graph.n]
            assert sorted_sizes == small + [0]
            sorts += len(small)
            steps += len(arcs)
        taken[name] = (sorts, steps - sorts)
    assert all(taken["broom"])


def test_deep_narrow_graph_sorts_every_level(sorted_sizes):
    """On 1,100 levels two wide, every step has at most 12 arcs into unseen
    vertices, far under n/8: each one sorts them, and none scans all n
    distances, or one search would cost 1,100 x n."""
    graph = build(layered_edges([1] + [2] * 1100 + [1]))
    for s in (0, 1, graph.n // 2, graph.n - 1):
        del sorted_sizes[:]
        levels = oracle_exact.whole_dag(graph, s)[0]
        assert len(levels) > 550
        assert len(sorted_sizes) == len(levels)
        assert max(sorted_sizes) <= 12


def test_source_sweep_matches_reference(case):
    graph, model = case
    ws = BfsWorkspace(graph.n)
    for s in range(graph.n):
        got = _source_sweep(graph, model.x, s, ws)
        want = oracle_exact._source_sweep(graph, model.x, s, True, True)
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g, w)
        assert got[2:] == want[2:]
        assert type(got[2]) is float and type(got[3]) is int


def test_pab_sample_matches_reference(case):
    graph, model = case
    rng = np.random.default_rng(10)
    pairs = [(s, z) for s in range(graph.n) for z in range(graph.n) if s != z]
    pairs = [pairs[i] for i in rng.choice(len(pairs), min(len(pairs), 800), replace=False)]
    pairs += [(0, z) for z in range(1, graph.n)]      # the deepest DAGs
    nonempty = 0
    for s, z in pairs:
        got = pab_sample(graph, model, s, z)
        assert as_dict(got) == oracle_exact.pab_sample(graph, model, s, z)
        nonempty += bool(got)
    assert nonempty > 50


@given(st.lists(st.one_of(st.integers(-4, 4), st.integers(INT64_MIN, INT64_MAX)),
                max_size=300))
@example([])
@example([7])
@example([3] * 40)
@example(list(range(-5, 30)))
@example([INT64_MAX, INT64_MIN, INT64_MAX, 0])
def test_sorted_unique_matches_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_no_np_unique_in_the_package():
    """numpy 2.x deduplicates integers in ``np.unique`` through a hash table:
    83 us for 1,000 random int64 where ``sorted_unique`` takes 9 us, and
    1,221 vs 84 us for 10,000 (best of 5 x 500 calls; numpy 2.4.6,
    Python 3.11, one core of an x86-64 Xeon). Every BFS level
    deduplicates its frontier, so the package uses ``sorted_unique``."""
    sources = sorted(Path(percolator.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        assert "np.unique(" not in path.read_text(), path.name


def test_first_appearance_numbering_lives_in_the_loader():
    """The loader's ``_renumber`` numbers ids by first appearance; the 2^53
    pair sample numbers its levels with it too, so no other module keeps a
    copy of the ``minimum.reduceat`` ranking."""
    for path in sorted(Path(percolator.__file__).parent.glob("*.py")):
        assert ("minimum.reduceat" in path.read_text()) == (path.name == "graph.py"), path.name


# ids within a span no longer than the list take the table branch, and a
# wider span the sort branch; both with repeats and single ids
TABLE_IDS = st.integers(-(1 << 62), 1 << 62).flatmap(lambda low: st.integers(1, 60).flatmap(
    lambda span: st.lists(st.integers(low, low + span - 1), min_size=span, max_size=200)))
SORT_IDS = st.lists(st.one_of(st.integers(-4, 4), st.integers(INT64_MIN, INT64_MAX)),
                    min_size=1, max_size=200)


@given(st.one_of(TABLE_IDS, SORT_IDS))
@example([7])
@example([3] * 40)
@example([INT64_MAX, INT64_MIN, INT64_MAX, 0])
@example([INT64_MIN, INT64_MIN + 1, INT64_MIN])
@example([INT64_MAX - 1, INT64_MAX, INT64_MAX])
def test_renumber_numbers_by_first_appearance(values):
    dense, distinct = graph_module._renumber(np.array(values, dtype=np.int64))
    first_seen = list(dict.fromkeys(values))
    assert distinct.dtype == np.int64 and distinct.tolist() == first_seen
    assert dense.tolist() == [first_seen.index(v) for v in values]


def test_samples_draw_through_the_driver():
    """Sample i of stream S draws from ``derive_rng(seed, S, i)``. Only the
    driver ``rng.SampleStream`` makes those generators (in
    ``rng._draw_block``, for blocks drawn here and in pool jobs alike), so
    every estimator loop keeps that rule."""
    def calls(node):
        return sum(isinstance(n, ast.Call) and "derive_rng" in ast.unparse(n.func)
                   for n in ast.walk(node))
    allowed = {"rng._draw_block": 1}
    found = {}
    for path in sorted(Path(percolator.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {f"{path.stem}.{fn.name}": calls(fn) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and f"{path.stem}.{fn.name}" in allowed}
        assert calls(tree) == sum(inside.values()), path.name
        found.update(inside)
    assert found == allowed


def test_the_progressive_loop_exists_once():
    """Outside ``rng.py``, the sample stream's ``reserve`` and the
    Monte-Carlo Rademacher state's ``signs_for_block`` and ``add_sample``
    are called from one function only, the driver
    ``progressive._iterations``: a second copy of the progressive loop
    would have to call them too. A call belongs to its innermost function."""
    methods = {"reserve", "signs_for_block", "add_sample"}
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in methods):
                found.setdefault(owner, []).append(child.func.attr)
            visit(child, owner)

    for path in sorted(Path(percolator.__file__).parent.glob("*.py")):
        if path.name != "rng.py":
            visit(ast.parse(path.read_text()), path.stem)
    assert {k: sorted(v) for k, v in found.items()} == {
        "progressive._iterations": ["add_sample", "reserve", "signs_for_block"]}


def test_only_the_cli_opens_pools():
    """The command layer owns a run's resources: ``workers.open_pool`` is
    called only in ``cli.py``, and no package function takes a worker
    count named ``threads``; a solver runs in the pool it is handed."""
    for path in sorted(Path(percolator.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        opens = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func).split(".")[-1] == "open_pool"]
        assert bool(opens) == (path.name == "cli.py"), path.name
        functions = (fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.Lambda)))
        params = [arg.arg for fn in functions
                  for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)]
        assert "threads" not in params, path.name


def test_every_definition_is_used_outside_the_tests():
    """Each top-level function and class of the package is named (an
    ``ast.Name`` or ``ast.Attribute``), and each of their methods but
    dunders is looked up as an attribute (an ``ast.Attribute``; a bare name
    such as the builtin ``reversed`` is not the method), by package code
    outside its own body or by the benchmark harness; re-exports in
    ``__init__`` are imports, not uses. Surface that only tests call
    belongs in the tests, as the oracles there do."""
    anywhere, attribute = (ast.Name, ast.Attribute), (ast.Attribute,)

    def names(node, kinds):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, kinds))

    package = Path(percolator.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    harness = sorted((package.parents[1] / "perfbench").glob("*.py"))
    assert harness
    sources = [*trees.values(), *(ast.parse(path.read_text()) for path in harness)]
    used = {kinds: sum((names(tree, kinds) for tree in sources), Counter())
            for kinds in (anywhere, attribute)}
    unused = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(f"{module}.{node.name}", node, anywhere)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{module}.{node.name}.{m.name}", m, attribute) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
            unused.update(qual for qual, member, kinds in members
                          if not (used[kinds] - names(member, kinds))[member.name])
    assert unused == set()


def test_no_private_attributes_of_other_objects():
    """Package code reads or sets a ``_private`` attribute only on ``self``:
    not on another module, another object of its own, or a library's
    object, such as an executor's internal ``_max_workers``. Dunders are
    public protocol."""
    found = []
    for path in sorted(Path(percolator.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_mcera_state_sized_by_touched_vertices():
    """The MC-ERA sums hold one row per vertex a sample touched, not one per
    vertex of the graph: dense, n = 2,000,000 and 25 trials would take
    416 MB; 1,000 samples over at most 5,000 vertices must fit in 2 MB."""
    n, c = 2_000_000, 25
    state = McEraState(n=n, c=c, seed=1)
    rng = np.random.default_rng(2)
    pool = rng.choice(n, 5_000, replace=False)
    signs = state.signs_for_block(1_000)
    for row in signs:
        idx = rng.choice(pool, int(rng.integers(1, 40)), replace=False).astype(np.int64)
        state.add_sample(Contribution(idx, rng.uniform(0.01, 1.0, idx.size)), row)
    assert state.r == 1_000 and 0 < state.rows <= 5_000
    assert state.signed_sums.nbytes + state.sq_sums.nbytes <= 2_000_000


def test_pab_sample_memory_follows_the_search(tmp_path):
    """A pair sample on the run's workspace allocates what its search
    explores: at n = 2,000,000 one n-long float64 array is 16 MB, yet
    1,000 samples of pairs at most 40 apart on a cycle with chords must
    peak under 1 MB."""
    n = 2_000_000
    rng = np.random.default_rng(3)
    tails = np.concatenate((np.arange(n), rng.integers(n, size=50)))
    heads = np.concatenate((np.arange(1, n + 1) % n, (tails[n:] + rng.integers(2, 30, 50)) % n))
    path = tmp_path / "cycle.txt"
    with open(path, "w") as fh:
        for lo in range(0, tails.size, 1 << 18):
            block = slice(lo, lo + (1 << 18))
            fh.write("".join(map("{} {}\n".format, tails[block].tolist(), heads[block].tolist())))
    with open(path, "rb") as fh:
        graph = load_edge_list(fh)
    model = PercolationModel(random_states(n, seed=4))
    ws = BfsWorkspace(n)
    pairs = [(int(s), int(s + gap) % n)
             for s, gap in zip(rng.integers(n, size=1_000), rng.integers(2, 41, 1_000))]
    tracemalloc.start()
    try:
        found = 0
        for s, z in pairs:
            if model.pair_weight(s, z) == 0.0:
                s, z = z, s
            found += len(pab_sample(graph, model, s, z, ws=ws)) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found > 900
    assert peak < 1_000_000
