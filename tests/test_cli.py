import csv
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from percolator.cli import main

DATA = Path(__file__).parent / "data"
PATH_GRAPH = "0 1\n1 2\n"


def write_graph(tmp_path, text=PATH_GRAPH, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_states(tmp_path, values, name="states.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v!r}\n" for v in values))
    return str(path)


def test_exact_path_graph_outputs(tmp_path):
    graph = write_graph(tmp_path)
    states = write_states(tmp_path, [1.0, 0.5, 0.0])
    out = str(tmp_path / "exact.tsv")
    assert main(["exact", "--graph", graph, "--states", states,
                 "--output", out, "--threads", "1"]) == 0
    rows = [line.split("\t") for line in Path(out).read_text().splitlines()]
    assert rows[1][0] == "1"
    assert rows[1][1] == "0.16666666666666666"
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["n"] == 3 and sidecar["m"] == 2
    assert sidecar["diameter"] == 2 and sidecar["vertex_diameter"] == 3
    assert sidecar["sum_p"] <= sidecar["sum_b"] + 1e-9
    assert sidecar["sum_b"] <= sidecar["rho"] + 1e-9
    assert sidecar["rho"] == pytest.approx(1 / 3)


def test_exact_equal_states_all_zero(tmp_path):
    graph = write_graph(tmp_path)
    out = str(tmp_path / "exact.tsv")
    states = write_states(tmp_path, [0.5, 0.5, 0.5])
    assert main(["exact", "--graph", graph, "--states", states,
                 "--output", out, "--threads", "1"]) == 0
    values = [float(line.split("\t")[1]) for line in Path(out).read_text().splitlines()]
    assert values == [0.0, 0.0, 0.0]
    assert json.loads(Path(out + ".json").read_text())["all_states_equal"]


def test_exact_tsv_round_trip_exact_floats(tmp_path):
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n1 3\n")
    out = str(tmp_path / "exact.tsv")
    assert main(["exact", "--graph", graph, "--states", "random:3",
                 "--output", out, "--threads", "1"]) == 0
    from percolator import PercolationModel, exact_all, load_edge_list, random_states
    g = load_edge_list(graph)
    p = exact_all(g, PercolationModel(random_states(g.n, 3))).p
    parsed = [float(line.split("\t")[1]) for line in Path(out).read_text().splitlines()]
    assert parsed == [float(v) for v in p]


def test_gzip_graph_transparently_decoded(tmp_path):
    path = tmp_path / "g.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(PATH_GRAPH)
    out = str(tmp_path / "exact.tsv")
    assert main(["exact", "--graph", str(path), "--states", "random:1",
                 "--output", out, "--threads", "1"]) == 0


def test_parse_error_exit_code(tmp_path):
    graph = write_graph(tmp_path, "0 x\n")
    assert main(["exact", "--graph", graph, "--states", "random:1",
                 "--output", str(tmp_path / "o"), "--threads", "1"]) == 3


def test_unknown_algorithm_usage_error(tmp_path):
    graph = write_graph(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["approx", "--graph", graph, "--states", "random:1",
              "--output", str(tmp_path / "o"), "--algorithm", "bogus"])
    assert err.value.code == 2


def test_approx_report_echoes_defaults(tmp_path):
    graph = write_graph(tmp_path)
    states = write_states(tmp_path, [1.0, 0.5, 0.0])
    out = str(tmp_path / "report.json")
    assert main(["approx", "--graph", graph, "--states", states,
                 "--output", out, "--seed", "5"]) == 0
    report = json.loads(Path(out).read_text())
    assert report["algorithm"] == "mcera"
    assert report["config"]["mc_trials"] == 25
    assert report["config"]["delta"] == 0.1
    assert report["seed"] == 5
    assert set(report["estimates"]) == {"0", "1", "2"}


def test_approx_same_seed_identical(tmp_path):
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n")
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out1, out2):
        assert main(["approx", "--graph", graph, "--states", "random:2",
                     "--output", out, "--seed", "7"]) == 0
    a = json.loads(Path(out1).read_text())
    b = json.loads(Path(out2).read_text())
    for k in list(a):
        if k.startswith("elapsed"):
            a.pop(k)
            b.pop(k)
    assert a == b


@pytest.mark.parametrize("algorithm", ["p-rk-fixed", "p-ab-progressive-naive"])
def test_approx_baselines_run(tmp_path, algorithm):
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n")
    out = str(tmp_path / "r.json")
    assert main(["approx", "--graph", graph, "--states", "random:4",
                 "--output", out, "--algorithm", algorithm,
                 "--epsilon", "0.2", "--delta", "0.2", "--seed", "1"]) == 0
    report = json.loads(Path(out).read_text())
    assert report["algorithm"] == algorithm
    assert report["r_final"] >= 1
    assert all(0.0 <= v <= 1.0 for v in report["estimates"].values())


@pytest.mark.parametrize("algorithm", ["mcera", "p-rk-fixed", "p-ab-progressive-naive"])
@pytest.mark.parametrize("flag,value", [("--epsilon", "0"), ("--epsilon", "-1"),
                                        ("--epsilon", "1.5"), ("--delta", "0"),
                                        ("--delta", "1")])
def test_approx_rejects_epsilon_delta_outside_unit_interval(tmp_path, capsys,
                                                            algorithm, flag, value):
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n")
    out = tmp_path / "r.json"
    assert main(["approx", "--graph", graph, "--states", "random:4",
                 "--output", str(out), "--algorithm", algorithm, flag, value]) == 3
    assert "must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_compare_csv_schema_and_aggregation(tmp_path):
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n0 2\n")
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", out, "--epsilon-grid", "0.3",
                 "--repetitions", "1", "--seed", "1", "--threads", "1",
                 "--algorithms", "mcera,p-rk-fixed"]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    golden_header = (DATA / "compare_header.csv").read_text().strip().split(",")
    assert rows[0] == golden_header
    assert {r[0] for r in rows[1:]} == {"mcera", "p-rk-fixed"}
    for row in rows[1:]:
        assert float(row[5]) <= 0.3 + 1e-9      # sd within epsilon
    agg = list(csv.reader(open(str(tmp_path / "cmp.agg.csv"))))
    agg_golden = (DATA / "compare_agg_header.csv").read_text().strip().split(",")
    assert agg[0] == agg_golden
    for row in agg[1:]:
        assert float(row[3]) == 0.0             # reps=1 -> samples_std 0


def test_compare_er300_deviations_within_epsilon(tmp_path):
    from gen import erdos_renyi_edges
    edges = erdos_renyi_edges(300, 0.03, seed=8)
    graph = write_graph(tmp_path, "".join(f"{u} {v}\n" for u, v in edges))
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--graph", graph, "--states", "random:5",
                 "--output", out, "--epsilon-grid", "0.2", "0.1",
                 "--repetitions", "2", "--seed", "3", "--threads", "1"]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 2 * 3           # grid x reps x algorithms
    for row in rows[1:]:
        assert float(row[5]) <= float(row[1]) + 1e-9, row


def test_approx_beta_and_cap_echoed(tmp_path):
    graph = write_graph(tmp_path)
    states = write_states(tmp_path, [1.0, 0.5, 0.0])
    out = str(tmp_path / "report.json")
    assert main(["approx", "--graph", graph, "--states", states,
                 "--output", out, "--seed", "5", "--beta", "0.2",
                 "--alpha-cap", "128", "--mc-trials", "10"]) == 0
    report = json.loads(Path(out).read_text())
    assert report["config"]["beta"] == 0.2
    assert report["config"]["bag_cap"] == 128
    assert report["config"]["mc_trials"] == 10


def test_compare_budget_refusal(tmp_path):
    graph = write_graph(tmp_path)
    out = str(tmp_path / "cmp.csv")
    code = main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", out, "--budget", "2", "--repetitions", "1"])
    assert code == 4
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", out, "--budget", "2", "--repetitions", "1",
                 "--epsilon-grid", "0.3", "--no-exact", "--seed", "1",
                 "--algorithms", "mcera"]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[1][5] == "nan"                  # sd not computable without exact



def test_compare_no_exact_probes_only_vertices_with_out_arcs(tmp_path):
    """Ids seen only on self-loop lines have no arcs; probing them bounds nothing."""
    text = "1 2\n2 3\n" + "".join(f"{i} {i}\n" for i in range(100, 291))
    graph = write_graph(tmp_path, text)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", out, "--no-exact", "--repetitions", "1",
                 "--epsilon-grid", "0.3", "--seed", "1",
                 "--algorithms", "p-rk-fixed"]) == 0
    rows = list(csv.reader(open(out)))
    assert [r[0] for r in rows[1:]] == ["p-rk-fixed"] and int(rows[1][3]) >= 1


@pytest.mark.parametrize("command", ["exact", "approx"])
def test_nan_state_exit_code(tmp_path, capsys, command):
    graph = write_graph(tmp_path)
    states = tmp_path / "states.txt"
    states.write_text("0.5\nnan\n0.1\n")
    out = tmp_path / "o"
    assert main([command, "--graph", graph, "--states", str(states),
                 "--output", str(out), "--threads", "1"]) == 3
    assert "states must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()

def test_approx_prk_fixed_refuses_exact_pass_over_budget(tmp_path, monkeypatch, capsys):
    from percolator import PercolationModel, baselines, load_edge_list, random_states
    import oracle_writer
    real, calls = baselines.exact_rho_and_diameter, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(baselines, "exact_rho_and_diameter", counted)
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n")       # n*m = 16
    out = tmp_path / "r.json"
    args = ["approx", "--graph", graph, "--states", "random:4", "--output", str(out),
            "--epsilon", "0.2", "--delta", "0.2", "--seed", "1"]
    assert main([*args, "--algorithm", "p-rk-fixed", "--budget", "15"]) == 4
    assert "refusing exact pass: n*m = 16 exceeds budget 15" in capsys.readouterr().err
    assert calls == [] and not out.exists()
    for algorithm in ("mcera", "p-ab-progressive-naive"):     # no exact pass to refuse
        assert main([*args, "--algorithm", algorithm, "--budget", "1"]) == 0
    assert calls == []

    assert main([*args, "--algorithm", "p-rk-fixed", "--budget", "16"]) == 0
    assert len(calls) == 1
    g = load_edge_list(graph)
    expected = baselines.run_prk_fixed(g, PercolationModel(random_states(g.n, 4)), 0.2, 0.2, 1)
    estimates = expected.pop("estimates")
    expected = json.loads(oracle_writer.json_with_estimates(
        {**expected, "n": g.n, "m": g.m}, g, estimates))
    report = json.loads(out.read_text())
    for payload in (report, expected):
        payload.pop("elapsed_bootstrap")
        payload.pop("elapsed_estimation")
    assert report == expected


@pytest.mark.parametrize("flag,value,code", [("--algorithms", "mcera,bogus", 2),
                                             ("--epsilon-grid", "0.1 1.5", 3)])
def test_compare_checks_inputs_before_any_pass(tmp_path, monkeypatch, flag, value, code):
    from percolator import cli
    calls = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    counted("exact_all")
    counted("_run_algorithm")
    graph = write_graph(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", str(out), "--repetitions", "1", flag, *value.split()]) == code
    assert calls == []
    assert not out.exists()


def test_estimator_options_share_defaults():
    from percolator.cli import build_parser
    required = ["--graph", "g", "--states", "random:1", "--output", "o"]
    approx = vars(build_parser().parse_args(["approx", *required]))
    compare = vars(build_parser().parse_args(["compare", *required]))
    names = ("delta", "mc_trials", "beta", "alpha_cap")
    assert [approx[k] for k in names] == [compare[k] for k in names] == [0.1, 25, 0.1, 1 << 16]


def test_exact_golden_files(tmp_path):
    graph = write_graph(tmp_path)
    states = write_states(tmp_path, [1.0, 0.5, 0.0])
    out = str(tmp_path / "exact.tsv")
    assert main(["exact", "--graph", graph, "--states", states,
                 "--output", out, "--threads", "1"]) == 0
    assert Path(out).read_bytes() == (DATA / "exact_path.tsv").read_bytes()
    produced = json.loads(Path(out + ".json").read_text())
    golden = json.loads((DATA / "exact_path.json").read_text())
    produced.pop("elapsed")
    golden.pop("elapsed")
    assert produced == golden


def test_exact_json_and_csv_formats(tmp_path):
    graph = write_graph(tmp_path)
    states = write_states(tmp_path, [1.0, 0.5, 0.0])
    out_json = str(tmp_path / "exact.json")
    assert main(["exact", "--graph", graph, "--states", states,
                 "--output", out_json, "--format", "json", "--threads", "1"]) == 0
    payload = json.loads(Path(out_json).read_text())
    assert payload["estimates"]["1"] == pytest.approx(1 / 6)

    out_csv = str(tmp_path / "exact.csv")
    assert main(["exact", "--graph", graph, "--states", states,
                 "--output", out_csv, "--format", "csv", "--threads", "1"]) == 0
    rows = list(csv.reader(open(out_csv)))
    assert rows[0] == ["original_id", "value"]
    assert float(rows[2][1]) == 1 / 6


def test_env_thread_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PERCOLATOR_THREADS", "1")
    graph = write_graph(tmp_path)
    out = str(tmp_path / "exact.tsv")
    assert main(["exact", "--graph", graph, "--states", "random:1",
                 "--output", out]) == 0


@pytest.mark.parametrize("bad_line", [
    b"9223372036854775808 1",        # outside int64
    b"-9223372036854775809 1",
    b"\xef\xbc\x91 2",               # non-ASCII (fullwidth digit one)
    b"1_000 2",                      # int() spelling outside the grammar
])
def test_bad_id_exit_code_names_the_line(tmp_path, capsys, bad_line):
    path = tmp_path / "g.txt"
    path.write_bytes(b"# ids\n0 1\n" + bad_line + b"\n")
    assert main(["exact", "--graph", str(path), "--states", "random:1",
                 "--output", str(tmp_path / "o"), "--threads", "1"]) == 3
    assert "input error: line 3:" in capsys.readouterr().err


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1 + 0.2,
                  1 / 3, 2 / 3, 1.0, 123456789.12345679, 1e16, float("inf"), float("nan")]


def test_bulk_estimate_writers_match_per_row_writers(tmp_path):
    """The bulk writers reproduce json.dump / csv.writer / per-row TSV byte for byte."""
    from percolator.cli import _json_with_estimates, _write_estimates
    from gen import build
    graph = build([(10 * i - 30, 10 * i - 20) for i in range(len(SPECIAL_FLOATS) - 1)])
    values = np.array(SPECIAL_FLOATS)
    ids = graph.orig_ids
    head = {"algorithm": "mcera", "r_final": 7, "xi": [0.5, 1e-300], "n": graph.n}
    per_vertex = {str(int(ids[v])): float(values[v]) for v in range(graph.n)}
    text = io.StringIO()
    _json_with_estimates(text, head, graph, values)
    assert text.getvalue() == json.dumps(
        {**head, "estimates": per_vertex}, indent=1) + "\n"

    for fmt in ("tsv", "csv", "json"):
        out = tmp_path / f"est.{fmt}"
        _write_estimates(str(out), graph, values, fmt)
        ref = tmp_path / f"ref.{fmt}"
        if fmt == "tsv":
            with open(ref, "w") as fh:
                for v in range(graph.n):
                    fh.write(f"{ids[v]}\t{values[v]:.17g}\n")
        elif fmt == "csv":
            with open(ref, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["original_id", "value"])
                for v in range(graph.n):
                    writer.writerow([int(ids[v]), f"{values[v]:.17g}"])
        else:
            with open(ref, "w") as fh:
                json.dump({"estimates": per_vertex}, fh, indent=1)
                fh.write("\n")
        assert out.read_bytes() == ref.read_bytes(), fmt


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13])
@pytest.mark.parametrize("fmt", ["json", "tsv", "csv"])
def test_streamed_writers_match_one_shot_writers(tmp_path, monkeypatch, n, fmt):
    """Blocks of 4 vertices: below one block, at block edges, 3+ blocks."""
    from percolator import cli
    from gen import build
    import oracle_writer
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 4)
    ids = [-(1 << 63), (1 << 63) - 1, -7, 0, 12, -1, 10**15, 3, -(10**18), 5, 6, 8, 9][:n]
    graph = build(list(zip(ids[:-1], ids[1:])))
    assert graph.orig_ids.tolist() == ids
    values = np.resize(np.array(SPECIAL_FLOATS + [-math.inf, -1e-5]), n)
    out = tmp_path / f"est.{fmt}"
    cli._write_estimates(str(out), graph, values, fmt)
    assert out.read_bytes() == oracle_writer.estimates_text(graph, values, fmt).encode()
    head = {"algorithm": "mcera", "xi": [math.nan, math.inf], "n": graph.n}
    text = io.StringIO()
    cli._json_with_estimates(text, head, graph, values)
    assert text.getvalue() == oracle_writer.json_with_estimates(head, graph, values)
