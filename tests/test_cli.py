import argparse
import csv
import gzip
import io
import json
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from percolator import cli, exact_vertex_diameter, vd_baseline_sample_size, workers
from percolator.cli import main

from gen import build, edge_text, layered_edges

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


def test_exact_path_count_overflow_exits_3(tmp_path, capsys):
    edges = layered_edges([1] + [2] * 1100 + [1])      # 2^1100 shortest paths
    graph = write_graph(tmp_path, "".join(f"{u} {v}\n" for u, v in edges))
    out = tmp_path / "exact.tsv"
    assert main(["exact", "--graph", graph, "--states", "random:1",
                 "--output", str(out), "--threads", "1"]) == 3
    assert "shortest-path count overflowed float64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [Path(graph)]


def test_compare_path_count_overflow_exits_3(tmp_path, capsys):
    """The naive baseline's pair samples reach pairs with more than 2^1024
    shortest paths on the deep two-wide layered graph."""
    graph = write_graph(tmp_path, edge_text(build(layered_edges([1] + [2] * 1100 + [1]))))
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", str(tmp_path / "cmp.csv"), "--no-exact",
                 "--algorithms", "p-ab-progressive-naive", "--threads", "1"]) == 3
    assert "shortest-path count overflowed float64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [Path(graph)]


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
    with open(graph, "rb") as fh:
        g = load_edge_list(fh)
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


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
def test_damaged_gzip_graph_exit_code(tmp_path, capsys, damage):
    """Half a gzip file ends the stream early (``EOFError``) and a damaged
    body fails to inflate (``zlib.error``): both are input errors, with no
    traceback and no output file."""
    blob = gzip.compress("".join(f"{i} {i + 1}\n" for i in range(2000)).encode())
    if damage == "truncated":
        blob = blob[:len(blob) // 2]
    else:
        blob = blob[:30] + bytes(b ^ 0x55 for b in blob[30:60]) + blob[60:]
    path = tmp_path / "g.txt.gz"
    path.write_bytes(blob)
    out = tmp_path / "exact.tsv"
    assert main(["exact", "--graph", str(path), "--states", "random:1",
                 "--output", str(out), "--threads", "1"]) == 3
    assert "corrupt gzip data" in capsys.readouterr().err
    assert not out.exists()


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


def test_approx_rejects_csv_format(tmp_path):
    """``approx`` writes its JSON report and, on request, a TSV; a csv
    request is a usage error rather than a silent JSON-only run."""
    graph = write_graph(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["approx", "--graph", graph, "--states", "random:1",
              "--output", str(tmp_path / "o"), "--format", "csv"])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == [Path(graph)]


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


def test_compare_budget_refusal(tmp_path, monkeypatch, capsys):
    """An O(n*m) pass runs unless ``--no-exact`` is given and p-rk-fixed,
    whose vertex diameter needs one, is not selected; above ``--budget``
    the command exits 4 before any estimator runs or any file is written."""
    real, runs = cli._run_algorithm, []

    def counted(name, *args, **kwargs):
        runs.append(name)
        return real(name, *args, **kwargs)
    monkeypatch.setattr(cli, "_run_algorithm", counted)
    graph = write_graph(tmp_path)                       # n*m = 6
    out = tmp_path / "cmp.csv"
    args = ["compare", "--graph", graph, "--states", "random:1", "--output", str(out),
            "--repetitions", "1", "--epsilon-grid", "0.3", "--seed", "1"]
    for extra in (["--budget", "2"],
                  ["--budget", "5", "--no-exact", "--algorithms", "mcera,p-rk-fixed"]):
        assert main([*args, *extra]) == 4
        assert ("rerun with --budget, or --no-exact without p-rk-fixed"
                in capsys.readouterr().err)
        assert runs == [] and list(tmp_path.glob("cmp*")) == []
    assert main([*args, "--budget", "1", "--no-exact",
                 "--algorithms", "mcera,p-ab-progressive-naive"]) == 0
    assert runs == ["mcera", "p-ab-progressive-naive"]
    rows = list(csv.reader(open(out)))
    assert rows[1][5] == "nan"                  # sd not computable without exact
    assert (tmp_path / "cmp.agg.csv").exists()



def test_compare_no_exact_probes_only_vertices_with_out_arcs(tmp_path):
    """Ids seen only on self-loop lines have no arcs: the vertex diameter
    is the path's 3, which gives one sample at eps 0.3."""
    text = "1 2\n2 3\n" + "".join(f"{i} {i}\n" for i in range(100, 291))
    graph = write_graph(tmp_path, text)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", out, "--no-exact", "--repetitions", "1",
                 "--epsilon-grid", "0.3", "--seed", "1",
                 "--algorithms", "p-rk-fixed"]) == 0
    rows = list(csv.reader(open(out)))
    assert [r[0] for r in rows[1:]] == ["p-rk-fixed"]
    assert int(rows[1][3]) == vd_baseline_sample_size(3, 0.3, 0.1)


@pytest.mark.parametrize("algorithms,probes", [("mcera", 0), ("p-ab-progressive-naive", 0),
                                               ("mcera,p-rk-fixed", 1)])
def test_no_exact_probes_the_diameter_only_for_p_rk_fixed(tmp_path, monkeypatch,
                                                          algorithms, probes):
    """Without the exact pass only p-rk-fixed reads a vertex diameter, so
    only a run that selects it pays for its O(n*m) pass, once."""
    real, calls = cli.exact_vertex_diameter, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "exact_vertex_diameter", counted)
    graph = write_graph(tmp_path, "0 1\n1 2\n2 3\n3 0\n0 2\n")
    assert main(["compare", "--graph", graph, "--states", "random:1",
                 "--output", str(tmp_path / "cmp.csv"), "--no-exact", "--repetitions", "1",
                 "--epsilon-grid", "0.3", "--threads", "1", "--algorithms", algorithms]) == 0
    assert len(calls) == probes


def test_no_exact_vertex_diameter_bounds_a_disconnected_graph(tmp_path):
    """A 1,000-leaf star beside a 50-vertex path: vertex diameter 50, which
    a search from the star does not see. Without the exact pass p-rk-fixed
    still draws the 416 samples it gives at eps 0.1 and delta 0.1, at
    every seed, and below n*m = 1,102,499 it refuses with no output."""
    edges = [(0, i) for i in range(1, 1001)] + [(i, i + 1) for i in range(1001, 1050)]
    assert exact_vertex_diameter(build(edges)) == 50
    graph = write_graph(tmp_path, "".join(f"{u} {v}\n" for u, v in edges))
    out = tmp_path / "cmp.csv"
    args = ["compare", "--graph", graph, "--states", "random:1", "--output", str(out),
            "--no-exact", "--repetitions", "1", "--epsilon-grid", "0.1", "--delta", "0.1",
            "--threads", "1", "--algorithms", "p-rk-fixed"]
    assert main([*args, "--budget", "1102498"]) == 4
    assert list(tmp_path.glob("cmp*")) == []
    for seed in range(5):
        assert main([*args, "--seed", str(seed)]) == 0
        rows = list(csv.reader(open(out)))
        assert [(r[0], int(r[3])) for r in rows[1:]] == [("p-rk-fixed", 416)], seed


@pytest.mark.parametrize("command", ["exact", "approx"])
def test_nan_state_exit_code(tmp_path, capsys, command):
    graph = write_graph(tmp_path)
    states = tmp_path / "states.txt"
    states.write_text("0.5\nnan\n0.1\n")
    out = tmp_path / "o"
    assert main([command, "--graph", graph, "--states", str(states),
                 "--output", str(out)]) == 3
    assert "states must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()

def test_approx_prk_fixed_refuses_exact_pass_over_budget(tmp_path, monkeypatch, capsys):
    from percolator import (PercolationModel, ScheduleConfig, baselines, load_edge_list,
                            random_states)
    import oracle_writer
    real, calls = baselines.exact_vertex_diameter, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(baselines, "exact_vertex_diameter", counted)
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
    with open(graph, "rb") as fh:
        g = load_edge_list(fh)
    expected = baselines.run_prk_fixed(g, PercolationModel(random_states(g.n, 4)),
                                       ScheduleConfig(0.2, 0.2), 1)
    estimates = expected.pop("estimates")
    expected = json.loads(oracle_writer.json_with_estimates(
        {**expected, "n": g.n, "m": g.m}, g, estimates))
    report = json.loads(out.read_text())
    for payload in (report, expected):
        payload.pop("elapsed_bootstrap")
        payload.pop("elapsed_estimation")
    assert report == expected


@pytest.mark.parametrize("argv,advice", [
    (["compare", "--repetitions", "1"], "--budget, or --no-exact without p-rk-fixed"),
    (["approx", "--algorithm", "p-rk-fixed"], "--budget")])
def test_every_command_refuses_over_budget_before_reading_the_states(tmp_path, monkeypatch,
                                                                     capsys, argv, advice):
    """The budget is checked right after the load: a states file of the
    wrong length for the 3-vertex path is never read, the model is never
    built, and the command exits 4 with its refusal line and no output."""
    real, built = cli.PercolationModel, []

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "PercolationModel", counted)
    out = tmp_path / "out"
    assert main([*argv, "--graph", write_graph(tmp_path), "--states",
                 write_states(tmp_path, [0.5]), "--output", str(out), "--budget", "2"]) == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        f"refusing exact pass: n*m = 6 exceeds budget 2; rerun with {advice}"
    assert built == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "states.txt"]


@pytest.mark.parametrize("flag,value,code", [("--algorithms", "mcera,bogus", 2),
                                             ("--algorithms", "mcera,mcera", 2),
                                             ("--algorithms", "", 2),
                                             ("--epsilon-grid", "0.3 0.3", 2),
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
                 "--output", str(out), "--repetitions", "1", flag,
                 *(value.split() or [value])]) == code
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("exact", "--seed")])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag):
    """``--seed`` fixes the samples (``approx``, ``compare``); ``exact`` draws
    none, so there it is a usage error rather than a flag that changes nothing."""
    graph = write_graph(tmp_path)
    with pytest.raises(SystemExit) as err:
        main([command, "--graph", graph, "--states", "random:1",
              "--output", str(tmp_path / "o"), flag, "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [Path(graph)]


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


def test_threads_default_to_all_cores(tmp_path, monkeypatch):
    """Without ``--threads`` every command's pool has one worker per CPU this
    process may run on (its affinity, not the host's count), and writes the
    bytes a serial run writes, timings apart."""
    graph = write_graph(tmp_path)
    seen = []
    real = cli.open_pool

    def spy(graph, model, threads):
        seen.append(threads)
        return real(graph, model, threads)

    monkeypatch.setattr(cli, "open_pool", spy)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    commands = {"exact": [], "approx": ["--epsilon", "0.3"],
                "compare": ["--epsilon-grid", "0.3", "--repetitions", "1"]}
    for command, extra in commands.items():
        seen.clear()
        outs = [tmp_path / f"{command}.default", tmp_path / f"{command}.serial"]
        for out, threads in zip(outs, ([], ["--threads", "1"])):
            assert main([command, "--graph", graph, "--states", "random:1",
                         "--output", str(out), *extra, *threads]) == 0
        assert seen == [2, 1], command
        default, serial = (without_timings(out) for out in outs)
        assert default == serial, command


def without_timings(path) -> list:
    """The rows of a written file without its timing fields or columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name != "seconds"]
    return [[row[j] for j in keep] for row in rows if "elapsed" not in ",".join(row)]


def test_threads_fall_back_to_the_cpu_count(monkeypatch):
    """Where the platform has no affinity call, the default is the CPU count."""
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._threads(argparse.Namespace(threads=None)) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._threads(argparse.Namespace(threads=None)) == 1


def test_compare_opens_one_pool_and_joins_it(tmp_path, monkeypatch):
    """``--threads 2`` opens one pool of two: ``compare`` runs its exact pass
    and every sampler in it, ``approx`` its samples, ``exact`` its pass.
    ``--threads 1`` opens none. Every worker is joined before ``main``
    returns."""
    opened = []

    class Spy(workers.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(workers, "ProcessPoolExecutor", Spy)
    # 301 vertices: two exact source blocks, so ``exact`` needs a pool too
    graph = write_graph(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(300)))
    out = str(tmp_path / "o")
    runs = [(["compare", "--epsilon-grid", "0.3", "--repetitions", "1", "--threads", "2"], [2]),
            (["compare", "--epsilon-grid", "0.3", "--repetitions", "1", "--threads", "1"], []),
            (["approx", "--epsilon", "0.3", "--threads", "2"], [2]),
            (["approx", "--epsilon", "0.3", "--threads", "1"], []),
            (["exact", "--threads", "2"], [2])]
    for argv, pools in runs:
        opened.clear()
        assert main([*argv, "--graph", graph, "--states", "random:1", "--output", out]) == 0
        assert opened == pools, argv
        assert multiprocessing.active_children() == []


def test_only_exact_asks_the_exact_pass_for_betweenness(tmp_path, monkeypatch):
    """``compare`` scores the estimators against the exact percolation
    scores alone, so its exact pass skips betweenness; ``exact`` prints
    ``sum_b`` and keeps the default."""
    calls = []
    real = cli.exact_all

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_all", recorded)
    graph = write_graph(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(20)))
    out = str(tmp_path / "o")
    for argv in (["compare", "--epsilon-grid", "0.3", "--repetitions", "1",
                  "--algorithms", "mcera"], ["exact"]):
        assert main([*argv, "--graph", graph, "--states", "random:1", "--output", out,
                     "--threads", "1"]) == 0
    assert [{k: v for k, v in kw.items() if k != "pool"} for kw in calls] == \
        [{"betweenness": False}, {}]


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs Linux")
def test_workers_do_not_outlive_a_killed_command(tmp_path):
    """A command killed mid-pass takes its pool with it: ``exact --threads
    2`` runs in its own session, and once both workers are forked only the
    command is killed; within 10 s no process of its group is left. The
    exact pass on a 3,000-vertex path (3,000 levels per source) lasts far
    longer than that, so a worker left alive would still be there."""
    graph = write_graph(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(2999)))
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "percolator.cli", "exact", "--graph", graph,
                             "--states", "random:1", "--threads", "2",
                             "--output", str(tmp_path / "o")],
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while len(children.read_text().split()) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived its command"
            time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_a_worker_forked_after_its_parent_died_ends_itself():
    """A worker whose parent is gone before it asks for the parent-death
    signal would never get one, so the pool's initializer kills it: here a
    process forked from this one, told that its parent was another, and
    not one told the truth."""
    for parent, exitcode in ((os.getpid() + 1, -signal.SIGKILL), (os.getpid(), 0)):
        proc = multiprocessing.get_context("fork").Process(target=workers._die_with_parent,
                                                           args=(parent,))
        proc.start()
        proc.join(10)
        assert proc.exitcode == exitcode


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


WRITE_PEAK_CHILD = """
import sys
import numpy as np
from percolator import cli
from percolator.graph import Graph

def status_bytes(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) * 1024

n = 300_000       # a cycle built from its arrays, so no loader sets VmHWM first
offsets = np.arange(0, 2 * n + 1, 2)
targets = np.stack([np.roll(np.arange(n), 1), np.roll(np.arange(n), -1)], axis=1).ravel()
graph = Graph(n=n, m=n, directed=False, fwd_offsets=offsets, fwd_targets=targets,
              bwd_offsets=offsets, bwd_targets=targets, orig_ids=np.arange(n) * 1_000_003)
values = np.random.default_rng(1).random(n)
before = status_bytes("VmHWM:")
cli._write_estimates(sys.argv[1], graph, values, sys.argv[2])
print(status_bytes("VmHWM:") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_writer_peak_is_bounded_by_its_block(tmp_path, fmt):
    """Writing 300k estimates grows a fresh process's peak by under 6 MB:
    only one ``_WRITE_BLOCK`` of vertices is formatted at a time (3.1 MB
    for json and 1.9 MB for tsv at 8,192 vertices, 21.3 and 14.3 MB at
    65,536)."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", WRITE_PEAK_CHILD, str(tmp_path / "est"), fmt],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert int(out) < 6_000_000, int(out)


PHASE_CHILD = """
import sys
from percolator import cli

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) * 1024

def note(point):
    print(point, status("VmSize:"), status("VmPeak:"), status("VmHWM:"), flush=True)

load = cli._load_graph

def noted_load(args):
    note("before-load")
    graph = load(args)
    note("loaded")
    return graph

cli._load_graph = noted_load
code = cli.main(sys.argv[1:])
note("end")
sys.exit(code)
"""


def approx_in_child(tmp_path, graph, limit=None):
    """``approx --threads 1`` on ``graph`` in a child process, its address
    space limited to ``limit`` bytes when given: the process, and the
    child's VmSize, VmPeak and VmHWM before the load, after it and at the
    end, by point (a point it did not reach is missing)."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cap = None if limit is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    proc = subprocess.run([sys.executable, "-c", PHASE_CHILD, "approx", "--graph", graph,
                           "--states", "random:7", "--seed", "1", "--threads", "1",
                           "--output", str(tmp_path / "report.json")],
                          env=env, capture_output=True, text=True, preexec_fn=cap, timeout=300)
    points = {}
    for line in proc.stdout.splitlines():
        point, *sizes = line.split()
        points[point] = dict(zip(("size", "peak", "hwm"), map(int, sizes)))
    return proc, points


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
def test_approx_after_the_load_stays_near_the_loads_peak(tmp_path):
    """After the load, the rest of an ``approx`` run raises a fresh
    process's peak by less than 6 n-sized float64 arrays: 4.4 here (7.0 MB
    over 196k vertices, 400k uniform lines over 200k ids). It holds the
    model (states, exclusion sums), the search's workspace (int32
    distances, path counts, slots), int32 rows of the Monte-Carlo state,
    the sums and the report's blocks. With a second copy of the states
    beside the model, the model's temporaries made out of place, int64
    distances and rows, the bootstrap's squared sums held to the end and
    the estimates copied out of the sums, it was 9.3-9.4."""
    rng = np.random.default_rng(1)
    u, v = rng.integers(200_000, size=400_000), rng.integers(200_000, size=400_000)
    graph = write_graph(tmp_path, "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))
    proc, points = approx_in_child(tmp_path, graph)
    assert proc.returncode == 0, proc.stderr
    n = json.loads((tmp_path / "report.json").read_text())["n"]
    growth = points["end"]["hwm"] - points["loaded"]["hwm"]
    assert growth < 6 * 8 * n, growth / (8 * n)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmPeak")
def test_running_out_of_memory_exits_5_naming_the_phase(tmp_path):
    """A run that cannot get the memory it needs ends with one line naming
    the phase (and n and m once the graph is loaded) and exit 5, not a
    traceback. The limits come from an unlimited run on 500k lines joining
    1M ids in pairs, whose model needs more address space than its load:
    one below what the load asks for, one between the load's peak and the
    run's (the model's, here)."""
    ids = np.random.default_rng(3).permutation(1_000_000).tolist()
    graph = write_graph(tmp_path, "".join(f"{a} {b}\n" for a, b in zip(ids[0::2], ids[1::2])))
    proc, points = approx_in_child(tmp_path, graph)
    assert proc.returncode == 0, proc.stderr
    loaded, end = points["loaded"]["peak"], points["end"]["peak"]
    assert end - loaded > 16 << 20, (loaded, end)
    for limit, phases in ((points["before-load"]["size"] + (16 << 20), ["load"]),
                          ((loaded + end) // 2, ["model", "estimation", "write"])):
        proc, _ = approx_in_child(tmp_path, graph, limit)
        assert proc.returncode == 5, proc.stderr
        assert "Traceback" not in proc.stderr
        message = proc.stderr.strip().splitlines()[-1]
        size = "" if phases == ["load"] else " (n = 1000000, m = 500000)"
        assert message in [f"error: out of memory during the {p}{size}" for p in phases], message


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


POOL_CHILD = """
import sys
from concurrent.futures import ProcessPoolExecutor
from percolator import cli

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key)) * 1024

submit = ProcessPoolExecutor.submit

def noted_submit(self, *args, **kwargs):
    if not getattr(noted_submit, "seen", False):
        noted_submit.seen = True
        print(status("VmSize:"), status("VmPeak:"), flush=True)
    return submit(self, *args, **kwargs)

ProcessPoolExecutor.submit = noted_submit
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmSize")
def test_a_pool_that_cannot_start_exits_5_naming_the_phase(tmp_path):
    """A pool whose threads cannot start ends the command within 30 s, with
    one line naming the phase, exit 5, no output and no process of the
    command left. ``approx --threads 2`` runs in its own session with 8 MiB
    thread stacks, on 300k lines joining 600k ids in pairs, so that the
    address space at the pool's first job is above every earlier peak.
    With the limit half a stack above that point the executor's manager
    thread cannot start; with one and a half stacks above it the manager
    starts but the call queue's feeder thread cannot, which ended the
    manager thread and left the command waiting on its first job for good.
    """
    ids = np.random.default_rng(5).permutation(600_000).tolist()
    graph = write_graph(tmp_path, "".join(f"{a} {b}\n" for a, b in zip(ids[0::2], ids[1::2])))
    out = tmp_path / "report.json"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
    stack = 8 << 20 if hard == resource.RLIM_INFINITY else min(8 << 20, hard)

    def run(limit=None):
        def cap():
            resource.setrlimit(resource.RLIMIT_STACK, (stack, hard))
            if limit is not None:
                resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", POOL_CHILD, "approx", "--graph", graph,
                                 "--states", "random:7", "--seed", "1", "--epsilon", "0.1",
                                 "--threads", "2", "--output", str(out)],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, preexec_fn=cap, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=30)
            elapsed = time.monotonic() - start
            deadline = time.monotonic() + 10
            while True:                 # the command's group empties
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived its command"
                time.sleep(0.02)
        except subprocess.TimeoutExpired:
            pytest.fail(f"the command hung at RLIMIT_AS = {limit}")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return proc.returncode, [int(x) for x in stdout.split()], stderr, elapsed

    code, (size, peak), stderr, _ = run()
    assert code == 0, stderr
    out.unlink()
    assert peak < size + stack // 2, (size, peak)
    for limit in (size + stack // 2, size + 3 * stack // 2):
        code, _, stderr, elapsed = run(limit)
        assert code == 5, stderr
        assert "Traceback" not in stderr
        assert stderr.strip().splitlines()[-1] == (
            "error: the worker pool could not start during the estimation "
            "(n = 600000, m = 300000)")
        assert elapsed < 30
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]


def test_a_dead_worker_exits_5_naming_the_phase(tmp_path, monkeypatch, capsys):
    """A pool worker that dies mid-run ends the command with one line naming
    the phase and exit 5, not a traceback: here every source sweep run in a
    worker, not in the command's process, ends its process."""
    from percolator import exact
    main_pid, sweep = os.getpid(), exact._source_sweep

    def dying(*args):
        if os.getpid() != main_pid:
            os._exit(1)
        return sweep(*args)

    monkeypatch.setattr(exact, "_source_sweep", dying)      # before the pool forks
    graph = write_graph(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(599)))
    out = tmp_path / "exact.tsv"
    assert main(["exact", "--graph", graph, "--states", "random:1",
                 "--output", str(out), "--threads", "2"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == \
        "error: a worker process died during the exact pass (n = 600, m = 599)"
    assert not out.exists() and not Path(str(out) + ".json").exists()


@pytest.mark.parametrize("command,fmt", [("exact", "tsv"), ("exact", "json"), ("exact", "csv"),
                                         ("approx", "json"), ("approx", "tsv")])
def test_a_failed_write_leaves_no_partial_output(tmp_path, monkeypatch, capsys, command, fmt):
    """Every output is written beside its target and renamed over it once
    complete: a write that runs out of memory after its first block exits 5
    and leaves neither a partial file nor its ``.partial`` copy, and a
    target already there untouched."""
    blocks = cli._estimate_blocks

    def failing(*args):
        gen = blocks(*args)
        yield next(gen)
        raise MemoryError

    monkeypatch.setattr(cli, "_WRITE_BLOCK", 4)
    monkeypatch.setattr(cli, "_estimate_blocks", failing)
    graph = write_graph(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(11)))
    out = tmp_path / "out"
    out.write_text("old\n")
    assert main([command, "--graph", graph, "--states", "random:1", "--output", str(out),
                 "--format", fmt, "--threads", "1"]) == 5
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        "error: out of memory during the write (n = 12, m = 11)"
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "out"]


def test_an_output_the_rename_cannot_place_leaves_no_partial_output(tmp_path, capsys):
    """A complete output whose final rename fails, here over a directory of
    the output's name, exits 3 naming the error, and its ``.partial`` copy
    is removed too."""
    graph = write_graph(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(11)))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["exact", "--graph", graph, "--states", "random:1", "--output", str(out),
                 "--threads", "1"]) == 3
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "out"]
    assert not any(out.iterdir())
