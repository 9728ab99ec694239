"""Quick check of the benchmark harness itself, on tiny generated graphs.

    python3 perfbench/selfcheck.py

Covers the self-time arithmetic, rebinding and restoring the traced
functions, the output digest, and failure counting. Runs in seconds, so
the harness can be validated before the long runs. Exits 0 on success.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import gen
import probe
import run
from checks import check_approx, check_compare
from tracer import Tracer, aggregate, package_modules


def _approx(name: str, *extra: str) -> run.Workload:
    return run.Workload(name, lambda seed: gen.newman_watts_edges(300, 4, 0.1, seed),
                        ("approx", "--epsilon", "0.1", "--delta", "0.1", "--seed", "1",
                         "--states", "random:7", *extra), "report.json")


TINY_APPROX = _approx("tiny-approx")
TINY_COMPARE = run.Workload("tiny-compare", lambda seed: gen.newman_watts_edges(200, 4, 0.1, seed),
                            ("compare", "--epsilon-grid", "0.1", "--repetitions", "1",
                             "--threads", "2", "--seed", "1", "--states", "random:13"),
                            "compare.csv")
# epsilon outside (0, 1): the CLI exits with code 3 before any output
BROKEN = _approx("tiny-broken", "--epsilon", "2")


def check_self_time() -> None:
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 7.0, 0]]
    agg = aggregate(spans)
    assert agg["a"] == {"calls": 1, "total": 10.0, "self": 5.0}, agg
    assert agg["b"] == {"calls": 2, "total": 5.0, "self": 4.0}, agg
    assert agg["c"] == {"calls": 1, "total": 1.0, "self": 1.0}, agg


def _bindings() -> dict:
    from percolator.bounds import McEraState
    from percolator.graph import Graph
    from percolator.percolation import PercolationModel
    owners = [*package_modules("percolator"), Graph, McEraState, PercolationModel]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def check_rebinding(tmp: Path) -> None:
    from percolator import cli, graph, progressive, sampling
    u, v = TINY_APPROX.edges(3)
    gen.write_edges(str(tmp / "g.txt"), u, v)
    argv = [*TINY_APPROX.cli_args, "--graph", str(tmp / "g.txt")]

    before = _bindings()
    original_bfs = sampling.balanced_bidirectional_bfs
    tracer = Tracer()
    probe.install(tracer, "traced")
    bfs = progressive.balanced_bidirectional_bfs
    assert bfs is not original_bfs and sampling.balanced_bidirectional_bfs is bfs
    assert graph.Graph.expand_frontier is not before[(id(graph.Graph), "expand_frontier")]
    with redirect_stderr(io.StringIO()):
        assert cli.main([*argv, "--output", str(tmp / "traced.json")]) == 0
    tracer.restore()
    assert _bindings() == before, "restore left a traced binding behind"
    with redirect_stderr(io.StringIO()):
        assert cli.main([*argv, "--output", str(tmp / "plain.json")]) == 0

    names = [s[0] for s in tracer.spans]
    parents = {names[s[3]] for s in tracer.spans
               if s[0] == "graph.Graph.expand_frontier" and s[3] >= 0}
    assert "sampling.balanced_bidirectional_bfs" in parents, parents
    assert {names[s[3]] for s in tracer.spans if s[0] == probe.ESTIMATE} == {"cli.cmd_approx"}
    # self times partition the root spans exactly
    agg = aggregate(tracer.spans)
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert abs(sum(a["self"] for a in agg.values()) - roots) < 1e-9
    assert tracer.counts["sampling.paths.drawn"] > 0

    n, m = run.graph_facts(u, v)["n"], run.graph_facts(u, v)["m"]
    problems, traced = check_approx(tmp / "traced.json", n, m)
    assert not problems, problems
    assert check_approx(tmp / "plain.json", n, m)[1] == traced, "tracing changed the report"


def check_digest_and_failures(tmp: Path) -> None:
    ok, metrics, details = run.run(TINY_APPROX, 5, 0.1, trace=False)
    assert ok and details["failed"] == 0 and set(metrics) == set(_declared("end_to_end")), details
    ok, metrics, traced = run.run(TINY_APPROX, 5, 0.1, trace=True)
    assert ok and traced["digest"] == details["digest"], traced
    assert set(metrics) == set(_declared("per_layer")), set(metrics) ^ set(_declared("per_layer"))
    ok, metrics, cmp = run.run(TINY_COMPARE, 5, 0.1, trace=False)
    assert ok and cmp["unbounded"]["rel_max_err"][0] > 0.0, cmp

    ok, metrics, broken = run.run(BROKEN, 5, 0.1, trace=False)
    assert not ok and broken["attempted"] == 1 and broken["failed"] == 1 and not metrics, broken

    u, v = TINY_APPROX.edges(5)
    facts = run.graph_facts(u, v)
    path = tmp / "report.json"
    report = {"n": facts["n"], "m": facts["m"], "r_final": 10, "ceiling": 10,
              "stop_reason": "ceiling-hit", "elapsed_estimation": 1.0,
              "estimates": {str(i): 0.0 for i in range(facts["n"])}}
    path.write_text(json.dumps(report))
    problems, digest = check_approx(path, facts["n"], facts["m"])
    assert not problems, problems
    path.write_text(json.dumps({**report, "elapsed_estimation": 2.0}))
    assert check_approx(path, facts["n"], facts["m"])[1] == digest, "digest depends on elapsed_*"
    for bad in ({"r_final": 11}, {"stop_reason": "tired"}, {"m": facts["m"] + 1},
                {"estimates": {**report["estimates"], "0": -1.0}}):
        path.write_text(json.dumps({**report, **bad}))
        problems, other = check_approx(path, facts["n"], facts["m"])
        assert problems and other != digest, bad

    raw = tmp / "c.csv"
    rows = ["algorithm,epsilon,rep,samples,seconds,sd,mad",
            "mcera,0.1,0,5,0.5,0.01,0.001", "p-rk-fixed,0.1,0,5,0.5,0.01,0.001",
            "p-ab-progressive-naive,0.1,0,5,0.5,{sd},0.001"]
    raw.with_name("c.agg.csv").write_text("h\na\nb\nc\n")
    raw.write_text("\n".join(rows).format(sd="0.01") + "\n")
    problems, digest, _ = check_compare(raw, 0.1)
    assert not problems, problems
    raw.write_text("\n".join(rows).replace("0.5", "9.5").format(sd="0.01") + "\n")
    assert check_compare(raw, 0.1)[1] == digest, "digest depends on the seconds column"
    for sd in ("0.2", "nan"):
        raw.write_text("\n".join(rows).format(sd=sd) + "\n")
        assert check_compare(raw, 0.1)[0], sd


def _declared(kind: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def main() -> int:
    if not (run.SRC / "percolator" / "cli.py").is_file():
        print(f"no program sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_self_time()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        check_rebinding(Path(tmp))
        check_digest_and_failures(Path(tmp))
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
