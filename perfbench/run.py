"""Benchmark of the percolator CLI on seeded, generated graphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run generates the workload's graph from ``--seed``, writes it as an
edge-list file and runs the real CLI command on it, one fresh child
process at a time (``probe.py``), for about ``--seconds`` seconds: at
least one command (``Workload.min_commands``), then more while the next
one is expected to fit.
Each command is checked (exit code, output format, n and m, estimates
finite and >= 0, stop reason, r_final <= ceiling, sd <= epsilon on
compare) and its output digest must be the same for every command of
the run, since the inputs are.

``--trace 0`` times the commands with clocks only at the few phase
boundaries and prints the end-to-end metrics; ``--trace 1`` adds one
such command, then traced ones, and prints the per-layer metrics and
the tracing overhead. The last stdout line is the JSON result; the line
before it holds the digest, the machine and input facts, and figures
that have no bound. Without the program's sources next to this
directory the run prints no result and exits 2.
``--workload all`` runs every workload untraced and prints a table of
every end-to-end metric. Every file goes under ``.bench_work`` in the
checkout. See ``METRICS.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from checks import check_approx, check_compare, check_record
from probe import ESTIMATE, EXACT, LOADER, MODEL, SOLVERS
from tracer import aggregate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 165.0        # a run must end within 180 s
MIN_SETUP_SAMPLES = 3
MC_TRIALS = 25             # the CLI's --mc-trials default; sizes the MC-ERA state


@dataclass(frozen=True)
class Workload:
    name: str
    edges: object          # seed -> (u, v) arrays
    cli_args: tuple
    output: str
    # untraced commands per run even past --seconds: two where the quartile
    # spread of single-command wall times across runs reached 0.2 (a shared
    # 2-core host whose speed drifts by 20% within minutes)
    min_commands: int = 1

    @property
    def compare(self) -> bool:
        return self.cli_args[0] == "compare"

    @property
    def epsilon(self) -> float:
        flag = "--epsilon-grid" if self.compare else "--epsilon"
        return float(self.cli_args[self.cli_args.index(flag) + 1])


WORKLOADS = {w.name: w for w in (
    Workload("approx-er400k",
             lambda seed: gen.uniform_edges(400_000, 2_000_000, seed),
             ("approx", "--algorithm", "mcera", "--epsilon", "0.05", "--delta", "0.1",
              "--seed", "1", "--states", "random:7"),
             "report.json", min_commands=2),
    Workload("approx-cl50k",
             lambda seed: gen.chung_lu_edges(50_000, 10.0, 2.3, seed),
             ("approx", "--algorithm", "mcera", "--epsilon", "0.02", "--delta", "0.1",
              "--seed", "1", "--states", "random:7"),
             "report.json", min_commands=2),
    Workload("compare-sw5k",
             lambda seed: gen.newman_watts_edges(5000, 6, 0.1, seed),
             ("compare", "--epsilon-grid", "0.1", "--repetitions", "1", "--threads", "2",
              "--seed", "1", "--states", "random:13"),
             "compare.csv"),
)}


@dataclass
class Command:
    """One finished child process and what was checked about it."""

    mode: str
    t_spawn: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    record: dict
    problems: list = field(default_factory=list)
    digest: str | None = None
    sd: dict = field(default_factory=dict)
    output_bytes: int = 0

    def span_total(self, *names) -> float:
        return sum(end - start for name, start, end, _ in self.record["spans"] if name in names)

    @property
    def setup_s(self) -> float:
        return next(end for name, _, end, _ in self.record["spans"] if name == MODEL) - self.t_spawn


def graph_facts(u: np.ndarray, v: np.ndarray) -> dict:
    """n and m as the loader will count them, and the array sizes they imply."""
    seen = np.bincount(np.concatenate([u, v]))
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    keys = np.sort(lo * seen.size + hi)
    n, m = int(np.count_nonzero(seen)), int(np.count_nonzero(np.diff(keys))) + 1
    return {"n": n, "m": m,
            # offsets, targets (both directions share them when undirected), orig_ids
            "csr_bytes": 8 * ((n + 1) + 2 * m + n),
            # signed_sums (n x c) and sq_sums (n)
            "mcera_state_bytes": 8 * n * (MC_TRIALS + 1)}


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "numpy": np.__version__, "cpu": platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip()
                                for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            break
        if level in ("2", "3") and size.endswith("K"):
            facts[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return facts


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload: Workload, graph: Path, mode: str, outdir: Path, deadline: float) -> Command:
    """Run one CLI command in a child process and wait for it (and its pool)."""
    outdir.mkdir(parents=True)
    record_path = outdir / "record.json"
    argv = [sys.executable, str(BENCH / "probe.py"), str(record_path), mode, str(SRC), "--",
            *workload.cli_args, "--graph", str(graph), "--output", str(outdir / workload.output)]
    with open(outdir / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, cwd=outdir, start_new_session=True)
        timer = threading.Timer(max(deadline - t_spawn, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # pool workers left behind by a crashed command
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {"exit_code": None, "peak_rss_kb": 0, "spans": [], "counts": {}, "results": {}}
    cmd = Command(mode, t_spawn, wall, usage.ru_utime + usage.ru_stime,
                  record["peak_rss_kb"] * 1024 / 1e6, record)
    if proc.returncode != 0 or record["exit_code"] != 0:
        tail = (outdir / "log.txt").read_text(errors="replace")[-2000:]
        cmd.problems.append(f"exit code {proc.returncode}: {tail}")
    return cmd


def check(cmd: Command, workload: Workload, facts: dict, outdir: Path) -> None:
    n, m = facts["n"], facts["m"]
    cmd.problems += check_record(cmd.record, n, m)
    if not any(span[0] == MODEL for span in cmd.record["spans"]):
        cmd.problems.append("the model was never built")
    if cmd.mode == "setup" or cmd.problems:
        return
    if workload.compare:
        problems, cmd.digest, cmd.sd = check_compare(outdir / workload.output, workload.epsilon)
        if not cmd.record["results"].get(EXACT):
            problems.append("exact pass did not run")
    else:
        problems, cmd.digest = check_approx(outdir / workload.output, n, m)
    if not cmd.record["results"].get(ESTIMATE):
        problems.append("mcera estimate did not run")
    cmd.problems += problems
    cmd.output_bytes = sum(p.stat().st_size for p in outdir.iterdir()
                           if p.name not in ("record.json", "log.txt"))


def end_to_end(cmds: list[Command], setups: list[float]) -> dict:
    """Medians over the run's untraced commands."""
    med = statistics.median
    return {
        "wall_s": (med([c.wall_s for c in cmds]), "s"),
        "setup_s": (med(setups), "s"),
        "solve_s": (med([c.span_total(*SOLVERS) for c in cmds]), "s"),
        "peak_rss_mb": (med([c.rss_mb for c in cmds]), "MB"),
        "samples": (med([c.record["results"][ESTIMATE][0]["r_final"] for c in cmds]), "count"),
    }


def unbounded(workload: Workload, cmds: list[Command]) -> dict:
    """End-to-end figures that exist on some workloads only, so they get no bound."""
    if workload.compare:
        # mcera's max deviation over the largest exact p; the same on every command
        return {"rel_max_err": (cmds[0].sd["mcera"] / cmds[0].record["results"][EXACT][0]["max"],
                                "ratio")}
    rates = [c.record["results"][ESTIMATE][0]["r_final"] / c.span_total(ESTIMATE) for c in cmds]
    return {"samples_per_s": (statistics.median(rates), "1/s")}


def layer_metrics(cmd: Command, overhead_s: float) -> dict:
    """Per-layer metrics of one traced command; zero where a layer never ran."""
    agg = aggregate(cmd.record["spans"])
    counts, results = cmd.record["counts"], cmd.record["results"]

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name):
        return agg.get(name, {}).get("total", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    bfs, paths, add = ("sampling.balanced_bidirectional_bfs", "sampling.sample_paths",
                       "bounds.McEraState.add_sample")
    expand = "graph.Graph.expand_frontier"
    est = (results.get(ESTIMATE) or [{}])[0]
    pab = (results.get("baselines.run_pab_naive") or [{}])[0]
    loaded_m = results[LOADER][0]["m"]
    return {
        "graph.load_edge_list.s": (total(LOADER), "s"),
        "graph.load_edge_list.edges_per_s": (ratio(loaded_m, total(LOADER)), "1/s"),
        "graph.expand_frontier.calls": (calls(expand), "count"),
        "graph.expand_frontier.arcs": (counts.get(expand + ".arcs", 0), "count"),
        "graph.expand_frontier.s": (total(expand), "s"),
        "graph.bfs_level_counts.calls": (calls("graph.bfs_level_counts"), "count"),
        "graph.bfs_level_counts.s": (total("graph.bfs_level_counts"), "s"),
        "percolation.random_states.s": (total("percolation.random_states"), "s"),
        "percolation.model.s": (total(MODEL), "s"),
        "sampling.bfs.calls": (calls(bfs), "count"),
        "sampling.bfs.ms_per_call": (1e3 * ratio(total(bfs), calls(bfs)), "ms"),
        "sampling.bfs.self_ms_per_call": (1e3 * ratio(agg.get(bfs, {}).get("self", 0.0),
                                                      calls(bfs)), "ms"),
        "sampling.bfs.arcs_per_call": (ratio(counts.get("arcs_under:" + bfs, 0), calls(bfs)),
                                       "count"),
        "sampling.bfs.connected_frac": (ratio(counts.get("sampling.bfs.connected", 0),
                                              calls(bfs)), "ratio"),
        "sampling.paths.calls": (calls(paths), "count"),
        "sampling.paths.drawn": (counts.get("sampling.paths.drawn", 0), "count"),
        "sampling.paths.us_per_path": (1e6 * ratio(total(paths),
                                                   counts.get("sampling.paths.drawn", 0)), "us"),
        "sampling.paths.capped": (counts.get("sampling.paths.capped", 0), "count"),
        "sampling.paths.deg_sum": (counts.get("sampling.paths.deg_sum", 0), "count"),
        "sampling.bag_estimate.s": (total("sampling.bag_estimate"), "s"),
        "sampling.bag_estimate.nnz": (counts.get("sampling.bag_estimate.nnz", 0), "count"),
        "sampling.useful_frac": (ratio(counts.get("sampling.useful", 0), calls(add)), "ratio"),
        "sampling.prk_sample.s": (total("sampling.prk_sample"), "s"),
        "sampling.pab_sample.s": (total("sampling.pab_sample"), "s"),
        "baselines.run_prk_fixed.s": (total("baselines.run_prk_fixed"), "s"),
        "baselines.run_pab_naive.s": (total("baselines.run_pab_naive"), "s"),
        "baselines.pab.samples": (pab.get("r_final", 0), "count"),
        "bounds.add_sample.calls": (calls(add), "count"),
        "bounds.add_sample.us_per_call": (1e6 * ratio(total(add), calls(add)), "us"),
        "bounds.mcera.s": (total("bounds.mcera"), "s"),
        "bounds.wimpy_variance.s": (total("bounds.wimpy_variance"), "s"),
        "bounds.eps_bound.calls": (calls("bounds.eps_bound"), "count"),
        "bounds.empirical_peeling.s": (total("bounds.empirical_peeling"), "s"),
        "bounds.sufficient_sample_size.s": (total("bounds.sufficient_sample_size"), "s"),
        "bounds.mcera_state_mb": (counts.get("bounds.mcera_state_mb", 0.0), "MB"),
        "rng.derive_rng.calls": (calls("rng.derive_rng"), "count"),
        "rng.derive_rng.s": (total("rng.derive_rng"), "s"),
        "rng.rademacher_signs.s": (total("rng.rademacher_signs"), "s"),
        "progressive.estimate.s": (total(ESTIMATE), "s"),
        "progressive.estimate.self_s": (agg.get(ESTIMATE, {}).get("self", 0.0), "s"),
        "progressive.estimate.bootstrap_s": (est.get("bootstrap_s", 0.0), "s"),
        "progressive.estimate.iterations": (est.get("iterations", 0), "count"),
        "progressive.estimate.ceiling": (est.get("ceiling", 0), "count"),
        "progressive.estimate.eps_met": (int(est.get("stop_reason") == "eps-met"), "count"),
        "progressive.estimate.xi_over_eps": (ratio(est.get("xi_max", 0.0),
                                                   est.get("epsilon", 0.0)), "ratio"),
        "exact.exact_all.s": (total(EXACT), "s"),
        "exact.sources_per_s": (ratio(counts.get("exact.n", 0), total(EXACT)), "1/s"),
        "exact.jobs": (counts.get("exact.jobs", 0), "count"),
        "exact.job_bytes": (counts.get("exact.job_bytes", 0), "bytes"),
        "cli.self_s": (sum(a["self"] for name, a in agg.items() if name.startswith("cli.")), "s"),
        "cli.output_bytes": (cmd.output_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def _median_metrics(per_command: list[dict]) -> dict:
    return {name: (statistics.median(m[name][0] for m in per_command), unit)
            for name, (_, unit) in per_command[0].items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[bool, dict, dict]:
    """One benchmark run; returns (correct, metrics, details)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        u, v = workload.edges(seed)
        graph = workdir / "graph.txt"
        facts = {**graph_facts(u, v), "edge_file_bytes": gen.write_edges(str(graph), u, v)}
        del u, v
        cmds: list[Command] = []

        def one(mode: str) -> Command:
            outdir = workdir / f"{len(cmds):03d}-{mode}"
            cmd = spawn(workload, graph, mode, outdir, deadline)
            if not cmd.problems:
                check(cmd, workload, facts, outdir)
            cmds.append(cmd)
            return cmd

        def fits(start: float, last: Command, budget: float) -> bool:
            now = time.monotonic()
            return now - start + last.wall_s <= budget and now + 2 * last.wall_s < deadline

        start = time.monotonic()
        last = one("plain")
        while not trace and not last.problems and (
                fits(start, last, seconds)
                or (len(cmds) < workload.min_commands and fits(start, last, RUN_LIMIT_S))):
            last = one("plain")
        while trace and not last.problems:
            last = one("traced")
            if not fits(start, last, seconds):
                break
        plain = [c for c in cmds if c.mode == "plain" and not c.problems]
        setups = [c.setup_s for c in plain]
        # more set-up samples, stopped at the command's model build, while
        # they fit in the run or are cheap next to it
        while plain and not trace and len(setups) < MIN_SETUP_SAMPLES:
            guess, now = statistics.median(setups), time.monotonic()
            if ((now - start + guess > seconds and guess > 0.1 * seconds)
                    or now + 2 * guess > deadline):
                break
            last = one("setup")
            if last.problems:
                break
            setups.append(last.setup_s)

        failed = [c for c in cmds if c.problems]
        digests = sorted({c.digest for c in cmds if c.mode != "setup" and not c.problems})
        correct = bool(plain) and not failed and len(digests) == 1
        details = {"workload": workload.name, "seed": seed, "machine": machine_facts(),
                   "input": facts, "digest": digests[0] if len(digests) == 1 else digests,
                   "commands": [{"mode": c.mode, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                                 "rss_mb": c.rss_mb, "problems": c.problems} for c in cmds],
                   "setup_samples": setups, "attempted": len(cmds), "failed": len(failed),
                   "unbounded": {"failed_frac": (len(failed) / len(cmds), "ratio")}}
        if len(digests) > 1:
            details["problems"] = "same inputs gave different outputs"
        metrics = {}
        if correct:
            metrics = end_to_end(plain, setups)
            details["unbounded"].update(unbounded(workload, plain))
            if trace:
                traced = [c for c in cmds if c.mode == "traced"]
                overhead = (statistics.median(c.wall_s for c in traced)
                            - statistics.median(c.wall_s for c in plain))
                metrics = _median_metrics([layer_metrics(c, overhead) for c in traced])
        return correct, metrics, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result_line(correct: bool, details: dict, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": details["attempted"],
                       "failed": details["failed"],
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # let a terminated run stop its command's process group on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "percolator" / "cli.py").is_file():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        correct, metrics, details = run(WORKLOADS[args.workload], args.seed,
                                        args.seconds, bool(args.trace))
        print(json.dumps(details))
        print(_result_line(correct, details, metrics))
        return 0

    rows, ok = {}, True
    for name, workload in WORKLOADS.items():
        correct, metrics, details = run(workload, args.seed, args.seconds, False)
        ok &= correct
        rows[name] = ({**metrics, **details["unbounded"]}, details)
        print(json.dumps(details), file=sys.stderr)
    names = list(dict.fromkeys(k for metrics, _ in rows.values() for k in metrics))
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{w:>16}" for w in rows))
    for key in names:
        unit = next(m[key][1] for m, _ in rows.values() if key in m)
        cells = "".join(f"{m[key][0]:>16.6g}" if key in m else f"{'-':>16}" for m, _ in rows.values())
        print(f"{key:<16}{unit:<7}{cells}")
    print(f"{'digest':<23}" + "".join(f"{str(d['digest'])[:12]:>16}" for _, d in rows.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
