"""Command-line front end.

Subcommands: ``exact`` (ground truth), ``approx`` (one estimator run),
``compare`` (estimator benchmark over an epsilon grid). Exit codes:
0 success, 2 usage, 3 input (bad format or values, or shortest-path
counts past float64), 4 budget refusal, 5 out of memory, a worker
process died or the worker pool could not start (one line names the
phase: load, model, exact pass, estimation or write).
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import logging
import math
import os
import sys
import time
import zlib
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress

import numpy as np

from .baselines import run_pab_naive, run_prk_fixed
from .exact import exact_all, exact_vertex_diameter
from .graph import EdgeListParseError, Graph, load_edge_list
from .percolation import PercolationModel, load_states, random_states
from .progressive import ScheduleConfig, estimate
from .rng import combine
from .sampling import DEFAULT_BAG_CAP
from .workers import PoolNotStarted, open_pool

log = logging.getLogger("percolator")

ALGORITHMS = ("mcera", "p-rk-fixed", "p-ab-progressive-naive")
EXIT_OK = 0
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_MEMORY = 5


def _enter(args, phase: str, graph: Graph | None = None) -> None:
    """Note on ``args`` that the command enters ``phase``, and the size of
    ``graph`` once it is loaded, for an out-of-memory message."""
    args.phase = phase
    if graph is not None:
        args.size = f" (n = {graph.n}, m = {graph.m})"


def _load_graph(args) -> Graph:
    with (gzip.open if args.graph.endswith(".gz") else open)(args.graph, "rb") as fh:
        try:
            return load_edge_list(fh, directed=args.directed)
        except (EOFError, zlib.error) as exc:     # a truncated or damaged .gz stream
            raise ValueError(f"{args.graph}: corrupt gzip data ({exc})") from None


class _OverBudget(Exception):
    """An exact pass the command needs would exceed ``--budget``."""


def _inputs(args, refuse: str | None = None) -> tuple[Graph, PercolationModel]:
    """The graph and its percolation model. When ``refuse`` is given, an
    O(n*m) exact pass is part of the command, and a graph with n*m over
    ``--budget`` is refused before the states are read, advising to rerun
    with ``refuse``."""
    graph = _load_graph(args)
    if refuse is not None and graph.n * graph.m > args.budget:
        raise _OverBudget(f"n*m = {graph.n * graph.m} exceeds budget {args.budget}; "
                          f"rerun with {refuse}")
    _enter(args, "model", graph)
    if args.states.startswith("random:"):
        states = random_states(graph.n, int(args.states.split(":", 1)[1]))
    else:
        with open(args.states) as fh:
            states = load_states(fh, graph)
    return graph, PercolationModel(states)


def _threads(args) -> int:
    """``--threads``, by default the CPUs this process may run on."""
    if args.threads is not None:
        return max(1, args.threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WRITE_BLOCK = 1 << 13      # vertices formatted per write
# per format: a row's prefix, the id-value separator, the row's end and the
# spelling of +0.0; a json row opens with the comma after the row before it
_ROW_PARTS = {"json": (b',\n  "', b'": ', b"", b"0.0"),
              "tsv": (b"", b"\t", b"\n", b"0"),
              "csv": (b"", b",", b"\r\n", b"0")}


def _spellings(values: np.ndarray, fmt: str) -> list[str]:
    """``values`` spelled as json spells them (repr, NaN, Infinity) or as
    ``%.17g``; no spelling holds a comma."""
    text = (json.dumps(values.tolist())[1:-1] if fmt == "json"
            else ", ".join(["%.17g"] * len(values)) % tuple(values.tolist()))
    return text.split(", ") if text else []


def _estimate_blocks(graph: Graph, values: np.ndarray, fmt: str):
    """The estimate rows in blocks of ``_WRITE_BLOCK`` vertices: 'id<TAB>value'
    lines (tsv), 'id,value' lines (csv, as csv.writer writes them: no field
    needs quoting), or the members of json.dumps(indent=1)'s estimates object.
    A block is one byte table, a row per vertex, in fixed-width columns: the
    prefix, the sign, 19 digit places, the separator, the value (as wide as
    the block's longest spelling) and the row end. A byte no column uses is
    0, and no id digit or spelling holds a 0 byte, so the block's text is
    its nonzero bytes. The ids' digits come from repeated integer division;
    +0.0 is copied as bytes, and only the other values are spelled in
    Python."""
    prefix, sep, end, zero = _ROW_PARTS[fmt]
    for start in range(0, graph.n, _WRITE_BLOCK):
        ids = graph.orig_ids[start:start + _WRITE_BLOCK]
        block = values[start:start + _WRITE_BLOCK]
        spelled = (block != 0.0) | np.signbit(block)     # all but +0.0 (NaN included)
        # sized from the spellings: a fixed width would truncate a longer one silently
        words = np.array(_spellings(block[spelled], fmt), dtype=bytes)
        ones = len(prefix) + 19                 # the id's last digit place
        at = ones + 1 + len(sep)                # the value column
        width = max(words.itemsize, len(zero))
        rows = np.zeros((len(ids), at + width + len(end)), dtype=np.uint8)
        rows[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        rows[ids < 0, len(prefix)] = ord("-")
        mag = np.abs(ids).view(np.uint64)       # |INT64_MIN| wraps to 2^63 as unsigned
        live = True                             # every id has its ones digit
        for place in range(ones, ones - 19, -1):
            tens = mag // 10                    # a remainder by 10 takes 4x as long
            rows[:, place] = (mag - 10 * tens + ord("0")) * live
            mag = tens
            live = mag > 0
            if not live.any():
                break
        rows[:, ones + 1:at] = np.frombuffer(sep, dtype=np.uint8)
        rows[spelled, at:at + words.itemsize] = words[:, None].view(np.uint8)
        rows[~spelled, at:at + len(zero)] = np.frombuffer(zero, dtype=np.uint8)
        rows[:, at + width:] = np.frombuffer(end, dtype=np.uint8)
        text = rows[rows != 0]
        yield str(text[1:] if fmt == "json" and not start else text, "ascii")


def _json_with_estimates(fh, head: dict, graph: Graph, values: np.ndarray) -> None:
    """Write ``json.dumps({**head, "estimates": {id: value}}, indent=1) + "\n"``
    to ``fh``, a block of vertices at a time."""
    text = json.dumps({**head, "estimates": {}}, indent=1)
    fh.write(text[:-len("}\n}")])       # up to the estimates' opening brace
    fh.writelines(_estimate_blocks(graph, values, "json"))
    fh.write("\n }\n}\n")


@contextmanager
def _replacing(*paths: str):
    """Text files, one per path, that replace ``paths`` together when the
    block ends: each is written as ``path + ".partial"``, and only once all
    are complete are they renamed over their paths, in order. If the block
    or a rename raises, every partial not yet renamed is removed, so a
    failed write leaves each path as it was (a failed rename, those renamed
    before it replaced)."""
    files = []
    try:
        for path in paths:
            files.append(open(path + ".partial", "w", newline=""))
        yield files
        for fh in files:
            fh.close()
        for path in paths:
            os.replace(path + ".partial", path)
    except BaseException:
        for fh in files:
            with suppress(OSError):                 # its last flush failed too
                fh.close()
            with suppress(FileNotFoundError):       # renamed already
                os.remove(fh.name)
        raise


def _write_estimates(fh, graph: Graph, values: np.ndarray, fmt: str) -> None:
    if fmt == "json":
        _json_with_estimates(fh, {}, graph, values)
        return
    if fmt == "csv":
        fh.write("original_id,value\r\n")
    fh.writelines(_estimate_blocks(graph, values, fmt))


def cmd_exact(args) -> int:
    graph, model = _inputs(args)
    _enter(args, "exact pass")
    t0 = time.perf_counter()
    with open_pool(graph, model, _threads(args)) as pool:
        result = exact_all(graph, model, pool=pool)
    elapsed = time.perf_counter() - t0
    _enter(args, "write")
    sidecar = {
        "n": graph.n,
        "m": graph.m,
        "rho": result.rho,
        "diameter": result.diameter,
        "vertex_diameter": result.vertex_diameter,
        "sum_p": float(result.p.sum()),
        "sum_b": float(result.b.sum()),
        "elapsed": elapsed,
        "all_states_equal": result.all_states_equal,
    }
    with _replacing(args.output, args.output + ".json") as (fh, side):
        _write_estimates(fh, graph, result.p, args.format)
        json.dump(sidecar, side, indent=1)
        side.write("\n")
    return EXIT_OK


def _config(args, epsilon: float) -> ScheduleConfig:
    # built before the graph is read, for every algorithm: the baselines get its checks too
    return ScheduleConfig(epsilon=epsilon, delta=args.delta, mc_trials=args.mc_trials,
                          beta=args.beta, bag_cap=args.alpha_cap)


def _run_algorithm(name: str, graph: Graph, model: PercolationModel,
                   config: ScheduleConfig, seed: int,
                   vertex_diameter: int | None = None, pool=None) -> tuple[dict, np.ndarray]:
    """One run of ``name``, its samples drawn in ``pool`` when given: its
    report without the estimates, and the estimates."""
    if name == "mcera":
        report = estimate(graph, model, config, seed, pool=pool)
        return {**report.head(), "algorithm": "mcera"}, report.estimates
    if name == "p-rk-fixed":
        out = run_prk_fixed(graph, model, config, seed, vertex_diameter, pool=pool)
    else:
        out = run_pab_naive(graph, model, config, seed, pool=pool)
    return out, out.pop("estimates")


def cmd_approx(args) -> int:
    config = _config(args, args.epsilon)
    # p-rk-fixed needs the vertex diameter, which only an exact pass gives here
    graph, model = _inputs(args, "--budget" if args.algorithm == "p-rk-fixed" else None)
    _enter(args, "estimation")
    with open_pool(graph, model, _threads(args)) as pool:
        head, estimates = _run_algorithm(args.algorithm, graph, model, config, args.seed,
                                         pool=pool)
    _enter(args, "write")
    tsv = [args.output + ".tsv"] if args.format == "tsv" else []
    with _replacing(args.output, *tsv) as (report, *tsv_file):
        _json_with_estimates(report, {**head, "n": graph.n, "m": graph.m}, graph, estimates)
        for fh in tsv_file:
            _write_estimates(fh, graph, estimates, "tsv")
    return EXIT_OK


RAW_COLUMNS = ["algorithm", "epsilon", "rep", "samples", "seconds", "sd", "mad"]
AGG_COLUMNS = ["algorithm", "epsilon", "samples_mean", "samples_std",
               "seconds_mean", "seconds_std", "sd_mean", "sd_std",
               "mad_mean", "mad_std"]


def cmd_compare(args) -> int:
    if args.repetitions < 1:
        print("repetitions must be at least 1", file=sys.stderr)
        return 2
    algorithms = (list(ALGORITHMS) if args.algorithms is None
                  else args.algorithms.split(","))
    for name in algorithms:
        if name not in ALGORITHMS:
            print(f"unknown algorithm {name!r}", file=sys.stderr)
            return 2
    # a repeat would run twice and write duplicate rows under one key
    for flag, values in (("--algorithms", algorithms), ("--epsilon-grid", args.epsilon_grid)):
        if len(set(values)) < len(values):
            print(f"{flag} repeats a value", file=sys.stderr)
            return 2
    configs = [_config(args, eps) for eps in args.epsilon_grid]
    # p-rk-fixed's vertex diameter needs an O(n*m) pass even without the exact one
    exact_pass = not args.no_exact or "p-rk-fixed" in algorithms
    graph, model = _inputs(args, "--budget, or --no-exact without p-rk-fixed"
                           if exact_pass else None)
    rows = []
    _enter(args, "exact pass" if exact_pass else "estimation")
    # one pool for the exact pass and every sampler; closed before the writes
    with open_pool(graph, model, _threads(args)) as pool:
        exact_p = vertex_diameter = None
        if not args.no_exact:       # the scores are checked against p alone
            result = exact_all(graph, model, pool=pool, betweenness=False)
            exact_p = result.p
            vertex_diameter = result.vertex_diameter
        elif "p-rk-fixed" in algorithms:        # its only reader
            vertex_diameter = exact_vertex_diameter(graph, pool=pool)

        _enter(args, "estimation")
        for eps_idx, config in enumerate(configs):
            for rep in range(args.repetitions):
                for algo_idx, name in enumerate(algorithms):
                    sub_seed = combine(args.seed, eps_idx, rep, algo_idx)
                    log.info("run algorithm=%s eps=%g rep=%d sub_seed=%d",
                             name, config.epsilon, rep, sub_seed)
                    t0 = time.perf_counter()
                    head, estimates = _run_algorithm(name, graph, model, config, sub_seed,
                                                     vertex_diameter=vertex_diameter, pool=pool)
                    seconds = time.perf_counter() - t0
                    if exact_p is not None:
                        dev = np.abs(estimates - exact_p)
                        sd, mad = float(dev.max()), float(dev.mean())
                    else:
                        sd = mad = math.nan
                    rows.append([name, config.epsilon, rep, head["r_final"], seconds, sd, mad])

    _enter(args, "write")
    aggregates = []
    for eps in args.epsilon_grid:
        for name in algorithms:
            cols = np.array([r[3:] for r in rows if r[0] == name and r[1] == eps],
                            dtype=np.float64)
            aggregates.append([name, eps, *(float(stat(cols[:, k]))
                                            for k in range(4) for stat in (np.mean, np.std))])
    base, ext = os.path.splitext(args.output)
    with _replacing(args.output, base + ".agg" + (ext or ".csv")) as files:
        for fh, header, table in zip(files, (RAW_COLUMNS, AGG_COLUMNS), (rows, aggregates)):
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percolator",
        description="Exact and approximate percolation centrality")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="edge-list path (.gz ok)")
        p.add_argument("--directed", action="store_true")
        p.add_argument("--states", required=True,
                       help="states file path or random:SEED")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes; defaults to the CPUs this process may use")
        p.add_argument("--output", required=True)

    def estimator_options(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delta", type=float, default=0.1)
        p.add_argument("--mc-trials", type=int, default=25)
        p.add_argument("--beta", type=float, default=0.1)
        p.add_argument("--alpha-cap", type=int, default=DEFAULT_BAG_CAP,
                       help="max paths drawn per sampled pair")
        p.add_argument("--budget", type=int, default=100_000_000,
                       help="refuse an O(n*m) exact pass (compare's ground truth, "
                            "p-rk-fixed's vertex diameter) when n*m exceeds this")

    p_exact = sub.add_parser("exact", help="exact centralities and graph stats")
    common(p_exact)
    p_exact.add_argument("--format", choices=["tsv", "json", "csv"], default="tsv")
    p_exact.set_defaults(func=cmd_exact)

    p_approx = sub.add_parser("approx", help="one approximation run")
    common(p_approx)
    p_approx.add_argument("--epsilon", type=float, default=0.05)
    estimator_options(p_approx)
    p_approx.add_argument("--algorithm", choices=ALGORITHMS, default="mcera")
    p_approx.add_argument("--format", choices=["tsv", "json"], default="json")
    p_approx.set_defaults(func=cmd_approx)

    p_cmp = sub.add_parser("compare", help="benchmark estimators on one graph")
    common(p_cmp)
    p_cmp.add_argument("--epsilon-grid", type=float, nargs="+",
                       default=[0.1, 0.05], metavar="EPS")
    p_cmp.add_argument("--repetitions", type=int, default=10)
    estimator_options(p_cmp)
    p_cmp.add_argument("--algorithms", default=None,
                       help="comma-separated subset of: " + ",".join(ALGORITHMS))
    p_cmp.add_argument("--no-exact", action="store_true",
                       help="skip the exact pass (no sd/mad columns); p-rk-fixed "
                            "still needs the exact vertex diameter, under --budget")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    args.phase, args.size = "load", ""
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _OverBudget as exc:
        print(f"refusing exact pass: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:      # numpy's allocation failures included
        print(f"error: out of memory during the {args.phase}{args.size}", file=sys.stderr)
        return EXIT_MEMORY
    except BrokenProcessPool as exc:    # a worker killed (by the kernel's OOM killer, say)
        what = ("the worker pool could not start" if isinstance(exc, PoolNotStarted)
                else "a worker process died")
        print(f"error: {what} during the {args.phase}{args.size}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
