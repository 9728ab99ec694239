"""Child process of the benchmark: one real CLI command, with clocks.

Usage: probe.py RECORD MODE SRC -- CLI-ARGS...

Runs ``percolator.cli.main(CLI-ARGS)`` from the sources in SRC and writes
RECORD (JSON) when it ends. MODE chooses the instrumentation:

- ``plain``: spans only around the loader, the model build and the four
  solver entry points, which the CLI crosses once per command;
- ``setup``: as ``plain``, but the command stops once the model exists;
- ``traced``: spans around every public function of every module and
  the methods ``Graph.expand_frontier``, ``McEraState.add_sample`` and
  ``McEraState.signs_for_block``, plus the per-layer counts of
  ``COUNT_HOOKS``.
"""

from __future__ import annotations

import json
import math
import pickle
import resource
import sys
import traceback

import numpy as np

from tracer import Tracer, public_functions

LOADER = "graph.load_edge_list"
MODEL = "percolation.PercolationModel.__init__"
ESTIMATE = "progressive.estimate"
EXACT = "exact.exact_all"
PRK = "baselines.run_prk_fixed"
PAB = "baselines.run_pab_naive"
SOLVERS = (ESTIMATE, EXACT, PRK, PAB)


class SetupDone(Exception):
    """Raised after the model is built in ``setup`` mode; ends the command."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _values(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"size": int(arr.size), "finite": bool(np.isfinite(arr).all()),
            "min": float(arr.min()), "max": float(arr.max())}


def _result(tracer, name, entry):
    tracer.results.setdefault(name, []).append(entry)


def _on_load(tracer, args, kwargs, graph):
    _result(tracer, LOADER, {"n": graph.n, "m": graph.m})


def _on_estimate(tracer, args, kwargs, report):
    config = _arg(args, kwargs, 2, "config")
    _result(tracer, ESTIMATE, {
        "r_final": report.r_final, "ceiling": report.ceiling,
        "stop_reason": report.stop_reason, "iterations": report.iterations,
        "xi_max": float(np.max(report.xi_per_class)), "epsilon": config.epsilon,
        "bootstrap_s": report.elapsed_bootstrap, **_values(report.estimates)})


def _on_exact(tracer, args, kwargs, result):
    _result(tracer, EXACT, _values(result.p))


def _on_baseline(name):
    def hook(tracer, args, kwargs, out):
        _result(tracer, name, {"r_final": out["r_final"],
                               "stop_reason": out["stop_reason"],
                               **_values(out["estimates"])})
    return hook


def _on_model_setup(tracer, args, kwargs, result):
    raise SetupDone


RESULT_HOOKS = {LOADER: _on_load, ESTIMATE: _on_estimate, EXACT: _on_exact,
                PRK: _on_baseline(PRK), PAB: _on_baseline(PAB)}


def _on_expand(tracer, args, kwargs, result):
    arcs = result[1].size
    tracer.add("graph.Graph.expand_frontier.arcs", arcs)
    tracer.add("arcs_under:" + str(tracer.parent_name()), arcs)


def _on_bfs(tracer, args, kwargs, meet):
    tracer.add("sampling.bfs.connected", meet.connected)


def _on_paths(tracer, args, kwargs, bag):
    offsets = _arg(args, kwargs, 0, "meet").graph.fwd_offsets
    internal = np.array([v for path in bag.paths for v in path[1:-1]], dtype=np.int64)
    tracer.add("sampling.paths.drawn", len(bag.paths))
    tracer.add("sampling.paths.capped", bag.capped)
    tracer.add("sampling.paths.deg_sum", int((offsets[internal + 1] - offsets[internal]).sum()))


def _on_bag(tracer, args, kwargs, contrib):
    tracer.add("sampling.bag_estimate.nnz", len(contrib))


def _on_add_sample(tracer, args, kwargs, result):
    state = args[0]
    contrib = _arg(args, kwargs, 1, "contrib")
    tracer.add("sampling.useful", bool(contrib))
    size = (state.signed_sums.nbytes + state.sq_sums.nbytes) / 1e6
    tracer.counts["bounds.mcera_state_mb"] = max(
        tracer.counts.get("bounds.mcera_state_mb", 0.0), size)


def _on_exact_counts(tracer, args, kwargs, result):
    from percolator import exact
    graph = _arg(args, kwargs, 0, "graph")
    model = _arg(args, kwargs, 1, "model")
    # the first job as _run_all_sources builds it; every job pickles the graph
    job = (graph, model.x, list(range(min(exact._BLOCK, graph.n))), True, True)
    tracer.counts["exact.jobs"] = math.ceil(graph.n / exact._BLOCK)
    tracer.counts["exact.job_bytes"] = len(pickle.dumps(job))
    tracer.counts["exact.n"] = graph.n


def _chain(*hooks):
    def hook(*args):
        for h in hooks:
            h(*args)
    return hook


COUNT_HOOKS = {"graph.Graph.expand_frontier": _on_expand,
               "sampling.balanced_bidirectional_bfs": _on_bfs,
               "sampling.sample_paths": _on_paths,
               "sampling.bag_estimate": _on_bag,
               "bounds.McEraState.add_sample": _on_add_sample,
               EXACT: _on_exact_counts}


def peak_rss_kb() -> int:
    """Largest resident set of this process and its reaped children (the
    exact pool), in KiB. ``VmHWM`` counts this process since its exec;
    its ``RUSAGE_SELF`` peak would also hold the spawning process's."""
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def install(tracer: Tracer, mode: str) -> None:
    from percolator import cli  # noqa: F401  (loads every module of the package)
    from percolator.bounds import McEraState
    from percolator.graph import Graph
    from percolator.percolation import PercolationModel

    functions = public_functions("percolator")
    methods = {MODEL: (PercolationModel, "__init__")}
    hooks = dict(RESULT_HOOKS)
    if mode == "traced":
        methods.update({
            "graph.Graph.expand_frontier": (Graph, "expand_frontier"),
            "bounds.McEraState.add_sample": (McEraState, "add_sample"),
            "bounds.McEraState.signs_for_block": (McEraState, "signs_for_block"),
        })
        for name, hook in COUNT_HOOKS.items():
            hooks[name] = _chain(hooks[name], hook) if name in hooks else hook
    else:
        functions = {name: functions[name] for name in (LOADER, *SOLVERS)}
        if mode == "setup":
            hooks[MODEL] = _on_model_setup
    tracer.install("percolator", functions, methods, hooks)


def main(argv) -> int:
    if len(argv) < 4 or argv[1] not in ("plain", "setup", "traced") or argv[3] != "--":
        print("usage: probe.py RECORD plain|setup|traced SRC -- CLI-ARGS...", file=sys.stderr)
        return 2
    record_path, mode, src = argv[:3]
    sys.path.insert(0, src)
    tracer = Tracer()
    install(tracer, mode)
    from percolator import cli
    try:
        code = cli.main(argv[4:])
    except SetupDone:
        code = 0
    except Exception:
        traceback.print_exc()
        code = 1
    tracer.restore()
    with open(record_path, "w") as fh:
        json.dump({"mode": mode, "exit_code": code, "peak_rss_kb": peak_rss_kb(),
                   "spans": tracer.spans, "counts": tracer.counts,
                   "results": tracer.results}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
