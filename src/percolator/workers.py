"""One worker pool per command, shared by the exact pass and the samplers.

The pool forks its workers from the command's process, so each inherits
the graph and the percolation model without a copy being sent, and
builds its own BFS workspace once. A job then carries only a
module-level function, its small scalar arguments and an index range.
Every function handed to the pool is private: a tracer that rebinds
public names at their module bindings must not change what a job
unpickles to.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial

from .graph import Graph
from .percolation import PercolationModel
from .sampling import BfsWorkspace

_inputs: tuple = ()     # (graph, model, workspace), set once per pool worker


def _install_inputs(graph: Graph, model: PercolationModel) -> None:
    global _inputs
    _inputs = (graph, model, BfsWorkspace(graph.n))


@contextmanager
def open_pool(graph: Graph, model: PercolationModel, processes: int):
    """A fork pool of ``processes`` workers that hold ``graph`` and ``model``,
    or None for one process. Leaving the block joins the workers."""
    if processes <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=processes, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install_inputs, initargs=(graph, model)) as pool:
        yield pool


def bind(fn, graph: Graph, model: PercolationModel, pool, **params):
    """``fn`` on the inputs: ``*args -> fn(graph, model, *args, ws=workspace,
    **params)``, such as a sampler of ``rng`` for ``rng.draw_samples``.
    Without a pool it runs on a fresh workspace here; with one, on the
    graph, model and workspace of the worker that runs it, so a job
    pickles ``fn`` (private, module-level) and ``params`` only."""
    if pool is None:
        return partial(fn, graph, model, ws=BfsWorkspace(graph.n), **params)
    return partial(_on_worker_inputs, fn, **params)


def _on_worker_inputs(fn, *args, **params):
    graph, model, ws = _inputs
    return fn(graph, model, *args, ws=ws, **params)
