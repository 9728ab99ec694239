"""One worker pool per command, shared by the exact pass and the samplers.

The command's process installs the graph, the percolation model and a
BFS workspace once, and the pool forks its workers from it, so each
inherits them without a copy being sent. A job then carries only a
module-level function, its small scalar arguments and an index range,
and runs in a worker or in the command's process alike. Every function
handed to the pool is private: a tracer that rebinds public names at
their module bindings must not change what a job unpickles to.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial

from .graph import Graph
from .percolation import PercolationModel
from .sampling import BfsWorkspace

_inputs: tuple = ()     # (graph, model, workspace) while a pool is open


@contextmanager
def open_pool(graph: Graph, model: PercolationModel, processes: int):
    """A fork pool of ``processes`` workers that hold ``graph`` and ``model``,
    its size in ``pool.processes``, or None for one process. Leaving the
    block joins the workers."""
    if processes <= 1:
        yield None
        return
    global _inputs
    _inputs = (graph, model, BfsWorkspace(graph.n))
    try:
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            pool.processes = processes
            yield pool
    finally:
        _inputs = ()


def bind(fn, graph: Graph, model: PercolationModel, pool, **params):
    """``fn`` on the inputs: ``*args -> fn(graph, model, *args, ws=workspace,
    **params)``, such as a sampler of ``rng`` for ``rng.SampleStream``.
    Without a pool it runs on a fresh workspace; with one, on the inputs
    ``open_pool`` installed in the process that runs it, so a job pickles
    ``fn`` (private, module-level) and ``params`` only; those must be
    ``graph`` and, unless ``model`` is None, ``model``."""
    if pool is None:
        return partial(fn, graph, model, ws=BfsWorkspace(graph.n), **params)
    if _inputs[0] is not graph or model is not None and _inputs[1] is not model:
        raise ValueError("the pool was opened for another graph or model")
    return partial(_on_pool_inputs, fn, **params)


def _on_pool_inputs(fn, *args, **params):
    graph, model, ws = _inputs
    return fn(graph, model, *args, ws=ws, **params)
