"""One worker pool per command, shared by the exact pass and the samplers.

The command's process installs the graph, the percolation model and a
BFS workspace once, and the pool forks its workers from it, so each
inherits them without a copy being sent. A job then carries only a
module-level function, its small scalar arguments and an index range,
and runs in a worker or in the command's process alike. Every search
of a job, an exact source sweep's or a sampler's, runs on the inherited
workspace. Every function handed to the pool is private: a tracer that
rebinds public names at their module bindings must not change what a
job unpickles to.

A worker does not outlive the command: on Linux each asks to be killed
when the process that forked it ends, and none starts after that.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial

from .graph import BfsWorkspace, Graph
from .percolation import PercolationModel

_inputs: tuple = ()     # (graph, model, workspace) while a pool is open


@contextmanager
def open_pool(graph: Graph, model: PercolationModel, processes: int):
    """A fork pool of ``processes`` workers that hold ``graph`` and ``model``,
    its size in ``pool.processes``, or None for one process. Leaving the
    block joins the workers; a killed command takes them with it. The fork
    context forks every worker at the pool's first job, from the thread
    that submits it: the parent-death signal follows that thread, so it
    must live as long as the pool, as the command's main thread does."""
    if processes <= 1:
        yield None
        return
    global _inputs
    _inputs = (graph, model, BfsWorkspace(graph.n))
    try:
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_die_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            pool.processes = processes
            yield pool
    finally:
        _inputs = ()


def _die_with_parent(parent: int) -> None:
    """Pool initializer: have Linux SIGKILL this worker when its parent
    dies (``prctl(PR_SET_PDEATHSIG)``; nothing elsewhere), and take that
    signal at once if ``parent`` already has, since then none will come."""
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)      # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


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
