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
when the process that forked it ends, and none starts after that. A
pool that cannot start its threads or its workers, say for want of
address space, raises ``PoolNotStarted`` when it opens, with its workers
killed, rather than leave its first job waiting for good.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial

from .graph import BfsWorkspace, Graph
from .percolation import PercolationModel

_inputs: tuple = ()     # (graph, model, workspace) while a pool is open
_prctl = None
if sys.platform.startswith("linux"):    # looked up before any fork, not in each fresh worker
    _prctl = ctypes.CDLL(None).prctl
    _prctl.argtypes, _prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
_START_S = 10.0         # how long a pool's workers may take to run their first jobs


class PoolNotStarted(BrokenProcessPool):
    """A pool's manager thread, call-queue feeder thread or workers did not start."""


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
        pool = ProcessPoolExecutor(max_workers=processes,
                                   mp_context=multiprocessing.get_context("fork"),
                                   initializer=_die_with_parent, initargs=(os.getpid(),))
        _start(pool, processes)
        with pool:
            pool.processes = processes
            yield pool
    finally:
        _inputs = ()


def _start(pool: ProcessPoolExecutor, processes: int) -> None:
    """Have ``pool`` run ``processes`` no-op jobs within ``_START_S``.
    The first one forks the workers and starts the executor's manager
    thread, and its hand-off to the workers starts the call queue's
    feeder thread. A thread that cannot start either raises here or ends
    the manager thread, whose traceback the wait keeps off stderr (no
    other thread runs then), so no job would ever finish: this raises
    ``PoolNotStarted`` instead, with the workers killed, so neither the
    pool's shutdown nor the interpreter's exit waits on them."""
    others = set(multiprocessing.active_children())     # the workers fork after this
    died = threading.Event()
    hook, threading.excepthook = threading.excepthook, lambda _: died.set()
    try:
        jobs = [pool.submit(os.getpid) for _ in range(processes)]
        deadline = time.monotonic() + _START_S
        while wait(jobs, timeout=0.01).not_done:
            if died.is_set() or time.monotonic() > deadline:
                raise TimeoutError(f"the no-op jobs did not run within {_START_S} s")
        for job in jobs:
            job.result()        # a worker that died starting raises BrokenProcessPool
    except BaseException as exc:
        for worker in set(multiprocessing.active_children()) - others:
            worker.kill()
            worker.join()
        pool.shutdown(wait=False, cancel_futures=True)
        # a thread or fork that failed, a dead worker (BrokenProcessPool) or the timeout
        if isinstance(exc, (RuntimeError, OSError)):
            raise PoolNotStarted("the worker pool could not start") from exc
        raise
    finally:
        threading.excepthook = hook


def _die_with_parent(parent: int) -> None:
    """Pool initializer: have Linux SIGKILL this worker when its parent
    dies (``prctl(PR_SET_PDEATHSIG)``; nothing elsewhere), and take that
    signal at once if ``parent`` already has, since then none will come."""
    if _prctl is not None:
        _prctl(1, signal.SIGKILL)       # 1 = PR_SET_PDEATHSIG
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
