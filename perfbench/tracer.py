"""In-memory span tracer that rebinds the program's functions.

A traced function is replaced by a wrapper at every name a caller looks
it up by: each module of the package that holds the function object
(``from .sampling import balanced_bidirectional_bfs`` makes a second
binding in ``progressive``), or the class attribute for a method. Each
call records a span ``[name, start, end, parent]`` in a list; nothing is
written until the caller asks for the spans. ``restore`` puts every
original object back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time


class Tracer:
    """Spans, counts and per-call results gathered by wrappers."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple] = []   # (owner, attr, original)
        self.active = True
        # fork-started pool workers inherit the wrappers; their spans would
        # never be written out, so they call straight through
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self):
        self.active = False

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a finished one)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording one span per call, then ``hook(tracer, args, kwargs, result)``."""
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str, functions: dict, methods: dict, hooks: dict) -> None:
        """Rebind ``functions`` (name -> function) at every module binding and
        ``methods`` (name -> (class, attribute)) on their classes."""
        for name, (cls, attr) in methods.items():
            self._bind(cls, attr, self.wrap(name, vars(cls)[attr], hooks.get(name)))
        wrappers = {id(fn): self.wrap(name, fn, hooks.get(name))
                    for name, fn in functions.items()}
        for module in package_modules(package):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bind(module, attr, wrapper)

    def restore(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)


def package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def public_functions(package: str) -> dict:
    """``module.function`` -> function for every public module-level function
    of the package's loaded modules, keyed by the module that defines it."""
    out = {}
    for module in package_modules(package):
        short = module.__name__.rpartition(".")[2]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                out[f"{short}.{attr}"] = value
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded in the traced process, so
    children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[i]
    return out
