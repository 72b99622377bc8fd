"""Span tracing for the benchmark's traced run, done entirely from outside
the library.

`Tracer` replaces every public function of the library's layers with a
wrapper that records one span per call: its name, start, end and parent
span.  Because the library calls across modules through module attributes
(`numerics.partial4`, `spinors.observables`, ...) and within a module through
its globals, patching the attribute wherever the function is bound catches
every call, including names bound by `from x import y` (such as
`cli.observables`).  The column- and matrix-spinor closures handed out by
`catalog.spinor` and `catalog.matrix_spinor` are wrapped as well, so each
spinor evaluation is a span of its own.  Every patched attribute is put back
when the tracer exits.

Spans stay in memory, in flat arrays, until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from rdibeams import numerics
from rdibeams.waveforms import Waveform

LAYERS = ("specialfn", "waveforms", "sta", "spinors", "catalog", "numerics",
          "inversion", "verify", "cli")
ROOT_SPAN = "bench.workload"
# factory -> span name of every evaluation of the closure it returns
_FIELD_FACTORIES = {
    "catalog.spinor": "catalog.spinor_eval",
    "catalog.matrix_spinor": "catalog.matrix_spinor_eval",
}
_WAVEFORM_METHODS = ("f", "fdot", "fddot", "gauge_integral")


def _public_functions(module):
    """(attribute, object) for the functions `module` itself defines."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        # lru_cache wrappers (catalog.normalization) are callables, not functions
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


class Tracer:
    """Context manager that records a span for every call into the library."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as a span called `name`."""
        nid = self._name_id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def run_in_span(self, name: str, body):
        """body() inside a span of the benchmark's own code."""
        return self.wrap(body, name)()

    # -- patching ----------------------------------------------------------

    def _factory_wrapper(self, fn, name: str, eval_name: str):
        traced_factory = self.wrap(fn, name)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap(traced_factory(*args, **kwargs), eval_name)

        return factory

    def __enter__(self):
        replacement = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"rdibeams.{layer}")
            for attr, obj in _public_functions(module):
                name = f"{layer}.{attr}"
                if name in _FIELD_FACTORIES:
                    replacement[id(obj)] = self._factory_wrapper(
                        obj, name, _FIELD_FACTORIES[name])
                else:
                    replacement[id(obj)] = self.wrap(obj, name)
        # rebind in every library module, so from-imports are traced too
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rdibeams" and not mod_name.startswith("rdibeams."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for attr in _WAVEFORM_METHODS:
            self._patch(Waveform, attr,
                        self.wrap(Waveform.__dict__[attr], f"waveforms.{attr}"))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (name ids index `names`)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def per_name(self) -> dict:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which run one after another inside it.
        """
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        ids = spans["name_id"]
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


@contextmanager
def counting_rk4_steps():
    """Count the RK4 steps requested through `numerics.rk4_path`.

    Yields a one-element list holding the running total.  One extra Python
    call per integrated path, so it is cheap enough for untimed and timed
    runs alike.
    """
    total = [0]
    inner = numerics.rk4_path

    def rk4_path(rhs, x0, s_total, steps):
        total[0] += int(steps)
        return inner(rhs, x0, s_total, steps)

    numerics.rk4_path = rk4_path
    try:
        yield total
    finally:
        numerics.rk4_path = inner
