"""Span tracing of the fractalssm layers, installed from outside the package.

`Tracer.installed()` replaces every public function of every fractalssm
module namespace with one timing wrapper per function, so a call is caught
whichever namespace it goes through (`verify.build_A`, `spectral.build_A`
and `operators.build_A` share a wrapper). Leaving the context restores the
original bindings; the package's own files are never touched.

Each call records a span (name, start, end, parent span index, operation
id) in memory and adds to its function's statistics: calls, self time (the
span's duration minus the time its direct child spans cover), calls that
raised, and any computed counts a counter function derives from the
arguments.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class FunctionStats:
    """Accumulated statistics of one traced function."""

    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=dict)
    keys: set | None = None

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "errors": self.errors}
        out.update(self.counts)
        if self.keys is not None:
            out["distinct_ratio"] = len(self.keys) / self.calls if self.calls else 0.0
        return out


class Tracer:
    """Wraps public package functions and keeps their spans in memory.

    `counters` maps a span name to `f(bound_arguments, result) -> dict` of
    computed counts, which are summed per function. `keyed` names the
    functions whose distinct argument tuples are counted.
    """

    def __init__(self, modules, counters=None, keyed=()):
        self._modules = list(modules)
        self._counters = dict(counters or {})
        self._keyed = frozenset(keyed)
        self._saved = []
        self._stack = []
        self.spans = []
        self.stats = {}
        self.op_id = None

    def reset_stats(self) -> None:
        self.stats = {}

    def snapshot(self) -> dict:
        return {name: s.as_dict() for name, s in sorted(self.stats.items())}

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith("fractalssm")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        try:
            yield self
        finally:
            while self._saved:
                module, attr, obj = self._saved.pop()
                setattr(module, attr, obj)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = self._counters.get(name)
        keyed = name in self._keyed
        signature = inspect.signature(fn) if (counter or keyed) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = tracer.stats.get(name)
            if stats is None:
                stats = tracer.stats[name] = FunctionStats(keys=set() if keyed else None)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if keyed:
                    stats.keys.add(tuple(bound.arguments.values()))
                if counter:
                    for key, value in counter(bound.arguments, result).items():
                        stats.counts[key] = stats.counts.get(key, 0) + value
            return result

        return traced
