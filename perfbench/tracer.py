"""Spans around the public functions of each dispersia module.

The tracer replaces every module binding of a public function (for example
``dispersion.laplace`` as well as ``kernels.laplace``) with a wrapper that
records a span: name, start, end and parent span.  Spans live in flat arrays
in memory and are written out when the benchmark ends.  Nothing inside the
package changes; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "io", "kernels", "dispersion", "modal", "decay")

# Foreign callables whose module binding is a layer boundary of its own.
FOREIGN = (("modal", "expm"),)


class Tracer:
    """Wrappers are built once; ``install`` and ``uninstall`` swap the bindings."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        package = importlib.import_module("dispersia")
        modules = [importlib.import_module(f"dispersia.{m}") for m in LAYERS]
        targets = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{layer}.{attr}", layer, obj)
        for layer, attr in FOREIGN:
            obj = getattr(modules[LAYERS.index(layer)], attr, None)
            if obj is not None:
                targets[id(obj)] = (f"{layer}.{attr}", layer, obj)
        wrappers = {key: self._wrap(*spec) for key, spec in targets.items()}
        for mod in [package] + modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock, stack = time.perf_counter, self._stack
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(layer, exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # count an exception once per layer it leaves, not once per wrapped frame
        seen = exc.__dict__.setdefault("_perfbench_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    # -- analysis ----------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        return name, start, end, parent

    def save(self, path: Path) -> None:
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end, parent=parent)


class SpanStats:
    """Per-name calls, inclusive and self time over one slice of the spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        name, start, end, parent = tracer.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        self_t = dur - child
        self._names = tracer.names
        self._name, self._parent = name, parent
        self._lo, self._hi = lo, hi
        sl = slice(lo, hi)
        n = len(tracer.names)
        self._calls = np.bincount(name[sl], minlength=n)
        self._total = np.bincount(name[sl], weights=dur[sl], minlength=n)
        self._self = np.bincount(name[sl], weights=self_t[sl], minlength=n)

    def _id(self, name: str):
        return self._names.index(name) if name in self._names else None

    def calls(self, name):
        i = self._id(name)
        return None if i is None else int(self._calls[i])

    def self_s(self, name):
        i = self._id(name)
        return None if i is None else float(self._self[i])

    def total_s(self, name):
        i = self._id(name)
        return None if i is None else float(self._total[i])

    def calls_under(self, name, ancestor):
        """Calls of ``name`` that have a span of ``ancestor`` somewhere above them."""
        i, a = self._id(name), self._id(ancestor)
        if i is None or a is None:
            return None
        sl = slice(self._lo, self._hi)
        node = self._parent[sl].copy()
        found = np.zeros(node.size, dtype=bool)
        while np.any(node >= 0):
            live = node >= 0
            found[live] |= self._name[node[live]] == a
            node[live] = self._parent[node[live]]
        return int(np.sum(found & (self._name[sl] == i)))
