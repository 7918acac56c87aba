"""Outside-in span tracer for the robust_summary layers.

Spans are recorded around calls into each layer, from the benchmark's own
code: module functions are patched under every name they are bound to (the
defining module, each module that imported them by name, and the package),
and oracles are wrapped by subclassing their concrete class.  A subclass is
used rather than an instance attribute because ``Objective.clone()`` is
``copy.copy``: an attribute wrapper would route every clone's calls, and
their query tally, to the original object.

Spans stay in memory as ``[name, start, end, parent, run]`` lists until the
caller clears them or writes them out with ``write_spans``.  Layer metrics
are derived from them afterwards, so the only work done per call is two
clock reads and one list append.
"""

from __future__ import annotations

import copy
import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Oracle layers: a call that an oracle makes into its own layer (marginal ->
# value) is part of the outer call, not a new boundary crossing, so it gets
# no span of its own.
LEAF_LAYERS = frozenset({"objectives", "matroids", "thresholds"})

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Records spans for the calls made while ``installed()`` is active."""

    def __init__(self, rs, functions):
        """``functions`` maps span names to hooks, or to None.

        A span name is ``<module>.<function>`` of a robust_summary module.  A
        hook ``(tracer, args, result, parent_name)`` runs after each call and
        may add to ``tracer.counts[tracer.run]``.
        """
        self.rs = rs
        self.functions = dict(functions)
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self.active = False
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._subclasses: dict[type, type] = {}

    # -- recording ---------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs, hook=None):
        stack, layers = self._stack, self._layers
        if not self.active or (layer in LEAF_LAYERS and layers and layers[-1] == layer):
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else -1
        span = [name, 0.0, 0.0, parent, self.run]
        stack.append(len(self.spans))
        layers.append(layer)
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            stack.pop()
            layers.pop()
        if hook is not None:
            hook(self, args, result, self.spans[parent][NAME] if parent >= 0 else None)
        return result

    @contextmanager
    def installed(self, run: int):
        """Patch the configured functions and record spans under run id ``run``."""
        undo = []
        try:
            for name, hook in self.functions.items():
                undo.extend(self._patch(name, hook))
            self.run = run
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def _patch(self, name, hook):
        module_name, attr = name.split(".")
        original = getattr(sys.modules[f"{self.rs.__name__}.{module_name}"], attr)
        if isinstance(original, type):
            replacement = self.subclass(original)
        else:
            tracer = self

            @functools.wraps(original)
            def replacement(*args, **kwargs):
                return tracer.call(name, module_name, original, args, kwargs, hook)

        patched = []
        for module in _package_modules(self.rs):
            if getattr(module, attr, None) is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
        return patched

    # -- oracles -------------------------------------------------------------

    def subclass(self, cls: type) -> type:
        """A subclass of ``cls`` whose layer-boundary methods record spans."""
        if cls in self._subclasses:
            return self._subclasses[cls]
        rs = self.rs
        if issubclass(cls, rs.objectives.Objective):
            layer, methods = "objectives", ("value", "marginal")
        elif issubclass(cls, rs.matroids.Matroid):
            layer, methods = "matroids", ("is_independent", "circuit")
        elif issubclass(cls, rs.thresholds.PowerLadder):
            layer, methods = "thresholds", ("floor_exponent",)
        else:
            raise TypeError(f"no traced layer for {cls.__name__}")
        namespace = {
            method: self._method(f"{layer}.{method}", layer, getattr(cls, method))
            for method in methods
        }
        traced = type(f"Traced{cls.__name__}", (cls,), namespace)
        self._subclasses[cls] = traced
        return traced

    def _method(self, name, layer, base):
        tracer = self

        @functools.wraps(base)
        def method(obj, *args, **kwargs):
            return tracer.call(name, layer, base, (obj,) + args, kwargs)

        return method

    def wrap(self, oracle):
        """A copy of ``oracle`` whose class is the traced subclass of its own."""
        traced = copy.copy(oracle)
        traced.__class__ = self.subclass(type(oracle))
        return traced

    # -- derived metrics -----------------------------------------------------

    def write_spans(self, path) -> None:
        """One tab-separated line per span: run, index, parent, name, start, end."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("run\tindex\tparent\tname\tstart_s\tend_s\n")
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                out.write(
                    f"{run}\t{index}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                )

    def indices(self, runs) -> list[int]:
        runs = set(runs)
        return [i for i, span in enumerate(self.spans) if span[RUN] in runs]

    def seconds(self, name: str, run: int) -> float:
        """Total time inside spans called ``name`` in run ``run``."""
        return sum(s[END] - s[START] for s in self.spans if s[RUN] == run and s[NAME] == name)


def _package_modules(rs):
    prefix = rs.__name__ + "."
    return [rs] + [m for n, m in list(sys.modules.items()) if n.startswith(prefix)]


def span_table(spans, indices):
    """Per name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus its direct children's durations;
    spans of one run are nested and never overlap, so nothing is counted
    twice.  Also returns, per (parent name, child name), the child count.
    """
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    exclusive: Counter = Counter()
    edges: Counter = Counter()
    for i in indices:
        name, start, end, parent, _ = spans[i]
        duration = end - start
        calls[name] += 1
        inclusive[name] += duration
        exclusive[name] += duration
        if parent >= 0:
            exclusive[spans[parent][NAME]] -= duration
            edges[(spans[parent][NAME], name)] += 1
    return calls, inclusive, exclusive, edges
