"""Function-level spans around the program's public API, from outside it.

``Tracer.install`` replaces every public function of the traced modules
(the names in ``geohull.__all__`` that those modules define, plus
``cli.run``) and the ``Graph`` constructor, ``Graph.distances`` and
``Graph.between_table`` with wrappers that record one span per call.  A
module that bound a name with ``from .x import y`` holds its own reference,
so every ``geohull`` module attribute that is the original function is
replaced, not only the defining one.  ``uninstall`` puts the originals back.
Wrappers record only while ``active`` is set, which the benchmark does
around each traced item, so untraced items and the checks run unrecorded.

A span is ``[name, parent span index, item id, start, end, child time]``;
a span's self time is its duration minus the time covered by the spans it
directly encloses.  Generator functions are not wrapped: their body runs
after the call returns, outside any span.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

MODULES = ("cli", "cnf", "graph", "chordal", "convexity", "solver", "reduction")
GRAPH_METHODS = {"__init__": "graph.Graph", "distances": "graph.distances",
                 "between_table": "graph.between_table"}


def _between_ops(graph, *_args, **_kwargs) -> int:
    """Membership tests the table build makes, V * V(V+1)/2; 0 when cached."""
    if graph._between is not None:
        return 0
    v = graph.vertex_count
    return v * v * (v + 1) // 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: dict[str, int] = defaultdict(int)
        self.item = None
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, ops = self.spans, self._stack, self.ops

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                ops[name] += count(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, parent, self.item, perf_counter(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[3]
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, gh) -> None:
        modules = {name: getattr(gh, name) for name in MODULES}
        replacements = {}
        for short, module in modules.items():
            names = [n for n in gh.__all__ if n in vars(module)]
            if short == "cli":
                names.append("run")
            for name in names:
                fn = getattr(module, name)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    replacements[fn] = self.wrap(f"{short}.{name}", fn)
        loaded = [m for key, m in sys.modules.items()
                  if key == gh.__name__ or key.startswith(gh.__name__ + ".")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(module, attr, replacements[value])
        graph_cls = gh.graph.Graph
        for method, name in GRAPH_METHODS.items():
            count = _between_ops if method == "between_table" else None
            self._patch(graph_cls, method,
                        self.wrap(name, vars(graph_cls)[method], count))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds; plus ops where counted."""
        rows: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for name, _parent, _item, start, end, child in self.spans:
            row = rows[name]
            row["calls"] += 1
            row["self_s"] += end - start - child
        for name, total in self.ops.items():
            rows[name]["ops"] = total
        return dict(rows)

    def dump(self, path: str) -> None:
        """One JSON array per line: name, parent, item, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, parent, item, start, end, _child in self.spans:
                handle.write(json.dumps([name, parent, item,
                                         round(start, 7), round(end, 7)]) + "\n")
