"""Span tracing of hsgeo's layers, installed from outside the package.

Every public function of the layer modules (plus GridFunction.eval_at
and InitialData.from_gradient) is replaced, in every hsgeo namespace
that holds it, by a wrapper that records one span per call: item key,
span id, parent span id, name, start and end in nanoseconds. Self time
(duration minus the time covered by child spans) and call counts are
accumulated per name as the spans close. Spans stay in memory until the
run ends and are then written out in one file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("grid", "data", "engine", "sphere", "weak", "geometry", "oracle", "findim", "cli")
# called once per scan step inside the bisection searches; their time stays
# in the caller's self time instead of costing a span per step
UNWRAPPED = {"engine.factor"}
MAX_SPANS = 1_000_000  # rows kept for the span file; totals keep counting past it
METHODS = (("grid", "GridFunction", "eval_at"), ("data", "InitialData", "from_gradient"))


class Tracer:
    def __init__(self):
        self.on = False
        self.item = -1
        self.names: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counters: dict[str, int] = {}
        self.cols = {k: array("q") for k in ("item", "span", "parent", "name", "start", "end")}
        self._stack: list[list[int]] = []
        self._next = 0
        self.dropped = 0

    def _name(self, name: str) -> int:
        self.names.append(name)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        idx = self._name(name)
        clock = time.perf_counter_ns
        stack = self._stack
        cols = self.cols

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.self_ns[idx] += dur - frame[1]
                self.calls[idx] += 1
                if span < MAX_SPANS:
                    for key, val in zip(cols, (self.item, span, parent, idx, t0, t1)):
                        cols[key].append(val)
                else:
                    self.dropped += 1

        return traced

    def counter(self, fn, name: str):
        """Wrap a callable so that each call only bumps a counter."""
        self.counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap the public functions of every layer in every hsgeo namespace."""
        mods = {layer: importlib.import_module(f"hsgeo.{layer}") for layer in LAYERS}
        swap = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{name}" not in UNWRAPPED):
                    swap[id(obj)] = self.wrap(obj, f"{layer}.{name}")
        namespaces = [sys.modules["hsgeo"], *mods.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in swap:
                    setattr(ns, name, swap[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(raw.__func__, f"{layer}.{cls_name}.{meth}")))
            else:
                setattr(cls, meth, self.wrap(raw, f"{layer}.{cls_name}.{meth}"))
        engine = mods["engine"]
        engine.PchipInterpolator = self.counter(engine.PchipInterpolator, "engine.pchip")

    def span_count(self) -> int:
        return self._next

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self time in ms and call count per span name."""
        return {n: (s / 1e6, c) for n, s, c in zip(self.names, self.self_ns, self.calls)}

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, one per span, with a header."""
        cols = self.cols
        with open(path, "w") as fh:
            fh.write("item\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for row in zip(*cols.values()):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]}\t{row[5]}\n")


def overhead_per_span_ns(calls: int = 20000) -> float:
    """Added cost of one traced call, from a wrapped no-op against a plain one."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    best = []
    for fn, on in ((noop, False), (traced, True)):
        probe.on = on
        runs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            runs.append(time.perf_counter_ns() - t0)
            for col in probe.cols.values():
                del col[:]
        best.append(min(runs))
    return max(best[1] - best[0], 0) / calls
