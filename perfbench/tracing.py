"""Per-layer spans for the traced run, recorded from the benchmark's own files.

``Tracer.installed`` rebinds the names that calling modules import (for
example ``sumlab.scan.sum_index``) to wrappers that record one span per call:
name, start, end, parent span and the input graph it serves.  Spans stay in
memory until ``write``.  A layer's self time is its spans' duration minus the
duration of their child spans; calls are single-threaded, so children of one
span never overlap.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter

import graphkit
from sumlab import bounds, graphs, scan, solvers

# (owner, attribute, layer name).  Rebinding the name in the module that
# calls it is what routes a call through the wrapper.
LAYERS = [
    (graphs, "canonical_form", "graphs.canonical_form"),
    (graphs, "enumerate_connected", "graphs.enumerate_connected"),
    (graphs, "parse_graph6", "graphs.parse_graph6"),
    (scan, "parse_graph6", "graphs.parse_graph6"),
    (scan, "scan_record", "scan.scan_record"),
    (scan.ScanReport, "to_json", "scan.to_json"),
    (scan, "bound_report", "bounds.bound_report"),
    (bounds, "count_cycles_of_length", "bounds.count_cycles"),
    (scan, "sum_index", "solvers.sum_index"),
    (scan, "difference_index", "solvers.difference_index"),
    (solvers, "exclusive_sum_number", "solvers.exclusive_sum_number"),
    (solvers, "sum_number", "solvers.sum_number"),
]


def _input_id(args: tuple) -> str | None:
    if args and isinstance(args[0], str):
        return args[0]
    if args and isinstance(args[0], graphs.Graph):
        return graphkit.to_graph6(args[0].n, args[0].edges)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, input id]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, args: tuple = ()):
        parent = self._open[-1] if self._open else None
        ident = self.spans[parent][4] if parent is not None else _input_id(args) or name
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, ident])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name, args):
                return fn(*args, **kwargs)
        return traced

    def _wrap_generator(self, name: str, fn):
        # A suspended generator stays on the span stack between yields, so
        # only the outermost call of a recursive generator gets a span; the
        # consumer's own work between yields counts as the generator's.
        def traced(*args, **kwargs):
            if any(self.spans[i][0] == name for i in self._open):
                return fn(*args, **kwargs)
            return self._spanned(name, args, fn(*args, **kwargs))
        return traced

    def _spanned(self, name: str, args: tuple, gen):
        with self.span(name, args):
            yield from gen

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in LAYERS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
                setattr(owner, attr, wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layer_totals(self, measure=lambda start, end: end - start) -> dict[str, tuple[int, float]]:
        """Layer name -> (calls, self seconds), a span's seconds as ``measure`` gives them."""
        length = [measure(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += length[k]
        totals: dict[str, tuple[int, float]] = {}
        for k, (name, _, _, _, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + length[k] - child[k])
        return totals

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, ident in self.spans:
                out.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                      "parent": parent, "input": ident}) + "\n")
