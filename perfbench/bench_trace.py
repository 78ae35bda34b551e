"""Spans around the benchmark's calls into each geneasm layer.

Tracing is done from outside the package: while a ``Tracer`` is installed,
each function named in ``bench_spec.LAYER_FUNCTIONS`` is replaced on its
module (or class) by a wrapper that records a span.  Because geneasm calls
its layers through module attributes (``kernels.scan_for_arrangement``,
``direct.direct_reduction_graph``, ...), calls between layers get child
spans too.  The direct construction's edge test is wrapped the same way,
but only counted.  ``uninstall`` puts the original functions back.

A span is (name, start, end, parent index, op id).  Spans stay in memory;
``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

from bench_spec import EDGE_TEST, LAYER_FUNCTIONS, OPAQUE_LAYERS

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.op_id = None
        self.active = False
        self.only = None  # when set, record spans of these layers only
        self.opaque_depth = 0
        self.counters = {
            "direct.candidate_edges": 0,
            "direct.edges_found": 0,
            "rewriting.successful_in.true": 0,
            "realism.witnesses": 0,
        }
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.child_time.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.child_time[span[3]] += end - span[1]

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, self seconds, total seconds]."""
        out: dict[str, list[float]] = {}
        for (name, start, end, _parent, _op), child in zip(self.spans, self.child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) - child
            row[2] += end - start
        return out

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, attr_path) in LAYER_FUNCTIONS.items():
            owner = importlib.import_module(f"geneasm.{module_name}")
            *path, attr = attr_path.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        module = importlib.import_module(f"geneasm.{EDGE_TEST[0]}")
        original = getattr(module, EDGE_TEST[1], None)
        if original is not None:  # a construction without it counts no candidates
            self._saved.append((module, EDGE_TEST[1], original))
            setattr(module, EDGE_TEST[1], self._count_edge_tests(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)
        opaque = name in OPAQUE_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (not tracer.active or tracer.opaque_depth
                    or (tracer.only is not None and name not in tracer.only)):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            tracer.opaque_depth += opaque
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    # the work of a generator happens while it is consumed
                    result = iter(list(result))
            finally:
                tracer.opaque_depth -= opaque
                tracer.close(idx)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return wrapper

    def _count_edge_tests(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active and not tracer.opaque_depth and tracer.only is None:
                tracer.counters["direct.candidate_edges"] += 1
                tracer.counters["direct.edges_found"] += bool(result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def _count_successful_in(counters, args, result) -> None:
    counters["rewriting.successful_in.true"] += bool(result)


def _count_realism(counters, args, result) -> None:
    counters["realism.witnesses"] += result is not None


_COUNTERS = {
    "rewriting.successful_in": _count_successful_in,
    "overlap.is_realistic_overlap": _count_realism,
}
