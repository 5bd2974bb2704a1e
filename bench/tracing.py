"""Spans around calls into the library's layers, and their self times.

The benchmark calls every library function through a tracer. In timed
runs that is `NULL`, which just calls the function. In the traced run a
`Tracer` records one span per call: name, start, end, parent span and op
id. Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its child spans; calls are nested and
single-threaded, so children never overlap.

Span names are `<module>.<function>` with the shorter names the
benchmark reports, e.g. `involutions.decompose`. Calls that the CLI makes
into the layers get spans too: while `patched_cli` is active, every
library function the cli module imported is replaced in the cli module's
namespace by a traced wrapper. Nothing under src/ is changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

SHORT_NAMES = {
    "FiniteFunction": "funcgraph.generate",
    "random_fpf_function": "funcgraph.generate",
    "orbit_decomposition": "funcgraph.orbits",
    "verify_orbits": "funcgraph.verify_orbits",
    "decompose_into_involutions": "involutions.decompose",
    "verify_decomposition": "involutions.verify",
    "katetov_partition": "freesets.katetov",
    "verify_coloring": "freesets.verify_coloring",
    "is_maximal_free": "freesets.maximal_check",
    "escape_intervals": "partitions.escape",
    "verify_escape": "partitions.verify_escape",
    "function_to_matrix": "rosenthal.matrix_build",
    "RosenthalMatrix": "rosenthal.matrix_build",
    "verify_fragmentation": "rosenthal.verify",
    "shadow_set": "boundedfam.shadow",
    "meeting_function": "boundedfam.meeting",
    "verify_meeting": "boundedfam.meeting",
    "verify_freeness_claim": "boundedfam.claim",
    "bad_set": "boundedfam.badset",
    "selector_free_check": "boundedfam.selector",
}

# Functions whose span name depends on their `mode` argument, with the
# argument's position.
MODE_ARG = {"max_free_subset": ("freesets", 2), "find_fragmenting_set": ("rosenthal", 3)}


def span_name(func: Callable, args: tuple, kwargs: dict) -> str:
    name = func.__name__
    if name in MODE_ARG:
        layer, pos = MODE_ARG[name]
        mode = kwargs.get("mode", args[pos] if len(args) > pos else "exact")
        return f"{layer}.{mode}"
    if name in SHORT_NAMES:
        return SHORT_NAMES[name]
    module = func.__module__.rsplit(".", 1)[-1]
    return f"{module}.{name}"


def _count_result(counts: Counter, name: str, result: Any) -> None:
    """Work counters read off a layer's return value."""
    if name == "funcgraph.generate":
        counts["funcgraph.points"] += len(result.values)
    elif name == "involutions.decompose":
        counts["involutions.decompositions"] += 1
        counts["involutions.case2"] += result.case == 2
        counts["involutions.uncovered_edges"] += len(result.uncovered_edges)
    elif name == "partitions.escape":
        counts["partitions.blocks"] += result.block_count
    elif name in ("rosenthal.exact", "rosenthal.greedy"):
        counts["rosenthal.searches"] += 1
        counts["rosenthal.found"] += result is not None
    elif name == "boundedfam.claim":
        counts["boundedfam.claims"] += 1


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, func: Callable, *args, **kwargs):
        return func(*args, **kwargs)

    def count(self, key: str, value: int = 1) -> None:
        pass

    @contextlib.contextmanager
    def op(self, label: str):
        yield

    @contextlib.contextmanager
    def span(self, name: str):
        yield


NULL = NullTracer()


class Tracer(NullTracer):
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.op_labels: list[str] = ["setup"]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def op(self, label: str):
        outer = self._op
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        try:
            yield
        finally:
            self._op = outer

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, func: Callable, *args, **kwargs):
        name = span_name(func, args, kwargs)
        with self.span(name):
            result = func(*args, **kwargs)
        _count_result(self.counts, name, result)
        return result

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] += value

    def self_times(self, label: str | None = None) -> dict[str, float]:
        """Total self time per span name, over all spans or the ops with this label."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if label is None or self.op_labels[op] == label:
                out[name] += end - start - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "ops": self.op_labels,
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


@contextlib.contextmanager
def patched_cli(tracer: NullTracer):
    """Route the cli module's calls into the layers through `tracer`."""
    from freeset_lab import cli

    saved = {}
    for attr, value in vars(cli).items():
        if (
            inspect.isfunction(value)
            and value.__module__.startswith("freeset_lab.")
            and value.__module__ != cli.__name__
        ):
            saved[attr] = value
    try:
        for attr, value in saved.items():
            setattr(cli, attr, functools.partial(tracer.call, value))
        yield
    finally:
        for attr, value in saved.items():
            setattr(cli, attr, value)
