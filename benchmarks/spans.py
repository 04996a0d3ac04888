"""Spans recorded from outside the package, around calls into each layer.

The package has no timing hooks of its own, so the benchmark replaces
module attributes by name with wrappers.  A module calls a function through
its own global name, which means the attribute to patch is the one in the
*calling* module: `relabel.harness.solve`, not `relabel.solver.solve`, for
the solve that `score_stop` makes.

Every wrapped call records a span: name, start, end, parent span, and the
id of the stop it belongs to (a new stop id starts at each span whose name
is the workload's stop span).  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    stop: int | None
    count: int = 0  # work count recorded at the boundary, such as cells built

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Patches:
    """Module attributes replaced for a while and restored afterwards."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make: Callable) -> None:
        """Set module.attr to make(original), unless the attribute is gone."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Collects spans from wrapped callables."""

    def __init__(self, stop_name: str) -> None:
        self.stop_name = stop_name
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._stops = 0

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == self.stop_name:
                stop = self._stops
                self._stops += 1
            else:
                stop = parent.stop if parent is not None else None
            span = Span(len(spans), name, 0, 0, parent.id if parent else None, stop)
            spans.append(span)
            stack.append(span)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if count is not None:
                span.count = count(result)
            return result

        return traced


def install(tracer: Tracer, patches: Patches, targets) -> None:
    """Wrap each (module, attr, span name, count) target that still exists;
    a callee that a later change removes simply records no spans."""
    for module, attr, name, count in targets:
        patches.replace(module, attr, lambda fn, n=name, c=count: tracer.wrap(n, fn, c))


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = []
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(s.duration_ns - covered)
    return result


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON array per line: id, name, start, end, parent, stop, self, count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    selfs = self_times(spans)
    with path.open("w", encoding="utf-8") as fh:
        for s, own in zip(spans, selfs):
            fh.write(
                json.dumps([s.id, s.name, s.start_ns, s.end_ns, s.parent, s.stop, own, s.count])
                + "\n"
            )
