"""Spans and counts recorded around the benchmark's calls into chroma.

A span marks one call into a chroma layer: its name is `<layer>.<call>`,
with start and end taken from `time.perf_counter`, the index of the span
that encloses it, and the id of the operation it belongs to.  Spans are
kept in memory and written out when the benchmark ends.  Counts (search
nodes, bytes, failed checks) are recorded at the same boundaries.

Spans are kept only when tracing is on.  Counts are always kept: the
end-to-end extras (instances solved, bracket widths) are derived from them,
and a handful of dictionary updates per operation costs nothing measurable.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("groups", "equations", "cayley", "kneser", "graphio",
          "constructions", "bohr", "cli")


@dataclass(frozen=True)
class Op:
    """One operation of a workload: `run` is timed, `check` is not.

    `check(output, tracer)` returns None when the output is right, else the
    reason it is wrong.  `known_defect` names a program defect this operation
    is known to expose; its failures are still counted as failed operations,
    but they do not make the run incorrect.
    """

    name: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any, "Tracer"], str | None]
    known_defect: str | None = None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self._op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; its children share its id."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        try:
            with self.span(f"op.{name}"):
                yield
        finally:
            self._op = -1

    def durations(self, name: str) -> float:
        """Total duration of the spans called `name`."""
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for s, covered in zip(self.spans, child):
            layer = s["name"].split(".", 1)[0]
            if layer in out:
                out[layer] += s["end"] - s["start"] - covered
        return out
