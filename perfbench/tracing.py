"""In-memory span recorder for the traced run.

Spans are opened around the benchmark's own calls into the library, one per
layer boundary.  Each records its name, start, end, parent span and the op
it belongs to, plus counters filled in at the same boundary (monoid size,
words checked, ...).  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator, Sequence


@dataclass
class Span:
    name: str
    op: str | None
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one traced run; spans nest by the `with` structure."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op: str | None = None

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Tag every span opened inside with `op_id`."""
        outer, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        rec = Span(name, self._op, parent, perf_counter())
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy_s(self) -> dict[str, float]:
        """Total self time per span name."""
        busy: dict[str, float] = {}
        for s, t in zip(self.spans, self_times(self.spans)):
            busy[s.name] = busy.get(s.name, 0.0) + t
        return busy

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, selfs):
                row = {
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": self_s,
                    "counters": s.counters,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


class NullRecorder:
    """Stands in for `Recorder` in untraced runs: records nothing."""

    _span = Span("", None, None, 0.0)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        yield self._span


NULL = NullRecorder()


def covered(interval: tuple[float, float], parts: Sequence[tuple[float, float]]) -> float:
    """Length of the part of `interval` that the union of `parts` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered((s.start, s.end), kids) for s, kids in zip(spans, children)]
