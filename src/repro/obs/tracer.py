"""Hierarchical spans: the trace side of :mod:`repro.obs`.

A :class:`Span` is one timed region of an engine call — "plan",
"execute:linear", "strategy:xpath:linear" — with a name, optional
metadata, wall-clock start/end, its own counter increments, and child
spans.  A :class:`Tracer` maintains the open-span stack for one traced
call and hands back the finished root.

Spans are only ever allocated when tracing was explicitly requested
(``Database.query(..., trace=True)`` / the CLI's ``--trace``); the
disabled path never touches this module beyond the import.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Span", "Tracer"]


class Span:
    """One named, timed region with counters and child spans."""

    __slots__ = ("name", "meta", "start_s", "end_s", "counters", "children")

    def __init__(self, name: str, meta: "dict[str, Any] | None" = None):
        self.name = name
        self.meta = meta or {}
        self.start_s = 0.0
        self.end_s = 0.0
        self.counters: dict[str, int] = {}
        self.children: list[Span] = []

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def iter_spans(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First span (pre-order) with the given name, or None."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def total_counters(self) -> dict[str, int]:
        """Counter totals aggregated over this span's whole subtree."""
        totals: dict[str, int] = {}
        for span in self.iter_spans():
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view of the subtree (see repro.obs.export)."""
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ms:.2f} ms, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """The open-span stack of one traced engine call.

    Not thread-safe: a Tracer belongs to exactly one call on one thread
    (the engine activates it through :func:`repro.obs.context.observed`).
    """

    __slots__ = ("root", "_stack", "_clock")

    def __init__(self, clock=time.perf_counter):
        self.root: "Span | None" = None
        self._stack: list[Span] = []
        self._clock = clock

    @property
    def current(self) -> "Span | None":
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, **meta: Any) -> Span:
        span = Span(name, meta or None)
        span.start_s = self._clock()
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            # a second top-level region: reparent under the existing root
            # so one call always yields one tree
            self.root.children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_s = self._clock()
        # unwind to (and including) the given span; tolerates spans left
        # open by an exception between start and end
        while self._stack:
            top = self._stack.pop()
            if top.end_s == 0.0:
                top.end_s = span.end_s
            if top is span:
                break

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        span = self.start(name, **meta)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, n: int = 1) -> None:
        """Attribute a counter increment to the innermost open span."""
        if self._stack:
            self._stack[-1].count(name, n)
        elif self.root is not None:
            self.root.count(name, n)
