"""The active observation context — the single gate all instrumentation
checks.

Instrumented code throughout the library (the structural joins and
semi-joins, twig stacks, the Minoux fixpoint, the streaming engine, the
linear XPath evaluator) begins with::

    ctx = current()

and does *nothing else* when ``ctx`` is None — that one module-global
read is the entire disabled-tracing cost, which is how the engine keeps
the <5% overhead contract (measured by
``benchmarks/bench_engine_reuse.py``).  When a context is active, the
code charges counters, ticks the resource budget, and opens spans
through it.

An :class:`Observation` bundles the optional :class:`~repro.obs.tracer.Tracer`
(spans) with the optional :class:`~repro.obs.budget.ResourceBudget`
(deadlines / visit ceilings) and accumulates flat counter totals either
way.  :func:`observed` activates one for the duration of a call and
restores the previous context afterwards, so nested engine calls (e.g.
a fallback re-execution) stack correctly.

The active context lives in a :class:`contextvars.ContextVar`, so each
thread (and each ``contextvars`` context) sees only its own engine
call's observation — the query service answers concurrent requests on a
thread pool, and one request's budget or span tree must never be
charged by another's evaluation loop.  A ``ContextVar`` read is a C
lookup, so the disabled-instrumentation cost stays a single cheap gate
(pinned by ``benchmarks/bench_engine_reuse.py``).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, Iterator

from repro.obs.budget import ResourceBudget
from repro.obs.tracer import Span, Tracer

__all__ = ["Observation", "charged", "current", "current_trace_id", "observed"]

# one shared, reentrant no-op context manager for span() without a tracer
_NULL_SPAN = nullcontext()

_active: "ContextVar[Observation | None]" = ContextVar("repro_obs_active",
                                                       default=None)


def current() -> "Observation | None":
    """The observation context of the running engine call, if any."""
    return _active.get()


def charged(candidates):
    """A candidate loop's candidates, ticked on the active observation as
    one batch before the loop runs (returned as they are when none is
    active), so a budget stops the search within one loop."""
    ctx = _active.get()
    if ctx is None:
        return candidates
    candidates = list(candidates)
    ctx.tick(len(candidates))
    return candidates


def current_trace_id() -> "str | None":
    """The trace id of the active observation context, if any.

    The service's per-request middleware stamps its trace id on the
    request's Observation; every engine call, attempt record and error
    payload produced under it reads the id back through this one
    function — the whole correlation story is this ContextVar hop.
    """
    ctx = _active.get()
    return ctx.trace_id if ctx is not None else None


class Observation:
    """Tracing + governance state for one engine call (or one service
    request — the middleware wraps each request in its own Observation,
    carrying the request's trace id for everything nested under it)."""

    __slots__ = ("tracer", "budget", "counters", "trace_id", "meta")

    def __init__(
        self,
        tracer: "Tracer | None" = None,
        budget: "ResourceBudget | None" = None,
        trace_id: "str | None" = None,
    ):
        self.tracer = tracer
        self.budget = budget
        #: the request-scoped trace id, if one was issued (service path)
        self.trace_id = trace_id
        #: request-level annotations (store, kind, strategy) the service
        #: folds into the event-log record; None until first annotate()
        self.meta: "dict[str, Any] | None" = None
        #: flat counter totals for the whole call (all attempts)
        self.counters: dict[str, int] = {}

    def annotate(self, **fields: Any) -> None:
        """Attach event-log fields (store, kind, strategy, ...) to this
        context; later values win.  Lazy dict: unannotated contexts
        never pay the allocation."""
        if self.meta is None:
            self.meta = {}
        self.meta.update(fields)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **meta: Any):
        """A context manager timing a region; no-op without a tracer."""
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, **meta)

    # -- counters and budget ----------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Charge a named counter (flat total + innermost open span)."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self.tracer is not None:
            self.tracer.count(name, n)

    def tick(self, n: int = 1) -> None:
        """Account ``n`` visited nodes and enforce the budget.

        This is the instrumentation workhorse: evaluation loops call it
        (usually batched — per axis application, per stream, per pop)
        so governance checks stay cheap and periodic.  Raises
        :class:`~repro.errors.ResourceBudgetExceeded` on a crossed
        limit.
        """
        self.count("nodes.visited", n)
        if self.budget is not None:
            self.budget.charge(n)


@contextmanager
def observed(obs: Observation) -> Iterator[Observation]:
    """Activate ``obs`` as the current context of this thread/context."""
    token = _active.set(obs)
    try:
        yield obs
    finally:
        _active.reset(token)
