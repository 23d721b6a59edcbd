"""Observability and resource governance for the query engine.

Zero-dependency tracing (hierarchical :class:`Span` trees with wall
times and counters), a process-wide :data:`METRICS` registry, and
per-call :class:`ResourceBudget` enforcement (deadlines, node-visit
ceilings) with planner fallback — see docs/OBSERVABILITY.md.

The instrumentation contract, in one line::

    ctx = current()          # None unless the call opted into observation
    if ctx is not None:
        ctx.tick(n)          # count visited nodes + enforce the budget
        ctx.count("x.y", n)  # charge a named counter
        with ctx.span("stage"):
            ...              # timed region (no-op without a tracer)
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.errors": ["ResourceBudgetExceeded"],
    ".budget": ["ResourceBudget"],
    ".context": ["Observation", "current", "current_trace_id", "observed"],
    ".events": ["EVENT_SCHEMA", "EventLogWriter", "TraceBuffer"],
    ".export": [
        "lint_openmetrics", "render_openmetrics", "render_pretty", "span_from_dict",
        "trace_json", "trace_to_dict", "write_trace",
    ],
    ".metrics": ["METRICS", "DurationHistogram", "MetricsRegistry"],
    ".sampling": ["TraceSampler", "head_decision", "new_trace_id"],
    ".tracer": ["Span", "Tracer"],
})
