"""Unified query engine: Database facade, DocumentIndex, strategy registry.

An auto-planned query runs the first route in its kind's registry list
(kept in measured cost order) whose applicability gate accepts it.
See docs/ENGINE.md for the architecture and that one planning rule,
docs/OBSERVABILITY.md for tracing (``trace=True``) and resource
governance (``deadline=``/``max_visited=``) on every query entry point,
and docs/ROBUSTNESS.md for the retry/fallback supervisor
(``retries=``/``on_error=``) and fault injection.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".database": ["Database", "evaluate_document"],
    ".index": ["DocumentIndex"],
    ".stats": ["Attempt", "ExecutionStats", "Result"],
    ".strategies": [
        "STRATEGIES", "Plan", "Strategy", "get_strategy", "strategies_for",
        "strategy_names",
    ],
})
