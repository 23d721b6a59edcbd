"""Unified query engine: Database facade, DocumentIndex, strategy registry.

An auto-planned query runs the first route in its kind's registry list
(kept in measured cost order) whose applicability gate accepts it.
See docs/ENGINE.md for the architecture and that one planning rule,
docs/OBSERVABILITY.md for tracing (``trace=True``) and resource
governance (``deadline=``/``max_visited=``) on every query entry point,
and docs/ROBUSTNESS.md for the retry/fallback supervisor
(``retries=``/``on_error=``) and fault injection.
"""

from repro.engine.database import Database, evaluate_document
from repro.engine.index import DocumentIndex
from repro.engine.stats import Attempt, ExecutionStats, Result
from repro.engine.strategies import (
    STRATEGIES,
    Plan,
    Strategy,
    get_strategy,
    strategies_for,
    strategy_names,
)

__all__ = [
    "Attempt",
    "Database",
    "DocumentIndex",
    "ExecutionStats",
    "Plan",
    "Result",
    "STRATEGIES",
    "Strategy",
    "get_strategy",
    "strategies_for",
    "strategy_names",
    "evaluate_document",
]
