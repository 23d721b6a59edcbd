"""JSON request/response schemas and the service error taxonomy.

Everything the HTTP layer says on the wire is defined here, so the
tests can speak the protocol without going through a socket.

**Answers are canonical**: :func:`encode_answer` renders a result set
as a *sorted* list (of ints for node answers, of lists for tuple
answers), so two equal answers always serialize to identical bytes —
the concurrency differential battery compares those bytes directly.
:func:`decode_answer` is its exact inverse; the round-trip property
test (``tests/test_service_properties.py``) pins
``decode(json(encode(a))) == a`` over random tree/query pairs.

**Errors are typed**: every engine exception maps to one (HTTP status,
machine-readable code) pair via :func:`error_status` — the HTTP twin
of the CLI's exit-code contract:

=============================  ======  =======================
exception                      status  code
=============================  ======  =======================
ServiceError (validation)      400*    as raised
ParseError                     400     ``parse-error``
QueryError (and subclasses)    400     ``bad-query``
ResourceBudgetExceeded         429     ``budget-exhausted``
AllStrategiesFailedError       503     ``all-strategies-failed``
TransientError                 503     ``transient-failure``
InjectedFault                  500     ``injected-fault``
StorageError                   500     ``storage-error``
other EvaluationError          500     ``evaluation-failed``
other ReproError               500     ``internal-error``
=============================  ======  =======================

(*) a ServiceError carries its own status; 400 is the default.  The
resilience layer (:mod:`repro.service.resilience`) adds its own typed
refusals on top — 429 ``overloaded``, 504 ``deadline-exceeded``, 503
``circuit-open`` and 503 ``draining`` — which may carry a
``retry_after`` hint rendered as both a JSON field and the HTTP
``Retry-After`` header.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import (
    AllStrategiesFailedError,
    EvaluationError,
    InjectedFault,
    ParseError,
    QueryError,
    ReproError,
    ResourceBudgetExceeded,
    StorageError,
    TransientError,
)

__all__ = [
    "KINDS",
    "ServiceError",
    "decode_answer",
    "encode_answer",
    "error_payload",
    "error_status",
    "stats_payload",
    "validate_query_request",
]

#: the query languages the service exposes
KINDS = ("xpath", "twig", "cq", "datalog")

#: degradation policies accepted on the wire (mirrors Database.ON_ERROR_POLICIES)
_POLICIES = ("raise", "fallback", "partial")


class ServiceError(ReproError):
    """A request the service refuses: carries the HTTP status and a
    machine-readable code alongside the human message.

    ``retry_after`` (seconds, optional) marks refusals the client
    should simply retry later — overload sheds, open circuits, drains.
    The HTTP layer sends it twice: rounded up to whole seconds in the
    ``Retry-After`` header, and to the millisecond as
    ``error.retry_after`` in the JSON body.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        code: str = "bad-request",
        retry_after: "float | None" = None,
    ):
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def encode_answer(answer: Any) -> list:
    """A canonical JSON rendering of an engine answer set.

    Node answers (sets of ints) become a sorted int list; tuple answers
    (twig/cq matches) a sorted list of int lists.  Sorting makes the
    encoding a pure function of the answer *set*, so equal answers are
    byte-identical once JSON-serialized with sorted keys.
    """
    items = list(answer)
    if not items:
        return []
    if isinstance(items[0], tuple):
        return [list(map(int, row)) for row in sorted(items)]
    return sorted(int(v) for v in items)


def decode_answer(payload: Any) -> Any:
    """The inverse of :func:`encode_answer`: a set of ints or tuples."""
    if not isinstance(payload, list):
        raise ServiceError(
            f"answer payload must be a list, got {type(payload).__name__}"
        )
    out_nodes: set[int] = set()
    out_rows: set[tuple[int, ...]] = set()
    for item in payload:
        if isinstance(item, list):
            out_rows.add(tuple(int(v) for v in item))
        else:
            out_nodes.add(int(item))
    if out_rows and out_nodes:
        raise ServiceError("answer payload mixes node and tuple rows")
    return out_rows if out_rows else out_nodes


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def stats_payload(stats: Any) -> dict:
    """The wire form of an :class:`~repro.engine.stats.ExecutionStats`."""
    payload = {
        "kind": stats.kind,
        "strategy": stats.strategy,
        "reason": stats.reason,
        "elapsed_ms": round(stats.elapsed_ms, 3),
        "answer_size": stats.answer_size,
        "index_built": stats.index_built,
        "index_hits": stats.index_hits,
        "degraded": stats.degraded,
    }
    if getattr(stats, "trace_id", None) is not None:
        payload["trace_id"] = stats.trace_id
    if stats.fallback_from:
        payload["fallback_from"] = list(stats.fallback_from)
    if stats.faults:
        payload["faults"] = list(stats.faults)
    if len(stats.attempts) > 1:
        payload["attempts"] = [
            {
                "strategy": a.strategy,
                "outcome": a.outcome,
                "error": a.error,
                "elapsed_ms": round(a.elapsed_s * 1e3, 3),
                "trace_id": a.trace_id,
            }
            for a in stats.attempts
        ]
    return payload


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def validate_query_request(obj: Any) -> dict:
    """Check one query-request object; returns normalized Database kwargs.

    The returned dict has ``kind``, ``query``, ``strategy`` plus the
    supervision keywords (``deadline`` in seconds, ``max_visited``,
    ``retries``, ``on_error``) and ``query_pred`` — exactly the shape
    :meth:`QueryService.query` passes to the engine.  Violations raise
    :class:`ServiceError` (HTTP 400) naming the offending field.
    """
    _require(isinstance(obj, Mapping), "query request must be a JSON object")
    unknown = set(obj) - {
        "kind", "query", "strategy", "deadline_ms", "max_visited",
        "retries", "on_error", "query_pred",
    }
    _require(not unknown, f"unknown request fields: {', '.join(sorted(unknown))}")
    kind = obj.get("kind")
    _require(kind in KINDS, f"'kind' must be one of {', '.join(KINDS)}; got {kind!r}")
    query = obj.get("query")
    _require(
        isinstance(query, str) and bool(query.strip()),
        "'query' must be a non-empty string",
    )
    strategy = obj.get("strategy", "auto")
    _require(
        isinstance(strategy, str) and bool(strategy),
        "'strategy' must be a strategy name, 'auto' or omitted",
    )
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        _require(
            isinstance(deadline_ms, (int, float)) and not isinstance(deadline_ms, bool)
            and deadline_ms >= 0,
            "'deadline_ms' must be a non-negative number",
        )
    max_visited = obj.get("max_visited")
    if max_visited is not None:
        _require(
            isinstance(max_visited, int) and not isinstance(max_visited, bool)
            and max_visited > 0,
            "'max_visited' must be a positive integer",
        )
    retries = obj.get("retries", 0)
    _require(
        isinstance(retries, int) and not isinstance(retries, bool) and retries >= 0,
        "'retries' must be a non-negative integer",
    )
    on_error = obj.get("on_error", "raise")
    _require(
        on_error in _POLICIES,
        f"'on_error' must be one of {', '.join(_POLICIES)}; got {on_error!r}",
    )
    query_pred = obj.get("query_pred")
    if query_pred is not None:
        _require(
            isinstance(query_pred, str) and kind == "datalog",
            "'query_pred' must be a string and applies to datalog only",
        )
    return {
        "kind": kind,
        "query": query,
        "strategy": strategy,
        "deadline": deadline_ms / 1000.0 if deadline_ms is not None else None,
        "max_visited": max_visited,
        "retries": retries,
        "on_error": on_error,
        "query_pred": query_pred,
    }


# ---------------------------------------------------------------------------
# the error taxonomy
# ---------------------------------------------------------------------------


def error_status(exc: BaseException) -> "tuple[int, str]":
    """The (HTTP status, machine code) of an exception, per the module
    table.  Subclass checks run most-specific-first, so e.g.
    :class:`InjectedFault` (an EvaluationError) keeps its own code."""
    if isinstance(exc, ServiceError):
        return exc.status, exc.code
    if isinstance(exc, ResourceBudgetExceeded):
        return 429, "budget-exhausted"
    if isinstance(exc, AllStrategiesFailedError):
        return 503, "all-strategies-failed"
    if isinstance(exc, TransientError):
        return 503, "transient-failure"
    if isinstance(exc, InjectedFault):
        return 500, "injected-fault"
    if isinstance(exc, ParseError):
        return 400, "parse-error"
    if isinstance(exc, QueryError):
        return 400, "bad-query"
    if isinstance(exc, StorageError):
        return 500, "storage-error"
    if isinstance(exc, EvaluationError):
        return 500, "evaluation-failed"
    return 500, "internal-error"


def error_payload(
    exc: BaseException, trace_id: "str | None" = None
) -> "tuple[int, dict]":
    """The full (status, JSON body) of an error response.

    ``trace_id`` (the request's id, when the HTTP layer knows it) rides
    inside the error object so a failing client can quote exactly which
    trace to pull from ``/debug/traces/<id>`` or ``repro trace show``.
    """
    status, code = error_status(exc)
    error: dict = {
        "code": code,
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if trace_id is not None:
        error["trace_id"] = trace_id
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = round(float(retry_after), 3)
    return status, {"error": error}
