"""Execution accounting for the unified engine.

Every query answered through :class:`repro.engine.Database` returns a
:class:`Result` carrying the answer *and* an :class:`ExecutionStats`
record: which strategy ran, why the planner chose it, how long it took,
and how the cached :class:`~repro.engine.index.DocumentIndex` was used.
The index counters are what make cache behaviour observable —
``index_built`` is True only for the call that constructed the index,
and ``index_hits`` counts index consultations served during the call,
so a repeated query on the same document shows ``index_built=False``
with ``index_hits > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.tracer import Span

__all__ = ["Attempt", "ExecutionStats", "Result"]


@dataclass(frozen=True)
class Attempt:
    """One supervised execution attempt (docs/ROBUSTNESS.md).

    ``stage`` is the strategy name, or ``"(setup)"`` for failures during
    parse/index-build/planning.  ``outcome`` is one of ``"ok"``,
    ``"transient"`` (retryable failure), ``"error"`` (hard failure) or
    ``"budget"`` (:class:`~repro.errors.ResourceBudgetExceeded`).
    """

    strategy: str
    outcome: str  # "ok" | "transient" | "error" | "budget"
    error: "str | None" = None
    elapsed_s: float = 0.0
    #: the request trace id active when the attempt ran (service path)
    trace_id: "str | None" = None

    def __str__(self) -> str:
        detail = f": {self.error}" if self.error else ""
        return f"{self.strategy}[{self.outcome}]{detail}"


@dataclass(frozen=True)
class ExecutionStats:
    """One engine call, fully accounted.

    ``counters``, ``trace`` and ``fallback_from`` are filled only for
    *observed* calls (tracing or a resource budget active — see
    :mod:`repro.obs`): ``counters`` holds the flat counter totals of
    the call, ``trace`` the root of the span tree when tracing was on,
    and ``fallback_from`` the strategies the planner abandoned after a
    :class:`~repro.errors.ResourceBudgetExceeded` before the reported
    one answered.  ``attempts``, ``faults``, ``degraded`` and
    ``trace_id`` record the supervisor's work (docs/ROBUSTNESS.md).
    """

    kind: str  # "xpath" | "twig" | "cq" | "datalog"
    query: str  # concrete syntax of the query
    strategy: str  # registry name of the strategy that ran
    reason: str  # planner justification (or "explicitly requested")
    elapsed_s: float  # wall time of the execution proper
    answer_size: int
    index_built: bool  # this call constructed the DocumentIndex
    index_hits: int  # index consultations during this call
    nodes_streamed: int  # nodes handed out of index partitions
    counters: "dict[str, int] | None" = None  # flat totals (observed calls)
    trace: "Span | None" = None  # span tree root (traced calls)
    fallback_from: tuple[str, ...] = ()  # strategies downgraded away from
    #: supervised calls only: every attempt in execution order,
    #: including retries of transients and abandoned strategies
    attempts: "tuple[Attempt, ...]" = ()
    #: injection sites that tripped during this call (armed FaultPlan)
    faults: tuple[str, ...] = ()
    #: True when ``on_error="partial"`` degraded the call to an empty
    #: answer after every strategy failed
    degraded: bool = False
    #: the request trace id this call executed under, when one was
    #: active (set by the service middleware; None for direct calls)
    trace_id: "str | None" = None

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_s * 1e3

    @property
    def retry_count(self) -> int:
        """Transient re-attempts performed during this call."""
        return sum(1 for a in self.attempts if a.outcome == "transient")

    def counter(self, name: str) -> int:
        """A counter total, 0 when absent or the call was unobserved."""
        if not self.counters:
            return 0
        return self.counters.get(name, 0)

    def summary(self) -> str:
        built = " built-index" if self.index_built else ""
        fallback = (
            f", fell back from {'+'.join(self.fallback_from)}"
            if self.fallback_from
            else ""
        )
        extras = ""
        if len(self.attempts) > 1:
            extras += f", {len(self.attempts)} attempts"
        if self.faults:
            extras += f", faults: {'+'.join(self.faults)}"
        if self.degraded:
            extras += ", DEGRADED (partial result)"
        return (
            f"{self.kind}[{self.strategy}] {self.elapsed_ms:.2f} ms, "
            f"{self.answer_size} answers, {self.index_hits} index hits"
            f"{built}{fallback}{extras}"
        )


@dataclass(frozen=True)
class Result:
    """An answer set plus the stats of the call that produced it.

    Iterates (and measures) like the underlying answer, so existing
    code that expects a plain set keeps working on ``result.answer``.
    """

    answer: Any  # set[int] for unary queries, set[tuple[int, ...]] otherwise
    stats: ExecutionStats

    def __iter__(self) -> Iterator:
        return iter(self.answer)

    def __len__(self) -> int:
        return len(self.answer)

    def __contains__(self, item: object) -> bool:
        return item in self.answer
