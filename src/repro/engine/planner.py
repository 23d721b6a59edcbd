"""The strategy planner: inspect a parsed query, pick an evaluation route.

The planner encodes the paper's cost picture as explicit, documented
rules (see docs/ENGINE.md for the full rationale).  It only ever
returns names from :mod:`repro.engine.strategies`, and both the library
facade and the CLI go through it — so there is exactly one place where
"which algorithm runs by default" is decided.

Heuristics, in order:

**Core XPath**

1. ``position()`` present → ``denotational`` (the only route that
   implements positional predicates).
2. Otherwise → ``linear``, the O(|Q|·||A||) context-set evaluator.  A
   downward step with a positive qualifier starts from its qualifier
   sets, seeded from the label partition, and keeps the candidates
   below the frontier with one §2 interval semi-join; a label path
   joins the posting arrays as they are and stops at the first empty
   frontier.  So neither nested qualifiers nor selective or absent
   labels need a route of their own.

**Twig patterns** — always ``binary``.  The index prunes every
candidate stream exactly (:meth:`DocumentIndex.twig_streams`: a full
bottom-up reducer, then the §2 semi-joins top-down), so by Props.
6.9/6.10 every partial match the binary join plan materializes extends
to an answer: it never holds more rows after its first edge than the
answer has, and holistic stacks have nothing left to save.

**Conjunctive queries**

1. Acyclic → ``yannakakis`` (O(||A||·|Q|) for Boolean/unary heads).
2. Tree-width ≤ 2 → ``treewidth`` (Theorem 4.1's DP stays polynomial
   with a small exponent).
3. Otherwise → ``backtracking``.

**Datalog** — always ``minoux`` (the linear TMNF → Horn-SAT pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError
from repro.faults import faultpoint, register_site
from repro.engine.strategies import get_strategy

__all__ = ["Plan", "Planner"]

register_site("planner.plan", "strategy selection for one query")


@dataclass(frozen=True)
class Plan:
    """A chosen strategy plus the reason it was chosen."""

    kind: str
    strategy: str
    reason: str


class Planner:
    """Maps (kind, parsed query) to a :class:`Plan`.  A plan reads only
    the query, never the document, so the planner holds no state."""

    __slots__ = ()

    #: tree-width cutoff for the bounded-tree-width CQ route
    TREEWIDTH_CUTOFF = 2

    def plan(self, kind: str, query: Any) -> Plan:
        faultpoint("planner.plan")
        if kind == "xpath":
            return self._plan_xpath(query)
        if kind == "twig":
            return Plan(
                "twig",
                "binary",
                "exactly pruned streams: every partial match of the "
                "binary join plan extends to an answer",
            )
        if kind == "cq":
            return self._plan_cq(query)
        if kind == "datalog":
            return Plan("datalog", "minoux", "TMNF → Horn-SAT → Minoux pipeline")
        raise QueryError(f"unknown query kind {kind!r}")

    # -- per-kind rules ----------------------------------------------------

    def _plan_xpath(self, expr: Any) -> Plan:
        from repro.engine.strategies import _has_position

        if _has_position(expr):
            return Plan(
                "xpath",
                "denotational",
                "position() needs the memoized denotational evaluator",
            )
        return Plan(
            "xpath", "linear", "general query: O(|Q|·||A||) context-set evaluator"
        )

    def _plan_cq(self, query: Any) -> Plan:
        from repro.cq.acyclic import is_acyclic
        from repro.cq.treewidth import query_treewidth

        if is_acyclic(query):
            return Plan(
                "cq", "yannakakis", "acyclic query: Yannakakis is O(||A||·|Q|)"
            )
        width = query_treewidth(query)
        if width <= self.TREEWIDTH_CUTOFF:
            return Plan(
                "cq",
                "treewidth",
                f"cyclic query of tree-width {width}: Theorem 4.1 DP",
            )
        return Plan(
            "cq",
            "backtracking",
            f"tree-width {width} exceeds the DP cutoff; falling back "
            "to backtracking search",
        )

    # -- budget-fallback ranking ------------------------------------------

    def fallbacks(
        self, kind: str, query: Any, index: Any, chosen: Plan
    ) -> list[Plan]:
        """Every applicable strategy other than ``chosen``, registry order.

        The engine walks this list only after an attempt fails: when an
        attempt raises :class:`~repro.errors.ResourceBudgetExceeded` (or
        any error under ``on_error="fallback"``), it downgrades to the
        next entry (the registry lists each kind's routes in measured
        cost order, cheapest first) and records the abandoned strategy
        in ``ExecutionStats.fallback_from``.  A call whose first attempt
        succeeds never pays the applicability checks.
        """
        from repro.engine.strategies import strategies_for

        return [
            Plan(
                kind,
                definition.name,
                f"budget fallback after {chosen.strategy!r} (registry order)",
            )
            for definition in strategies_for(kind, query, index)
            if definition.name != chosen.strategy
        ]

    # -- explicit strategy requests ---------------------------------------

    def validate(self, kind: str, strategy: str, query: Any, index: Any) -> Plan:
        """A plan for an explicitly requested strategy (checked)."""
        faultpoint("planner.plan")
        definition = get_strategy(kind, strategy)
        if not definition.applicable(query, index):
            raise QueryError(
                f"strategy {strategy!r} is not applicable to this "
                f"{kind} query ({definition.summary})"
            )
        return Plan(kind, strategy, "explicitly requested")
