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

**Twig patterns**

1. Some referenced label absent from the document → ``binary`` (the
   first empty stream empties the plan immediately).
2. ≤ 2 pattern nodes → ``binary`` (a single structural join is optimal;
   holistic stacks only pay off on real twigs).
3. Path pattern (no branching) → ``pathstack``.
4. Otherwise → ``twigstack``.

**Conjunctive queries**

1. Acyclic → ``yannakakis`` (O(||A||·|Q|) for Boolean/unary heads).
2. Tree-width ≤ 2 → ``treewidth`` (Theorem 4.1's DP stays polynomial
   with a small exponent).
3. Otherwise → ``backtracking``.

**Datalog** — always ``minoux`` (the linear TMNF → Horn-SAT pipeline).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.errors import QueryError
from repro.faults import faultpoint, register_site
from repro.engine.strategies import get_strategy
from repro.obs.context import current as _obs_current

__all__ = ["Plan", "PlanCache", "Planner"]

register_site("planner.plan", "strategy selection for one query")
register_site("planner.cache", "compiled-plan cache lookup")


@dataclass(frozen=True)
class Plan:
    """A chosen strategy plus the reason it was chosen."""

    kind: str
    strategy: str
    reason: str


class PlanCache:
    """A bounded LRU of compiled plans, keyed by (kind, normalized query
    shape, document fingerprint).

    The shape key is ``str(parsed_query)`` — every parsed query kind
    renders canonically, and two queries with equal text have equal
    plans.  The fingerprint ties the entry to the document *contents*
    (via :attr:`DocumentIndex.fingerprint`), so a mutated-and-reindexed
    document misses rather than reusing a stale label-count decision.
    A stale hit under fingerprint collision is still *safe*: every
    applicability gate depends only on the query, so a cached plan can
    be suboptimal, never wrong.

    The cache is shared by every thread querying through one
    :class:`~repro.engine.database.Database`, so all LRU state — the
    ordered dict, the hit/miss/eviction counters — mutates under one
    lock.  ``move_to_end`` on a concurrently popped key, or two
    interleaved evictions, would otherwise corrupt the OrderedDict
    (pinned by ``tests/test_concurrency.py``).  Two threads missing the
    same key can still both plan and both store; the second store is an
    idempotent overwrite (plans for equal keys are equal), never a
    duplicate entry.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries", "_lock")

    def __init__(self, maxsize: int = 128):
        self.maxsize = max(0, int(maxsize))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[tuple, Plan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> "Plan | None":
        faultpoint("planner.cache")
        # counters go through the per-call Observation (merged into
        # global METRICS by the supervised path); the unobserved fast
        # path must never touch METRICS directly
        ctx = _obs_current()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            if ctx is not None:
                ctx.count("planner.cache_hits")
            return entry
        if ctx is not None:
            ctx.count("planner.cache_misses")
        return None

    def store(self, key: tuple, plan: Plan) -> None:
        if self.maxsize == 0:
            return
        ctx = _obs_current()
        evicted = 0
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if ctx is not None and evicted:
            ctx.count("planner.cache_evictions", evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class Planner:
    """Maps (kind, parsed query, index) to a :class:`Plan`."""

    #: tree-width cutoff for the bounded-tree-width CQ route
    TREEWIDTH_CUTOFF = 2

    #: default plan-cache capacity (0 disables caching)
    PLAN_CACHE_SIZE = 128

    def __init__(self, plan_cache_size: "int | None" = None):
        if plan_cache_size is None:
            plan_cache_size = self.PLAN_CACHE_SIZE
        self.cache = PlanCache(plan_cache_size)

    def plan(self, kind: str, query: Any, index: Any) -> Plan:
        faultpoint("planner.plan")
        fingerprint = getattr(index, "fingerprint", None)
        key = None
        if self.cache.maxsize and fingerprint is not None:
            key = (kind, str(query), fingerprint)
            cached = self.cache.lookup(key)
            if cached is not None:
                return cached
        plan = self._plan_uncached(kind, query, index)
        if key is not None:
            self.cache.store(key, plan)
        return plan

    def _plan_uncached(self, kind: str, query: Any, index: Any) -> Plan:
        if kind == "xpath":
            return self._plan_xpath(query, index)
        if kind == "twig":
            return self._plan_twig(query, index)
        if kind == "cq":
            return self._plan_cq(query, index)
        if kind == "datalog":
            return Plan("datalog", "minoux", "TMNF → Horn-SAT → Minoux pipeline")
        raise QueryError(f"unknown query kind {kind!r}")

    # -- per-kind rules ----------------------------------------------------

    def _plan_xpath(self, expr: Any, index: Any) -> Plan:
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

    def _plan_twig(self, pattern: Any, index: Any) -> Plan:
        labels = [n.label for n in pattern.nodes if n.label != "*"]
        if any(index.label_count(label) == 0 for label in labels):
            return Plan(
                "twig",
                "binary",
                "a pattern label is absent; the first empty stream "
                "empties the join plan",
            )
        # NOTE: this check must precede the path-pattern rule — every
        # ≤ 2-node pattern is also a path, so the old ordering made the
        # single-join rule unreachable (pinned by test_planner_reasons).
        if len(pattern) <= 2:
            return Plan(
                "twig", "binary", "≤ 2 pattern nodes: a single structural join"
            )
        if all(len(node.children) <= 1 for node in pattern.nodes):
            return Plan("twig", "pathstack", "path pattern: PathStack suffices")
        return Plan(
            "twig", "twigstack", "branching twig: holistic TwigStack bounds "
            "intermediate state by document depth"
        )

    def _plan_cq(self, query: Any, index: Any) -> Plan:
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
        next entry (the registry lists each kind's routes from
        cheap/specialized to general) and records the abandoned strategy
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
