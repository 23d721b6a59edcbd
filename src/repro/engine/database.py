"""The unified front door: one document, one cached index, one query cache.

:class:`Database` wraps a :class:`~repro.trees.tree.Tree` and gives
every query language in the library a single entry point::

    from repro.engine import Database

    db = Database.from_xml("<a><b/><c/></a>")
    result = db.xpath("Child*[lab() = b]")       # cheapest applicable route
    result.answer                                 # {1}
    result.stats.strategy                         # e.g. "linear"
    result.stats.index_built                      # True on the first query
    db.xpath("Child*[lab() = b]").stats.index_built   # False: index reused

The :class:`~repro.engine.index.DocumentIndex` is built lazily on the
first query and reused by every subsequent one — that amortization is
the engine's hot path.  Edits go through the same facade
(:meth:`insert_leaf` etc.); they delegate to :mod:`repro.trees.edit`
and invalidate the cached index, so a stale index can never serve a
mutated document.  A query's parse and its auto plan read only the
query text, so the query cache keeps both across edits.

Every query entry point also accepts the observability/governance
keywords (docs/OBSERVABILITY.md)::

    db.xpath(q, trace=True)              # stats.trace = span tree
    db.xpath(q, deadline=0.05)           # 50 ms per evaluation attempt
    db.xpath(q, max_visited=10_000)      # node-visit ceiling per attempt

and the supervision keywords (docs/ROBUSTNESS.md)::

    db.xpath(q, retries=2)               # re-attempt TransientErrors
    db.xpath(q, on_error="fallback")     # failed strategy -> next one
    db.xpath(q, on_error="partial")      # never raise: degrade to empty

Budgeted auto-planned queries fall back to the next applicable strategy
when an attempt exceeds its budget; the abandoned strategies are listed
in ``stats.fallback_from``.  Under ``on_error="fallback"`` *any*
failing strategy is blacklisted for the call and the next applicable
one runs — the paper's redundancy of evaluation algorithms (Section 7)
turned into fault tolerance.  Every attempt (including retries) is
recorded in ``stats.attempts``, and injection sites tripped by an armed
:class:`repro.faults.FaultPlan` land in ``stats.faults``.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from functools import lru_cache
from typing import Any

from repro.errors import (
    AllStrategiesFailedError,
    ParseError,
    QueryError,
    ResourceBudgetExceeded,
    StorageError,
    TransientError,
)
from repro.faults import active_plan, faultpoint, register_site
from repro.obs.budget import ResourceBudget
from repro.obs.context import Observation, current, observed
from repro.obs.metrics import METRICS
from repro.obs.tracer import Tracer
from repro.trees.tree import Tree
from repro.engine.index import DocumentIndex
from repro.engine.stats import Attempt, ExecutionStats, Result
from repro.engine.strategies import (
    Plan,
    get_strategy,
    strategies_for,
    strategy_names,
)

__all__ = ["Database", "evaluate_document"]

register_site("query.parse", "concrete query syntax -> AST parsing")
register_site("planner.plan", "strategy selection for one query")

_NULL_CM = nullcontext()


class _Unobserved:
    """The null observation of a call nobody observes: spans and
    counters are no-ops, and it is never installed in the ContextVar,
    so kernels below it see only the context active before the call."""

    __slots__ = ()

    def span(self, name: str, **meta: Any):
        return _NULL_CM

    def count(self, name: str, n: int = 1) -> None:
        pass


_UNOBSERVED = _Unobserved()

#: degradation policies accepted by the ``on_error`` keyword
ON_ERROR_POLICIES = ("raise", "fallback", "partial")


class _Query:
    """One query cache entry: the parsed query and, once an auto-planned
    call has asked for it, its plan."""

    __slots__ = ("parsed", "plan")

    def __init__(self, parsed: Any):
        self.parsed = parsed
        self.plan: "Plan | None" = None


class Database:
    """A queryable document: Tree + cached DocumentIndex + query cache."""

    #: default query-cache capacity (0 disables caching)
    PLAN_CACHE_SIZE = 128

    def __init__(self, tree: Tree, plan_cache: "int | None" = None):
        self._tree = tree
        self._index: "DocumentIndex | None" = None
        # guards lazy index construction only: queries are safe to run
        # from many threads against one Database (the service does), but
        # *edits* are not — they swap the tree and drop the index, and
        # must not race in-flight queries (see docs/SERVICE.md)
        self._index_lock = threading.Lock()
        # parsed queries and their auto plans by (kind, text, query
        # predicate): a bounded LRU, so the distinct texts a served store
        # has seen cannot grow it (plan_cache=0 parses and plans each call)
        if plan_cache is None:
            plan_cache = self.PLAN_CACHE_SIZE
        size = max(0, int(plan_cache))
        self._queries = lru_cache(size)(lambda *key: _Query(_parse_query(*key)))
        # engine calls answered; callers read their own Result.stats,
        # so no per-call record outlives its call
        self._queries_served = 0
        self._served_lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_xml(
        cls,
        text: str,
        attributes_as_labels: bool = False,
        recover: bool = False,
        plan_cache: "int | None" = None,
    ) -> "Database":
        from repro.trees.xmlio import parse_xml

        return cls(
            parse_xml(
                text, attributes_as_labels=attributes_as_labels, recover=recover
            ),
            plan_cache=plan_cache,
        )

    @classmethod
    def from_file(
        cls,
        path: str,
        attributes_as_labels: bool = False,
        recover: bool = False,
        plan_cache: "int | None" = None,
    ) -> "Database":
        """Load an ``.xml`` document or an ``.rtre`` binary store.

        I/O failures never escape raw: a missing or unreadable file is a
        :class:`~repro.errors.StorageError` and an undecodable one a
        :class:`~repro.errors.ParseError`, both naming the path.  The
        text read is a ``disk.read`` fault-injection site.
        """
        if path.endswith(".rtre"):
            from repro.storage.diskstore import load_tree

            return cls(load_tree(path), plan_cache=plan_cache)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"document {path!r} is not valid UTF-8: {exc}") from exc
        except OSError as exc:
            raise StorageError(f"cannot read document {path!r}: {exc}") from exc
        text = faultpoint("disk.read", text, mutator=_truncate_text)
        return cls.from_xml(
            text, attributes_as_labels, recover=recover, plan_cache=plan_cache
        )

    # -- document and index access ----------------------------------------

    @property
    def tree(self) -> Tree:
        return self._tree

    @property
    def index(self) -> DocumentIndex:
        """The document index, built on first access and then cached.

        Double-checked locking keeps the construction single: with many
        threads racing the first query, exactly one builds the index and
        the rest block briefly, instead of every thread paying the
        (linear, but large-document-sized) build.
        """
        index = self._index
        if index is None:
            with self._index_lock:
                index = self._index
                if index is None:
                    index = DocumentIndex(self._tree)
                    self._index = index
        return index

    @property
    def queries_served(self) -> int:
        """How many engine calls this Database has completed."""
        return self._queries_served

    @property
    def has_index(self) -> bool:
        """Whether the index is currently materialized (no side effects)."""
        return self._index is not None

    @property
    def plan_cache(self):
        """Hits, misses, ``maxsize`` and ``currsize`` of the query cache
        (a :func:`functools.lru_cache` ``CacheInfo``)."""
        return self._queries.cache_info()

    # -- query entry points ------------------------------------------------

    def xpath(
        self,
        query: "str | Any",
        strategy: str = "auto",
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """Evaluate a Core XPath query against the document root.

        ``trace`` records a span tree in ``result.stats.trace``;
        ``deadline`` (seconds) and ``max_visited`` (node-visit ceiling)
        bound each evaluation attempt, raising
        :class:`~repro.errors.ResourceBudgetExceeded` — unless the
        strategy is ``"auto"``, in which case the call falls back to the
        next applicable one and records the downgrade in
        ``stats.fallback_from``.  ``retries`` re-attempts
        :class:`~repro.errors.TransientError` failures; ``on_error``
        picks the degradation policy (see the module docstring)."""
        return self._execute(
            "xpath", query, strategy,
            trace=trace, deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )

    def twig(
        self,
        query: "str | Any",
        strategy: str = "auto",
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """Match a twig pattern; answers are tuples over pattern nodes."""
        return self._execute(
            "twig", query, strategy,
            trace=trace, deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )

    def cq(
        self,
        query: "str | Any",
        strategy: str = "auto",
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """Evaluate a conjunctive query; answers are head tuples."""
        return self._execute(
            "cq", query, strategy,
            trace=trace, deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )

    def datalog(
        self,
        program: "str | Any",
        strategy: str = "auto",
        query_pred: "str | None" = None,
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """Evaluate a monadic datalog program's query predicate."""
        return self._execute(
            "datalog", program, strategy, query_pred=query_pred,
            trace=trace, deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )

    def run(
        self,
        kind: str,
        query: "str | Any",
        strategy: str = "auto",
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """Generic entry point: ``kind`` in xpath/twig/cq/datalog.

        Accepts either concrete syntax or an already-parsed query
        object, so callers that parse up front (the CLI, the test
        harness) share the same execution path."""
        return self._execute(
            kind, query, strategy,
            trace=trace, deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )

    def query(
        self,
        text: str,
        strategy: str = "auto",
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """Dispatch on concrete syntax: ``:-`` → CQ, a leading ``/`` →
        twig, otherwise Core XPath."""
        kind = "xpath"
        if ":-" in text:
            kind = "cq"
        elif text.lstrip().startswith(("/", ".")):
            kind = "twig"
        return self._execute(
            kind, text, strategy,
            trace=trace, deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )

    # -- strategy introspection -------------------------------------------

    def strategies(self, kind: str, query: "str | Any") -> list[str]:
        """Names of the registered strategies applicable to this query."""
        parsed = self._compiled(kind, query).parsed
        return [s.name for s in strategies_for(kind, parsed, self.index)]

    def plan(self, kind: str, query: "str | Any") -> Plan:
        """The auto plan of this query, without executing it: the first
        route in the kind's registry list whose applicability gate
        accepts the query.  The gates read the query alone, so planning
        builds no index."""
        return self._auto_plan(kind, self._compiled(kind, query))

    def cross_check(
        self,
        kind: str,
        query: "str | Any",
        strategies: "list[str] | None" = None,
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> dict[str, Result]:
        """Run the query under every applicable (or the given) strategy.

        Returns strategy name → Result; the differential test harness
        and the CLI's ``--engine all`` both build on this.  Budgets are
        enforced per strategy (each gets a fresh window), so a single
        expensive strategy exceeding ``max_visited`` fails only its own
        entry.
        """
        names = strategies if strategies is not None else self.strategies(kind, query)
        return {
            name: self._execute(
                kind, query, name,
                trace=trace, deadline=deadline, max_visited=max_visited,
                retries=retries, on_error=on_error,
            )
            for name in names
        }

    # -- edits (delegate to repro.trees.edit, invalidate the index) --------

    def insert_leaf(self, parent: int, position: int, label: str) -> "Database":
        from repro.trees.edit import insert_leaf

        return self._replace(insert_leaf(self._tree, parent, position, label))

    def insert_subtree(self, parent: int, position: int, sub: Tree) -> "Database":
        from repro.trees.edit import insert_subtree

        return self._replace(insert_subtree(self._tree, parent, position, sub))

    def delete_subtree(self, node: int) -> "Database":
        from repro.trees.edit import delete_subtree

        return self._replace(delete_subtree(self._tree, node))

    def relabel(self, node: int, label: str, keep_extra: bool = True) -> "Database":
        from repro.trees.edit import relabel

        return self._replace(relabel(self._tree, node, label, keep_extra))

    def splice(self, node: int) -> "Database":
        from repro.trees.edit import splice

        return self._replace(splice(self._tree, node))

    def _replace(self, tree: Tree) -> "Database":
        """Swap in an edited tree and drop the now-stale index (the query
        cache stays: no entry reads the document)."""
        self._tree = tree
        self._index = None
        return self

    # -- internals ---------------------------------------------------------

    def _compiled(
        self, kind: str, query: Any, query_pred: "str | None" = None
    ) -> _Query:
        """The cached entry of a query text; an already-parsed query gets
        a fresh, uncached one."""
        if not isinstance(query, str):
            return _Query(query)
        return self._queries(kind, query, query_pred)

    def _auto_plan(self, kind: str, entry: _Query) -> Plan:
        """The cheapest applicable route of a query entry, planned once
        per entry (two racing threads may both plan; the plans are
        equal).  The reason names the cheaper routes that refused it."""
        plan = entry.plan
        if plan is None:
            faultpoint("planner.plan")
            # every kind registers a route that accepts any query
            refused = []
            for name in strategy_names(kind):
                if get_strategy(kind, name).applicable(entry.parsed, None):
                    break
                refused.append(name)
            reason = "cheapest applicable route"
            if refused:
                reason += f" (not applicable: {', '.join(refused)})"
            plan = entry.plan = Plan(kind, name, reason)
        return plan

    @staticmethod
    def _explicit_plan(kind: str, strategy: str, parsed: Any) -> Plan:
        """The plan of an explicitly requested strategy, checked against
        its applicability gate."""
        faultpoint("planner.plan")
        definition = get_strategy(kind, strategy)
        if not definition.applicable(parsed, None):
            raise QueryError(
                f"strategy {strategy!r} is not applicable to this "
                f"{kind} query ({definition.summary})"
            )
        return Plan(kind, strategy, "explicitly requested")

    def _execute(
        self,
        kind: str,
        query: Any,
        strategy: str,
        query_pred: "str | None" = None,
        trace: bool = False,
        deadline: "float | None" = None,
        max_visited: "int | None" = None,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Result:
        """The one execution path: parse, index, plan, run, account.

        A call that asks for tracing, a budget, retries or a degradation
        policy — or runs inside a request whose sampler records spans —
        is *observed*: it installs an :class:`Observation` (spans,
        counters, budgets) and merges its counters into ``METRICS``.
        Any other call runs under a null observation whose spans and
        counters are no-ops and which is never installed, so the only
        instrumentation cost below is a None check.  Every call folds
        its wall time into the ``query.<kind>`` and
        ``strategy.<name>`` histograms.

        Per attempt, in order of authority (docs/ROBUSTNESS.md):

        - :class:`TransientError` → re-attempt the same stage up to
          ``retries`` times, then treat as a hard failure.
        - :class:`ResourceBudgetExceeded` → auto-planned strategies
          fall back to the next applicable one (fresh budget); an
          explicit strategy, or the last one, propagates under
          ``"raise"`` and is a hard failure otherwise.
        - any other failure → under ``"raise"`` it propagates; under
          ``"fallback"``/``"partial"`` the next applicable strategy runs.

        The fallback list is computed only after a first failure.
        Exhausting every strategy raises
        :class:`~repro.errors.AllStrategiesFailedError` (carrying the
        attempt chain) under ``"fallback"``, or degrades to an empty
        answer with ``stats.degraded=True`` under ``"partial"``.
        :class:`~repro.errors.QueryError` (a malformed request, an
        inapplicable explicit strategy) always propagates — no policy
        can repair a caller error.
        """
        if on_error not in ON_ERROR_POLICIES:
            raise QueryError(
                f"unknown on_error policy {on_error!r}; options: "
                + ", ".join(ON_ERROR_POLICIES)
            )
        if retries < 0:
            raise QueryError("retries must be >= 0")
        text = query if isinstance(query, str) else str(query)
        # the ambient tracing gate: one ContextVar read + an attribute
        # check (pinned near-zero by benchmarks/bench_tracing.py).  A
        # request whose sampler decided to record spans carries a tracer
        # on the active Observation; this call's spans then nest under
        # the open request root instead of starting a disconnected tree
        ambient = current()
        trace_id = ambient.trace_id if ambient is not None else None
        if ambient is not None and ambient.tracer is not None:
            obs = Observation(tracer=ambient.tracer, trace_id=trace_id)
        elif (
            trace
            or deadline is not None
            or max_visited is not None
            or retries
            or on_error != "raise"
        ):
            obs = Observation(tracer=Tracer() if trace else None, trace_id=trace_id)
        else:
            obs = _UNOBSERVED
        plan_active = active_plan()
        trips_before = len(plan_active.trips) if plan_active is not None else 0
        may_fall_back = strategy in ("auto", None)
        attempts: list[Attempt] = []
        causes: list[BaseException] = []
        fallback_from: list[str] = []
        answer: Any = None
        plan: "Plan | None" = None
        index: "DocumentIndex | None" = None
        built_here = False
        hits_before = streamed_before = 0

        def failed(stage: str, exc: BaseException, elapsed: float = 0.0) -> bool:
            """Record a failed attempt; True when a retry is allowed."""
            transient = isinstance(exc, TransientError)
            attempts.append(
                Attempt(
                    stage,
                    "transient" if transient else "error",
                    f"{type(exc).__name__}: {exc}",
                    elapsed,
                    trace_id=trace_id,
                )
            )
            causes.append(exc)
            obs.count("engine.attempt_errors")
            if transient:
                obs.count("engine.transients")
            return transient

        start = time.perf_counter()
        with observed(obs) if obs is not _UNOBSERVED else _NULL_CM:
            with obs.span("query:" + kind, query=text) as qspan:
                # ---- setup: parse, index, plan (transients retryable) ----
                tries = 0
                while True:
                    try:
                        entry = self._compiled(kind, query, query_pred)
                        parsed = entry.parsed
                        built_here = self._index is None
                        if built_here:
                            with obs.span("index-build"):
                                index = self.index
                            obs.count("index.builds")
                        else:
                            index = self.index
                        hits_before = index.hits
                        streamed_before = index.nodes_streamed
                        with obs.span("plan"):
                            if may_fall_back:
                                plan = self._auto_plan(kind, entry)
                            else:
                                plan = self._explicit_plan(kind, strategy, parsed)
                        break
                    except QueryError:
                        raise  # caller error: no policy can repair it
                    except Exception as exc:
                        if failed("(setup)", exc) and tries < retries:
                            tries += 1
                            obs.count("engine.retries")
                            continue
                        if on_error == "raise":
                            raise
                        plan = None
                        break

                # ---- attempts: retry transients, then fall back ----
                fallbacks: "list[Plan] | None" = None
                while plan is not None:
                    tries = 0
                    while True:
                        if deadline is not None or max_visited is not None:
                            obs.budget = ResourceBudget(deadline, max_visited)
                        attempt_start = time.perf_counter()
                        try:
                            with obs.span(
                                "execute:" + plan.strategy, reason=plan.reason
                            ):
                                answer = get_strategy(kind, plan.strategy).execute(
                                    parsed, index
                                )
                            ok = True
                            break
                        except ResourceBudgetExceeded as exc:
                            obs.count("budget.exceeded")
                            attempts.append(
                                Attempt(
                                    plan.strategy, "budget", str(exc),
                                    time.perf_counter() - attempt_start,
                                    trace_id=trace_id,
                                )
                            )
                            causes.append(exc)
                            if fallbacks is None:
                                fallbacks = self._fallbacks(
                                    may_fall_back, kind, parsed, index, plan
                                )
                            if not fallbacks and on_error == "raise":
                                raise
                            ok = False
                            break
                        except QueryError:
                            raise
                        except Exception as exc:
                            elapsed = time.perf_counter() - attempt_start
                            if failed(plan.strategy, exc, elapsed) and tries < retries:
                                tries += 1
                                obs.count("engine.retries")
                                continue  # same strategy again
                            if on_error == "raise":
                                raise
                            obs.count("engine.blacklisted")
                            ok = False
                            break
                    if ok:
                        attempts.append(
                            Attempt(
                                plan.strategy, "ok", None,
                                time.perf_counter() - attempt_start,
                                trace_id=trace_id,
                            )
                        )
                        break
                    if fallbacks is None:
                        fallbacks = self._fallbacks(
                            may_fall_back, kind, parsed, index, plan
                        )
                    if attempts[-1].outcome == "budget":
                        if not fallbacks:
                            plan = None
                            break
                        obs.count("budget.fallbacks")
                    fallback_from.append(plan.strategy)
                    plan = fallbacks.pop(0) if fallbacks else None

                degraded = plan is None
                if degraded:
                    # every attempt failed under a non-raising policy
                    if on_error == "fallback":
                        raise AllStrategiesFailedError(
                            kind, text, tuple(attempts), tuple(causes)
                        )
                    obs.count("engine.degraded")
                    answer = set()
                    plan = Plan(
                        kind,
                        "(degraded)",
                        "every strategy failed; on_error='partial' "
                        "degraded to an empty answer",
                    )

        elapsed = time.perf_counter() - start
        counters = None
        if obs is not _UNOBSERVED:
            obs.budget = None
            METRICS.merge(obs.counters)
            counters = dict(obs.counters)
            # fold this call's own span subtree (``qspan``), not
            # ``tracer.root``: with an inherited tracer the root is the
            # still-open request span — folding it would double-count
            # spans of earlier calls in the same request (e.g. a batch)
            if qspan is not None:
                for span in qspan.iter_spans():
                    METRICS.observe_duration("span." + span.name, span.duration_s)
        # wall time, not just counts: cumulative per-kind and
        # per-strategy latency stays queryable after the call is gone
        METRICS.observe_duration("query." + kind, elapsed)
        METRICS.observe_duration("strategy." + plan.strategy, elapsed)
        stats = ExecutionStats(
            kind=kind,
            query=text,
            strategy=plan.strategy,
            reason=plan.reason,
            elapsed_s=elapsed,
            answer_size=len(answer),
            index_built=built_here,
            index_hits=(index.hits - hits_before) if index is not None else 0,
            nodes_streamed=(
                (index.nodes_streamed - streamed_before) if index is not None else 0
            ),
            counters=counters,
            trace=qspan,
            fallback_from=tuple(fallback_from),
            attempts=tuple(attempts),
            faults=_tripped_since(plan_active, trips_before),
            degraded=degraded,
            trace_id=trace_id,
        )
        with self._served_lock:
            self._queries_served += 1
        return Result(answer, stats)

    @staticmethod
    def _fallbacks(
        may_fall_back: bool, kind: str, parsed: Any, index: Any, plan: Plan
    ) -> "list[Plan]":
        """The strategies a failed attempt of an auto-planned call falls
        back to: every other applicable one, in registry (measured cost)
        order.  Computed only after a first failure, so a call whose
        first attempt succeeds never pays the other gates."""
        if not may_fall_back:
            return []
        return [
            Plan(
                kind,
                definition.name,
                f"budget fallback after {plan.strategy!r} (registry order)",
            )
            for definition in strategies_for(kind, parsed, index)
            if definition.name != plan.strategy
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "indexed" if self._index is not None else "no index"
        return f"Database(n={self._tree.n}, {state}, {self._queries_served} queries)"


def evaluate_document(
    path: str,
    kind: str,
    query: str,
    *,
    query_pred: "str | None" = None,
    retries: int = 0,
    on_error: str = "raise",
    deadline: "float | None" = None,
    max_visited: "int | None" = None,
    attributes_as_labels: bool = False,
) -> Result:
    """Load one document and evaluate one query against it.

    This is the per-document unit of work the corpus layer
    (:mod:`repro.corpus`) fans out to worker processes: answers over
    disjoint trees are independent, so each call is self-contained —
    fresh :class:`Database`, no shared caches — and safe to retry on a
    different process after a crash.  ``kind`` is xpath/twig/cq/datalog;
    ``query_pred`` selects the datalog query predicate.  All supervisor
    knobs (``retries``/``on_error``) and budgets pass straight through
    to :meth:`Database.run`.
    """
    db = Database.from_file(path, attributes_as_labels=attributes_as_labels)
    if kind == "datalog":
        return db.datalog(
            query, query_pred=query_pred,
            deadline=deadline, max_visited=max_visited,
            retries=retries, on_error=on_error,
        )
    return db.run(
        kind, query,
        deadline=deadline, max_visited=max_visited,
        retries=retries, on_error=on_error,
    )


def _parse_query(kind: str, query: str, query_pred: "str | None") -> Any:
    """Concrete query syntax -> the query kind's AST (a ``query.parse``
    fault-injection site; ``Database`` caches the results)."""
    faultpoint("query.parse")
    if kind == "xpath":
        from repro.xpath.parser import parse_xpath

        return parse_xpath(query)
    if kind == "twig":
        from repro.twigjoin.pattern import parse_twig

        return parse_twig(query)
    if kind == "cq":
        from repro.cq.query import parse_cq

        return parse_cq(query)
    if kind == "datalog":
        from repro.datalog.parser import parse_program

        return parse_program(query, query_pred=query_pred)
    raise QueryError(f"unknown query kind {kind!r}")


def _truncate_text(text: str, rng) -> str:
    """Corruption mutator for the ``disk.read`` site on ``.xml`` reads."""
    if len(text) < 2:
        return ""
    return text[: rng.randrange(1, len(text))]


def _tripped_since(plan, trips_before: int) -> tuple[str, ...]:
    """Distinct sites tripped by ``plan`` after ``trips_before``."""
    if plan is None or len(plan.trips) <= trips_before:
        return ()
    seen: dict[str, None] = {}
    for trip in plan.trips[trips_before:]:
        seen.setdefault(trip.site, None)
    return tuple(seen)
