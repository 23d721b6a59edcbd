"""Tests for the observability layer itself (repro.obs).

Three groups:

- unit tests of the primitives — Span/Tracer nesting and counter
  attribution, ResourceBudget limits, the metrics registry,
- exact-counter tests on a hand-built 10-node document, pinning the
  instrumentation points of the linear route and its structural
  semi-joins,
- disabled-path tests proving that without ``trace``/budget kwargs the
  engine allocates no tracer, no spans and touches no registry.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import Database
from repro.engine.strategies import STRATEGIES
from repro.errors import ResourceBudgetExceeded
from repro.obs import (
    METRICS,
    Observation,
    ResourceBudget,
    Span,
    Tracer,
    current,
    observed,
    render_pretty,
    trace_json,
    trace_to_dict,
)
from repro.trees.generate import random_tree

# 10 nodes; ids are pre-order positions:
#   0:a  1:b  2:c  3:b  4:c  5:b  6:a  7:b  8:c  9:d
# so the b-partition is [1, 3, 5, 7] and the c-partition [2, 4, 8].
DOC = "<a><b><c/><b/></b><c><b/></c><a><b><c/></b></a><d/></a>"
B_NODES = {1, 3, 5, 7}


# ---------------------------------------------------------------------------
# Tracer / Span primitives
# ---------------------------------------------------------------------------


def test_span_nesting_matches_call_structure():
    tracer = Tracer()
    with tracer.span("outer", tag="x"):
        with tracer.span("inner-1"):
            tracer.count("work", 2)
        with tracer.span("inner-2"):
            with tracer.span("leaf"):
                tracer.count("work", 3)
    root = tracer.root
    assert root.name == "outer"
    assert root.meta == {"tag": "x"}
    assert [c.name for c in root.children] == ["inner-1", "inner-2"]
    assert [c.name for c in root.children[1].children] == ["leaf"]
    # counters attach to the innermost open span, not the root
    assert root.find("inner-1").counters == {"work": 2}
    assert root.find("leaf").counters == {"work": 3}
    assert root.counters == {}
    assert root.total_counters() == {"work": 5}


def test_tracer_durations_are_monotone():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.root, tracer.root.children[0]
    assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s
    assert outer.duration_s >= inner.duration_s


def test_tracer_second_toplevel_span_reparented_under_root():
    tracer = Tracer()
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    assert tracer.root.name == "first"
    assert [c.name for c in tracer.root.children] == ["second"]


def test_tracer_end_unwinds_spans_abandoned_by_exceptions():
    tracer = Tracer()
    outer = tracer.start("outer")
    tracer.start("abandoned")  # never explicitly ended
    tracer.end(outer)
    assert tracer.current is None
    abandoned = tracer.root.children[0]
    assert abandoned.end_s == outer.end_s  # closed by the unwind


def test_span_find_is_preorder_first_match():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            tracer.count("hits", 1)
        with tracer.span("b"):
            tracer.count("hits", 7)
    assert tracer.root.find("b").counters == {"hits": 1}
    assert tracer.root.find("zzz") is None


def test_trace_export_roundtrip_and_pretty():
    tracer = Tracer()
    with tracer.span("query", q="test"):
        with tracer.span("step"):
            tracer.count("nodes.visited", 4)
    d = trace_to_dict(tracer.root)
    assert d["name"] == "query"
    assert d["meta"] == {"q": "test"}
    assert d["children"][0]["counters"] == {"nodes.visited": 4}
    parsed = json.loads(trace_json(tracer.root))
    assert parsed == d
    pretty = render_pretty(tracer.root)
    assert "query" in pretty and "step" in pretty
    assert "nodes.visited=4" in pretty


# ---------------------------------------------------------------------------
# ResourceBudget
# ---------------------------------------------------------------------------


def test_budget_max_visited_raises_with_details():
    budget = ResourceBudget(max_visited=10)
    budget.charge(10)  # exactly at the limit: fine
    assert budget.remaining_visits() == 0
    with pytest.raises(ResourceBudgetExceeded) as exc_info:
        budget.charge(1)
    err = exc_info.value
    assert err.reason == "max_visited"
    assert err.limit == 10
    assert err.spent == 11


def test_budget_deadline_uses_injected_clock():
    now = [0.0]
    budget = ResourceBudget(deadline_s=5.0, clock=lambda: now[0])
    budget.charge()
    now[0] = 4.9
    budget.charge()
    now[0] = 5.0
    with pytest.raises(ResourceBudgetExceeded) as exc_info:
        budget.charge()
    assert exc_info.value.reason == "deadline"
    assert exc_info.value.limit == 5.0


def test_budget_rejects_negative_limits():
    with pytest.raises(ValueError):
        ResourceBudget(deadline_s=-1.0)
    with pytest.raises(ValueError):
        ResourceBudget(max_visited=-1)


def test_budget_batched_overshoot_reports_pre_batch_plus_batch():
    # regression: a batched charge that crosses the ceiling must report
    # spent = pre-batch total + whole batch, and keep the accounting
    budget = ResourceBudget(max_visited=10)
    budget.charge(7)
    with pytest.raises(ResourceBudgetExceeded) as exc_info:
        budget.charge(100)
    assert exc_info.value.spent == 107
    assert budget.visited == 107
    # a subsequent charge keeps reporting consistently
    with pytest.raises(ResourceBudgetExceeded) as exc_info:
        budget.charge(3)
    assert exc_info.value.spent == 110


def test_budget_deadline_spent_is_elapsed_seconds():
    # regression: the deadline error used to report the *visit count*
    # as "spent" against a limit measured in seconds
    now = [100.0]
    budget = ResourceBudget(deadline_s=2.0, clock=lambda: now[0])
    budget.charge(500)
    now[0] = 103.5
    with pytest.raises(ResourceBudgetExceeded) as exc_info:
        budget.charge(500)
    assert exc_info.value.reason == "deadline"
    assert exc_info.value.limit == 2.0
    assert exc_info.value.spent == pytest.approx(3.5)


def test_budget_zero_deadline_fails_on_first_charge_deterministically():
    # regression: deadline_s=0 depended on the clock having advanced
    # between __init__ and the first charge — now it always fires, even
    # with a frozen clock
    frozen = lambda: 42.0  # noqa: E731
    for _ in range(50):
        budget = ResourceBudget(deadline_s=0, clock=frozen)
        with pytest.raises(ResourceBudgetExceeded) as exc_info:
            budget.charge()
        assert exc_info.value.reason == "deadline"


def test_budget_zero_deadline_through_the_engine():
    from repro.engine import Database

    db = Database.from_xml("<a><b/><c/></a>")
    with pytest.raises(ResourceBudgetExceeded):
        db.xpath("Child[lab() = b]", deadline=0.0)


def test_observation_tick_counts_and_charges():
    obs = Observation(budget=ResourceBudget(max_visited=5))
    with observed(obs):
        assert current() is obs
        current().tick(3)
        with pytest.raises(ResourceBudgetExceeded):
            current().tick(3)
    assert current() is None
    assert obs.counters["nodes.visited"] == 6  # counted before the raise


def test_observed_restores_previous_context_on_exception():
    obs = Observation()
    with pytest.raises(RuntimeError):
        with observed(obs):
            raise RuntimeError("boom")
    assert current() is None


# ---------------------------------------------------------------------------
# exact counters on the hand-built document
# ---------------------------------------------------------------------------


def test_structural_join_exact_counters():
    db = Database.from_xml(DOC)
    result = db.xpath("Child+[lab() = b]", trace=True)
    assert result.stats.strategy == "linear"
    assert set(result.answer) == B_NODES
    counters = result.stats.counters
    # the index was built inside this (first) observed call
    assert counters["index.builds"] == 1
    assert counters["index.nodes_indexed"] == 10
    assert counters["index.labels_indexed"] == 4  # a, b, c, d
    # one semi-join step: frontier {root} (1) + b-stream (4) scanned,
    # then 4 descendant targets ticked on output; _touch streamed the
    # b-partition (4) first → 4 + 5 + 4 visits
    assert counters["sj.elements_scanned"] == 5
    assert counters["linear.axis_applications"] == 1
    assert counters["nodes.visited"] == 13
    assert counters["strategy.executions"] == 1


def test_linear_exact_counters():
    db = Database.from_xml(DOC)
    db.xpath("Self")  # warm the index outside observation
    result = db.xpath("Child+[lab() = b]", "linear", trace=True)
    assert set(result.answer) == B_NODES
    counters = result.stats.counters
    assert counters["linear.axis_applications"] == 1
    assert counters["index.labels_touched"] == 1
    # the step is seeded from its qualifier set, the b-partition: one
    # descendant semi-join of {root} with the 4 b-nodes
    assert counters["sj.elements_scanned"] == 1 + 4
    # _touch streams the b-partition (4), the semi-join charges its
    # inputs, {root} and the 4 candidates (5), and its output, the 4
    # b-nodes below the root — never the root's 9 descendants
    assert counters["nodes.visited"] == 4 + 5 + 4
    assert "index.builds" not in counters  # index pre-built above


def test_trace_span_tree_shape():
    db = Database.from_xml(DOC)
    result = db.xpath("Child+[lab() = b]", trace=True)
    root = result.stats.trace
    assert root is not None
    assert root.name == "query:xpath"
    assert root.meta["query"] == "Child+[lab() = b]"
    names = [c.name for c in root.children]
    assert names == ["index-build", "plan", "execute:linear"]
    execute = root.children[2]
    assert [c.name for c in execute.children] == ["strategy:xpath:linear"]
    strategy = execute.children[0]
    # the semi-join step opens no span: its counters land on the strategy
    assert strategy.children == []
    assert strategy.counters["sj.elements_scanned"] == 5
    # per-span counters roll up to the stats totals
    totals = root.total_counters()
    assert totals == result.stats.counters
    assert result.stats.counter("linear.axis_applications") == 1


def test_every_registered_strategy_emits_a_span():
    """Acceptance: with tracing on, each registered strategy that runs
    emits at least one span (the strategy:<kind>:<name> wrapper)."""
    from repro.engine.strategies import STRATEGIES

    db = Database.from_xml(DOC)
    cases = [
        ("xpath", "Child+[lab() = b]"),
        ("xpath", "Child+[lab() = b]/Child[lab() = c][not(Child)]"),
        ("twig", "//a[b]//c"),
        ("twig", "//a//b//c"),
        ("cq", "ans(x) :- Child+(y, x), Child+(y, z), Child+(x, z), Lab:b(x)"),
        ("cq", "ans(x) :- Child+(y, x), Lab:b(x)"),
        ("datalog", "Q(x) :- Lab:b(x).\n% query: Q"),
    ]
    seen: set[tuple[str, str]] = set()
    for kind, query in cases:
        for name, result in db.cross_check(kind, query, trace=True).items():
            span = result.stats.trace.find(f"strategy:{kind}:{name}")
            assert span is not None, f"no span for {kind}:{name}"
            seen.add((kind, name))
    missing = {
        (kind, name)
        for kind, registry in STRATEGIES.items()
        for name in registry
    } - seen
    assert not missing, f"strategies never exercised with a span: {missing}"


# ---------------------------------------------------------------------------
# disabled path
# ---------------------------------------------------------------------------


def test_disabled_path_allocates_no_tracer_or_span(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("allocated on the disabled path")

    monkeypatch.setattr(Tracer, "__init__", forbidden)
    monkeypatch.setattr(Span, "__init__", forbidden)
    db = Database.from_xml(DOC)
    result = db.xpath("Child+[lab() = b]")
    assert set(result.answer) == B_NODES
    assert result.stats.trace is None
    assert result.stats.counters is None
    assert current() is None


def test_disabled_path_does_not_touch_metrics():
    db = Database.from_xml(DOC)
    METRICS.reset()
    db.xpath("Child+[lab() = b]")
    assert METRICS.queries_observed == 0
    assert METRICS.snapshot() == {}


def test_unobserved_call_folds_its_latency_once():
    """The latency histograms count every call, not only observed ones:
    a plain ``db.xpath(q)`` adds exactly one sample per histogram."""

    def count(name: str) -> int:
        hist = METRICS.duration(name)
        return hist.count if hist is not None else 0

    db = Database.from_xml(DOC)
    result = db.xpath("Child+[lab() = b]")  # warm: index and plan cache
    strategy = "strategy." + result.stats.strategy
    before = (count("query.xpath"), count(strategy))
    db.xpath("Child+[lab() = b]")
    assert (count("query.xpath"), count(strategy)) == (before[0] + 1, before[1] + 1)


def test_observed_calls_merge_into_metrics():
    db = Database.from_xml(DOC)
    METRICS.reset()
    try:
        db.xpath("Child+[lab() = b]", trace=True)
        db.xpath("Child+[lab() = b]", "linear", max_visited=10_000)
        assert METRICS.queries_observed == 2
        snap = METRICS.snapshot()
        assert snap["strategy.executions"] == 2
        assert snap["nodes.visited"] > 0
    finally:
        METRICS.reset()


# ---------------------------------------------------------------------------
# budget enforcement through the engine
# ---------------------------------------------------------------------------


def test_explicit_strategy_budget_propagates():
    db = Database.from_xml(DOC)
    with pytest.raises(ResourceBudgetExceeded):
        db.xpath("Child+[lab() = b]", "linear", max_visited=2)


def test_auto_budget_exhausting_all_strategies_reraises():
    db = Database.from_xml(DOC)
    # no route can answer this within 0 visits
    with pytest.raises(ResourceBudgetExceeded):
        db.xpath("Child+[lab() = b]", max_visited=0)


def test_generous_budget_changes_nothing():
    db = Database.from_xml(DOC)
    plain = db.xpath("Child+[lab() = b]")
    budgeted = db.xpath(
        "Child+[lab() = b]", deadline=60.0, max_visited=10_000_000
    )
    assert set(budgeted.answer) == set(plain.answer)
    assert budgeted.stats.strategy == plain.stats.strategy
    assert budgeted.stats.fallback_from == ()


# label-free queries per kind, so `_touch` charges nothing before a
# kernel runs; the position() query that only `denotational` takes and
# the acyclic CQ that `yannakakis` needs are keyed by strategy
LABEL_FREE = {
    "xpath": "Child+/Child",
    ("xpath", "denotational"): "Child+/Child[position() = 1]",
    "twig": "//*//*",
    "cq": "ans(x) :- Child+(y, x), Child+(z, x), Child(y, z)",
    ("cq", "yannakakis"): "ans(x) :- Child(x, y), Child(y, z)",
    "datalog": "Q(x) :- Child(x, y), Child(y, z).\n% query: Q",
}


class TestEveryStrategyCharges:
    """Every registered strategy, requested explicitly on a label-free
    query, stops under a zero deadline and a visit ceiling, and accounts
    at least the rows it answers."""

    CASES = [
        (kind, name, LABEL_FREE.get((kind, name), LABEL_FREE[kind]))
        for kind, by_name in STRATEGIES.items()
        for name in by_name
    ]

    @pytest.fixture(scope="class")
    def db(self):
        return Database(random_tree(2000, seed=7, alphabet=("a", "b", "c", "d")))

    @pytest.fixture(scope="class")
    def small_db(self):
        # small enough for `treewidth`'s |A|^(k+1) bag scans to finish
        return Database(random_tree(60, seed=7, alphabet=("a", "b", "c", "d")))

    @pytest.mark.parametrize("kind, strategy, query", CASES)
    def test_zero_deadline_raises(self, db, kind, strategy, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.run(kind, query, strategy, deadline=0)

    @pytest.mark.parametrize("kind, strategy, query", CASES)
    def test_visit_ceiling_raises(self, db, kind, strategy, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.run(kind, query, strategy, max_visited=50)

    @pytest.mark.parametrize("kind, strategy, query", CASES)
    def test_visits_cover_the_answer(self, small_db, kind, strategy, query):
        result = small_db.run(kind, query, strategy, trace=True)
        assert result.answer
        assert result.stats.counter("nodes.visited") >= len(result.answer)


# ---------------------------------------------------------------------------
# the CQ and datalog kernels charge the rows and clauses they build
# ---------------------------------------------------------------------------


def _wide_doc(n_children: int = 10_000, block: int = 100) -> str:
    """A root with ``n_children`` children, one ``hit`` per ``block``."""
    kids = ("<hit/>" if i % block == block // 2 else "<item/>"
            for i in range(n_children))
    return "<collection>" + "".join(kids) + "</collection>"


def _deep_doc(depth: int = 2_000, block: int = 100) -> str:
    """A ``depth``-level spine with a ``mark`` child every ``block`` levels."""
    out = ["<doc>"]
    for level in range(depth):
        out.append("<section><mark/>" if level % block == block // 2 else "<section>")
    out.append("</section>" * depth + "</doc>")
    return "".join(out)


def _counting(monkeypatch, module_name: str, attr: str, size) -> list:
    """Wrap a kernel entry point by module attribute; returns the list of
    result sizes it produced."""
    import importlib

    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    sizes: list = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sizes.append(size(result))
        return result

    monkeypatch.setattr(module, attr, wrapper)
    return sizes


def test_kernels_the_served_benchmark_wraps_exist():
    """``bench/layers.py`` wraps kernel entry points by module attribute
    for its traced run, which tier-1 never imports: read its
    ``_KERNELS`` table with ``ast`` and check that every (module,
    attribute) pair names a callable, and that ``materialize_atom``
    still returns a (schema, rows) pair."""
    import ast
    import importlib
    from pathlib import Path

    from repro.cq.yannakakis import materialize_atom
    from repro.datalog.syntax import Atom
    from repro.trees.structure import TreeStructure

    layers = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    table = next(
        node.value
        for node in ast.parse(layers.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "_KERNELS" for target in node.targets)
    )
    pairs = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert ("repro.cq.yannakakis", "materialize_atom") in pairs
    for module, attr in pairs:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    tree = random_tree(30, seed=1)
    schema, rows = materialize_atom(Atom("Child", ("x", "y")), TreeStructure(tree))
    assert schema == ("x", "y") and sorted(rows) == sorted(tree.child_pairs())


def test_yannakakis_visit_budget_stops_materialization():
    from repro.trees.generate import random_tree

    db = Database(random_tree(5_000, seed=0))
    with pytest.raises(ResourceBudgetExceeded):
        db.cq("ans(x) :- Child(x, y)", "yannakakis", max_visited=1000)


def test_yannakakis_reports_at_least_the_rows_it_materializes(monkeypatch):
    """A unary head builds no relation: it reports at least the rows its
    semi-joins are given.  A k-ary head reports at least the rows of the
    edge relations it builds."""
    from repro.storage import structural_join

    db = Database.from_xml(_wide_doc())
    db.cq("ans(y) :- Child(x, y), Lab:hit(y)", "yannakakis")  # warm the index
    scanned = []
    semijoin = structural_join.axis_semijoin

    def counting(tree, axis, sources, targets):
        scanned.append(len(sources or ()) + len(targets or ()))
        return semijoin(tree, axis, sources, targets)

    monkeypatch.setattr(structural_join, "axis_semijoin", counting)
    rows = _counting(monkeypatch, "repro.cq.yannakakis", "materialize_atom",
                     lambda r: len(r[1]))
    result = db.cq("ans(y) :- Child(x, y), Lab:hit(y)", "yannakakis", trace=True)
    assert len(result.answer) == 100 and not rows
    assert scanned and result.stats.counters["nodes.visited"] >= sum(scanned)
    result = db.cq("ans(x, y) :- Child(x, y), Lab:hit(y)", "yannakakis", trace=True)
    assert len(result.answer) == 100
    assert rows and result.stats.counters["nodes.visited"] >= sum(rows)


def test_ground_reports_at_least_the_clauses_it_emits(monkeypatch):
    db = Database.from_xml(_deep_doc())
    clauses = _counting(monkeypatch, "repro.datalog.evaluate", "ground", len)
    result = db.datalog(
        "Q(x) :- Child(x, y), Lab:mark(y).", "minoux", query_pred="Q", trace=True
    )
    assert len(result.answer) == 20
    assert clauses and result.stats.counters["nodes.visited"] >= sum(clauses)


@pytest.mark.parametrize("budget", [{"deadline": 0}, {"max_visited": 50}])
def test_naive_datalog_stops_within_one_candidate_loop(monkeypatch, budget):
    """``naive`` charges each candidate loop before it runs, so a budget
    stops the first rule match at its first loop (the ``Child`` pairs)
    before the second atom looks up one successor, instead of after
    the whole match."""
    from repro.trees.structure import TreeStructure

    db = Database(random_tree(2000, seed=7))
    db.index  # built outside the budget
    looked_up = []
    successors = TreeStructure.successors

    def counting(self, name, u):
        looked_up.append(u)
        return successors(self, name, u)

    monkeypatch.setattr(TreeStructure, "successors", counting)
    with pytest.raises(ResourceBudgetExceeded) as raised:
        db.datalog(LABEL_FREE["datalog"], "naive", **budget)
    assert looked_up == []
    if "max_visited" in budget:
        assert raised.value.spent <= 50 + db.tree.n


# ---------------------------------------------------------------------------
# duration histograms and the OpenMetrics exposition
# ---------------------------------------------------------------------------


def test_duration_histogram_single_observation_is_exact():
    from repro.obs import DurationHistogram

    hist = DurationHistogram()
    hist.observe(0.25)
    d = hist.to_dict()
    assert d["count"] == 1
    assert d["sum"] == pytest.approx(0.25)
    assert d["min"] == d["max"] == pytest.approx(0.25)
    assert d["p50"] == pytest.approx(0.25)


def test_duration_histogram_percentiles_are_monotone_and_bracketed():
    from repro.obs import DurationHistogram

    hist = DurationHistogram()
    for ms in range(1, 101):  # 1ms .. 100ms
        hist.observe(ms * 1e-3)
    p50, p90, p99 = (hist.percentile(q) for q in (0.5, 0.9, 0.99))
    assert hist.min <= p50 <= p90 <= p99 <= hist.max
    assert hist.mean == pytest.approx(0.0505, rel=1e-6)
    # bucket resolution is a factor of two: estimates stay within that
    assert 0.025 <= p50 <= 0.1
    assert 0.05 <= p90 <= 0.2


def test_duration_histogram_merge_matches_combined_stream():
    from repro.obs import DurationHistogram

    left, right, combined = (DurationHistogram() for _ in range(3))
    for t in (0.001, 0.004, 0.016):
        left.observe(t)
        combined.observe(t)
    for t in (0.002, 0.064):
        right.observe(t)
        combined.observe(t)
    left.merge(right)
    assert left.count == combined.count == 5
    assert left.sum == pytest.approx(combined.sum)
    assert left.buckets() == combined.buckets()
    assert left.percentile(0.9) == pytest.approx(combined.percentile(0.9))


def test_empty_histogram_is_all_zeros():
    from repro.obs import DurationHistogram

    hist = DurationHistogram()
    assert hist.percentile(0.5) == 0.0
    assert hist.mean == 0.0
    assert hist.to_dict()["count"] == 0
    assert hist.buckets() == []


def test_registry_duration_accessors():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    assert reg.total_seconds("nope") == 0.0 and reg.duration("nope") is None
    reg.observe_duration("query.xpath", 0.1)
    reg.observe_duration("query.xpath", 0.3)
    assert reg.total_seconds("query.xpath") == pytest.approx(0.4)
    assert reg.duration("query.xpath").count == 2
    assert list(reg.durations()) == ["query.xpath"]
    reg.reset()
    assert reg.durations() == {}


def test_observed_calls_fold_durations_per_strategy_and_span():
    db = Database.from_xml(DOC)
    METRICS.reset()
    try:
        result = db.xpath("Child+[lab() = b]", trace=True)
        strategy = result.stats.strategy
        assert METRICS.total_seconds("query.xpath") > 0.0
        assert METRICS.total_seconds(f"strategy.{strategy}") > 0.0
        # with a tracer attached, every span contributes its duration
        assert METRICS.duration("span.query:xpath").count == 1
        assert METRICS.duration("span.plan").count == 1
    finally:
        METRICS.reset()


def test_budget_only_calls_fold_query_duration_without_spans():
    db = Database.from_xml(DOC)
    METRICS.reset()
    try:
        db.xpath("Child+[lab() = b]", max_visited=10_000)
        assert METRICS.duration("query.xpath").count == 1
        assert not any(name.startswith("span.") for name in METRICS.durations())
    finally:
        METRICS.reset()


def test_render_openmetrics_exposition():
    from repro.obs import MetricsRegistry, render_openmetrics

    reg = MetricsRegistry()
    reg.merge({"sj.pairs": 4, 'odd"name': 2})
    reg.observe_duration("strategy.linear", 0.01)
    text = render_openmetrics(reg)
    assert text.endswith("# EOF\n")
    assert "repro_queries_observed_total 1" in text
    assert 'repro_counter_total{name="sj.pairs"} 4' in text
    assert 'repro_counter_total{name="odd\\"name"} 2' in text
    # native histogram family: cumulative buckets ending at +Inf
    assert "# TYPE repro_duration_seconds histogram" in text
    assert 'repro_duration_seconds_bucket{name="strategy.linear",le="+Inf"} 1' in text
    assert 'repro_duration_seconds_count{name="strategy.linear"} 1' in text
    assert 'repro_duration_seconds_sum{name="strategy.linear"} 0.01' in text
    # quantile estimates live in their own summary family (a histogram
    # family cannot carry quantile samples)
    assert 'repro_duration_quantiles{name="strategy.linear",quantile="0.5"}' in text
    # the exposition passes its own lint
    from repro.obs import lint_openmetrics

    assert lint_openmetrics(text) == []
