"""Snapshot tests: the one planning rule, and the query shapes that
once had rules of their own.

An auto plan is the first route in its kind's registry list (kept in
measured cost order, cheapest first) whose applicability gate accepts
the query, and its reason names the cheaper routes whose gate refused
it.  The reasons surface in ``--stats`` output and in traces, so they
are user-facing contract: this module pins one reason snapshot per
kind, plus the two cases where a cheaper gate refuses — ``position()``
XPath and a cyclic CQ.  The other tests pin that shapes an earlier
planner rule singled out (absent, selective and unselective labels,
nested qualifiers, paths and branching twigs) plan the cheapest route
like any other query.  The fallback lists are pinned too: each kind
falls back in measured cost order.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.errors import AllStrategiesFailedError
from repro.faults import FaultPlan

# 10 nodes: b×4, c×3, a×2, d×1 (see tests/test_obs.py for the layout)
DOC = "<a><b><c/><b/></b><c><b/></c><a><b><c/></b></a><d/></a>"

# 4 nodes, b on 3 of them: the b-partition covers most of the document
DENSE_DOC = "<a><b/><b/><b/></a>"

CHEAPEST = "cheapest applicable route"

# a triangle over Child+/Child (tree-width 2) and K4 over Child+
# (tree-width 3): the old tree-width rules sent them to `treewidth` and
# `backtracking`, 2.6× to over 2,600× slower than `rewrite`
TRIANGLE = "ans(x) :- Child+(y, x), Child+(z, x), Child(y, z)"
K4 = (
    "ans(w) :- Child+(w, x), Child+(w, y), Child+(w, z), "
    "Child+(x, y), Child+(x, z), Child+(y, z)"
)


@pytest.fixture()
def db():
    return Database.from_xml(DOC)


# ---------------------------------------------------------------------------
# Core XPath
# ---------------------------------------------------------------------------


def test_xpath_rule_1_position_forces_denotational(db):
    # `linear` is cheaper but refuses position(); `denotational` is next
    plan = db.plan("xpath", "Child[lab() = b][position() = 1]")
    assert plan.strategy == "denotational"
    assert plan.reason == f"{CHEAPEST} (not applicable: linear)"


def test_xpath_rule_2a_absent_label_short_circuits(db):
    # an absent label needs no route of its own: `linear` joins the
    # empty posting array once and the empty frontier ends the path
    query = "Child+[lab() = zzz]/Child[lab() = b]"
    plan = db.plan("xpath", query)
    assert plan.strategy == "linear"
    assert plan.reason == CHEAPEST
    result = db.xpath(query, trace=True)
    assert result.answer == set()
    # {root} against the empty zzz-stream; the b-step never scans
    assert result.stats.counter("sj.elements_scanned") == 1


def test_xpath_rule_2b_selective_partitions(db):
    # 4 b-nodes of 10: selective labels plan `linear` too
    assert db.plan("xpath", "Child+[lab() = b]").strategy == "linear"


def test_xpath_rule_2_downward_with_nested_qualifiers(db):
    # `linear` seeds the qualifier sets from the label partition, so
    # nested qualifiers need no route of their own
    for query in (
        "Child+[lab() = a][Child[lab() = b]]",
        "Child+[lab() = a][not(Child[lab() = d])]/Child[lab() = b]",
    ):
        assert db.plan("xpath", query).strategy == "linear", query


def test_xpath_rule_2_general_fallback_linear(db):
    assert db.plan("xpath", "Following[lab() = b]").strategy == "linear"


def test_xpath_unselective_downward_falls_through_to_linear():
    db = Database.from_xml(DENSE_DOC)
    # the b-partition covers 3/4 of the document: still `linear`
    assert db.plan("xpath", "Child+[lab() = b]").strategy == "linear"


# ---------------------------------------------------------------------------
# twig patterns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "query",
    [
        "//zzz[b]//c",  # an absent label
        "//a//b",  # a single edge
        "//a//b//c",  # a path
        "//a[b]//c",  # a branching twig
        "/a/b",  # child edges from the document root
    ],
)
def test_twig_rule_every_pattern_plans_binary(db, query):
    plan = db.plan("twig", query)
    assert plan.strategy == "binary"
    assert plan.reason == CHEAPEST


# ---------------------------------------------------------------------------
# conjunctive queries
# ---------------------------------------------------------------------------


def test_cq_rule_1_acyclic_uses_yannakakis(db):
    plan = db.plan("cq", "ans(x) :- Child+(y, x), Lab:b(x)")
    assert plan.strategy == "yannakakis"
    assert plan.reason == CHEAPEST


@pytest.mark.parametrize("query", [TRIANGLE, K4], ids=["triangle", "k4"])
def test_cq_cyclic_plans_rewrite(db, query):
    plan = db.plan("cq", query)
    assert plan.strategy == "rewrite"
    assert plan.reason == f"{CHEAPEST} (not applicable: yannakakis)"


# ---------------------------------------------------------------------------
# datalog, explicit requests, planning without an index, fallbacks
# ---------------------------------------------------------------------------


def test_datalog_always_minoux(db):
    plan = db.plan("datalog", "Q(x) :- Lab:b(x).\n% query: Q")
    assert plan.strategy == "minoux"
    assert plan.reason == CHEAPEST


def test_explicit_request_reason(db):
    result = db.xpath("Child+[lab() = b]", "linear")
    assert result.stats.strategy == "linear"
    assert result.stats.reason == "explicitly requested"


@pytest.mark.parametrize(
    "kind, query",
    [
        ("xpath", "Child+[lab() = b]"),
        ("xpath", "Child[lab() = b][position() = 1]"),
        ("twig", "//a[b]//c"),
        ("cq", "ans(x) :- Child+(y, x), Lab:b(x)"),
        ("cq", TRIANGLE),
        ("datalog", "Q(x) :- Lab:b(x).\n% query: Q"),
    ],
)
def test_planning_builds_no_index(kind, query):
    # the gates read the query alone
    fresh = Database.from_xml(DOC)
    fresh.plan(kind, query)
    assert not fresh.has_index


def test_ranked_puts_plan_first_then_registry_order(db):
    """The engine's attempt order: the plan first, then every other
    applicable strategy in registry order, each with a fallback reason."""
    query = "Child+[lab() = b]"
    chosen = db.plan("xpath", query).strategy
    assert chosen == "linear"
    with FaultPlan([f"strategy.{chosen}:error@nth=1"]):
        result = db.xpath(query, on_error="fallback")
    assert result.stats.fallback_from == (chosen,)
    assert result.stats.strategy == db.strategies("xpath", query)[1]
    assert result.stats.reason == (
        f"budget fallback after {chosen!r} (registry order)"
    )


@pytest.mark.parametrize(
    "kind, query, expected",
    [
        # linear 0.7 ms, denotational 18, cq 42, automaton 107, datalog 923
        # on seed-0 xmark: the cheapest route is tried next
        (
            "xpath",
            "Child+[lab() = b]/Child[lab() = c]",
            ["denotational", "cq", "automaton", "datalog"],
        ),
        ("twig", "//a//b//c", ["pathstack", "twigstack", "yannakakis", "ac"]),
        ("twig", "//a[b]//c", ["twigstack", "yannakakis", "ac"]),
        (
            "cq",
            "ans(x) :- Child+(y, x), Lab:b(x)",
            ["rewrite", "backtracking", "treewidth"],
        ),
    ],
)
def test_fallbacks_follow_measured_cost(db, kind, query, expected):
    chosen = db.plan(kind, query).strategy
    with FaultPlan(["strategy.*:error@every=1"]):
        with pytest.raises(AllStrategiesFailedError) as exc_info:
            db.run(kind, query, on_error="fallback")
    tried = [attempt.strategy for attempt in exc_info.value.attempts]
    assert tried == [chosen] + expected
