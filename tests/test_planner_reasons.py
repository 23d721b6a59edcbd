"""Snapshot tests: every documented planner heuristic branch.

The planner's docstring enumerates its rules; this module exercises
each branch with a query built to hit exactly that rule and pins both
the chosen strategy and the *reason string* (the reasons surface in
``--stats`` output and in traces, so they are user-facing contract).

Twigs have one rule: every pattern, whatever its labels or shape,
plans ``binary`` over the index's exactly pruned streams.  The
fallback lists are pinned too: each kind falls back in measured cost
order.
"""

from __future__ import annotations

import pytest

from repro.engine import Database

# 10 nodes: b×4, c×3, a×2, d×1 (see tests/test_obs.py for the layout)
DOC = "<a><b><c/><b/></b><c><b/></c><a><b><c/></b></a><d/></a>"

# 4 nodes, b on 3 of them: the b-partition covers most of the document
DENSE_DOC = "<a><b/><b/><b/></a>"


@pytest.fixture()
def db():
    return Database.from_xml(DOC)


# ---------------------------------------------------------------------------
# Core XPath branches
# ---------------------------------------------------------------------------


def test_xpath_rule_1_position_forces_denotational(db):
    plan = db.plan("xpath", "Child[lab() = b][position() = 1]")
    assert plan.strategy == "denotational"
    assert plan.reason == (
        "position() needs the memoized denotational evaluator"
    )


def test_xpath_rule_2a_absent_label_short_circuits(db):
    # an absent label needs no route of its own: `linear` joins the
    # empty posting array once and the empty frontier ends the path
    query = "Child+[lab() = zzz]/Child[lab() = b]"
    plan = db.plan("xpath", query)
    assert plan.strategy == "linear"
    assert plan.reason == (
        "general query: O(|Q|·||A||) context-set evaluator"
    )
    result = db.xpath(query, trace=True)
    assert result.answer == set()
    # {root} against the empty zzz-stream; the b-step never scans
    assert result.stats.counter("sj.elements_scanned") == 1


def test_xpath_rule_2b_selective_partitions(db):
    # 4 b-nodes of 10: selective labels plan `linear` too
    plan = db.plan("xpath", "Child+[lab() = b]")
    assert plan.strategy == "linear"
    assert plan.reason == (
        "general query: O(|Q|·||A||) context-set evaluator"
    )


def test_xpath_rule_2_downward_with_nested_qualifiers(db):
    # no rule picks `automaton`: linear seeds the qualifier sets from
    # the label partition, so nested qualifiers need no route of their own
    for query in (
        "Child+[lab() = a][Child[lab() = b]]",
        "Child+[lab() = a][not(Child[lab() = d])]/Child[lab() = b]",
    ):
        plan = db.plan("xpath", query)
        assert plan.strategy == "linear", query
        assert plan.reason == (
            "general query: O(|Q|·||A||) context-set evaluator"
        )


def test_xpath_rule_2_general_fallback_linear(db):
    plan = db.plan("xpath", "Following[lab() = b]")
    assert plan.strategy == "linear"
    assert plan.reason == (
        "general query: O(|Q|·||A||) context-set evaluator"
    )


def test_xpath_unselective_downward_falls_through_to_linear():
    db = Database.from_xml(DENSE_DOC)
    # the b-partition covers 3/4 of the document: still `linear`
    plan = db.plan("xpath", "Child+[lab() = b]")
    assert plan.strategy == "linear"
    assert plan.reason == (
        "general query: O(|Q|·||A||) context-set evaluator"
    )


# ---------------------------------------------------------------------------
# twig branches
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
    assert plan.reason == (
        "exactly pruned streams: every partial match of the "
        "binary join plan extends to an answer"
    )


# ---------------------------------------------------------------------------
# CQ branches
# ---------------------------------------------------------------------------


def test_cq_rule_1_acyclic_uses_yannakakis(db):
    plan = db.plan("cq", "ans(x) :- Child+(y, x), Lab:b(x)")
    assert plan.strategy == "yannakakis"
    assert plan.reason == "acyclic query: Yannakakis is O(||A||·|Q|)"


def test_cq_rule_2_treewidth_2_uses_dp(db):
    # a triangle over Child+ is cyclic with tree-width exactly 2
    plan = db.plan(
        "cq", "ans(x) :- Child+(x, y), Child+(y, z), Child+(x, z)"
    )
    assert plan.strategy == "treewidth"
    assert plan.reason == "cyclic query of tree-width 2: Theorem 4.1 DP"


def test_cq_rule_3_high_treewidth_backtracks(db):
    # K4 over Child+ has tree-width 3, above the DP cutoff
    plan = db.plan(
        "cq",
        "ans(w) :- Child+(w, x), Child+(w, y), Child+(w, z), "
        "Child+(x, y), Child+(x, z), Child+(y, z)",
    )
    assert plan.strategy == "backtracking"
    assert plan.reason == (
        "tree-width 3 exceeds the DP cutoff; falling back "
        "to backtracking search"
    )


# ---------------------------------------------------------------------------
# datalog, explicit requests, and the fallback ranking
# ---------------------------------------------------------------------------


def test_datalog_always_minoux(db):
    plan = db.plan("datalog", "Q(x) :- Lab:b(x).\n% query: Q")
    assert plan.strategy == "minoux"
    assert plan.reason == "TMNF → Horn-SAT → Minoux pipeline"


def test_explicit_request_reason(db):
    result = db.xpath("Child+[lab() = b]", "linear")
    assert result.stats.strategy == "linear"
    assert result.stats.reason == "explicitly requested"


def test_ranked_puts_plan_first_then_registry_order(db):
    """The engine's attempt order: the plan first, then
    `Planner.fallbacks` in registry order."""
    from repro.engine.strategies import strategies_for
    from repro.xpath.parser import parse_xpath

    expr = parse_xpath("Child+[lab() = b]")
    index = db.index
    planner = db._planner
    chosen = planner.plan("xpath", expr)
    assert chosen.strategy == "linear"
    fallbacks = planner.fallbacks("xpath", expr, index, chosen)
    expected_rest = [
        s.name
        for s in strategies_for("xpath", expr, index)
        if s.name != chosen.strategy
    ]
    assert [p.strategy for p in fallbacks] == expected_rest
    for p in fallbacks:
        assert p.reason == (
            f"budget fallback after {chosen.strategy!r} (registry order)"
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
    from repro.cq.query import parse_cq
    from repro.twigjoin.pattern import parse_twig
    from repro.xpath.parser import parse_xpath

    parse = {"xpath": parse_xpath, "twig": parse_twig, "cq": parse_cq}[kind]
    chosen = db.plan(kind, query)
    fallbacks = db._planner.fallbacks(kind, parse(query), db.index, chosen)
    assert [p.strategy for p in fallbacks] == expected
