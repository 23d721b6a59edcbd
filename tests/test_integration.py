"""Cross-subsystem integration tests.

The paper's Figure 7 draws translation arrows between query languages;
these tests execute those arrows on shared workloads and check that
every route computes the same answers:

- Core XPath → {denotational, linear context-set, monadic datalog}
- conjunctive Core XPath → CQ → {Yannakakis, arc-consistency
  enumeration, Theorem 5.1 rewriting, bounded tree-width}
- twig patterns → {TwigStack, binary joins, AC, CQ backtracking,
  streaming Boolean}
- CQ → FO → naive model checking
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import solutions_with_pointers, is_tree_shaped
from repro.cq import (
    evaluate_backtracking,
    evaluate_bounded_treewidth,
    is_acyclic,
    yannakakis_unary,
)
from repro.cq.yannakakis import yannakakis
from repro.logic import cq_to_fo
from repro.logic.fo import fo_query
from repro.rewrite import evaluate_via_rewriting
from repro.streaming import stream_match_twig, stream_select, tree_events
from repro.trees import random_tree
from repro.twigjoin import (
    binary_join_plan,
    holistic_via_arc_consistency,
    parse_twig,
    twig_stack,
)
from repro.workloads import random_cq, random_twig, random_xpath, xmark_like
from repro.xpath import (
    evaluate_query,
    evaluate_query_linear,
    is_conjunctive,
    parse_xpath,
    xpath_to_cq,
    xpath_to_datalog,
)
from repro.xpath.translate import evaluate_datalog_translation

from conftest import trees


class TestXPathRoutes:
    """Every implemented route for Core XPath agrees."""

    @given(trees(max_size=30), st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_three_routes(self, t, seed):
        expr = parse_xpath(random_xpath(3, seed=seed))
        reference = evaluate_query(expr, t)
        assert evaluate_query_linear(expr, t) == reference
        assert evaluate_datalog_translation(xpath_to_datalog(expr), t) == reference

    @given(trees(max_size=25), st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_conjunctive_routes(self, t, seed):
        expr = parse_xpath(random_xpath(3, negation_prob=0.0, seed=seed))
        if not is_conjunctive(expr):
            return
        reference = evaluate_query(expr, t)
        cq = xpath_to_cq(expr)
        assert is_acyclic(cq)  # Proposition 4.2's premise
        assert yannakakis_unary(cq, t) == reference
        assert {r[0] for r in evaluate_via_rewriting(cq, t)} == reference
        assert {r[0] for r in evaluate_bounded_treewidth(cq, t)} == reference
        if is_tree_shaped(cq):
            assert {r[0] for r in solutions_with_pointers(cq, t)} == reference


class TestCQRoutes:
    @given(trees(max_size=20), st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_five_evaluators(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=1)
        reference = evaluate_backtracking(q, t)
        assert evaluate_via_rewriting(q, t) == reference
        assert evaluate_bounded_treewidth(q, t) == reference
        if is_acyclic(q):
            assert yannakakis(q, t) == reference
        if is_tree_shaped(q):
            assert solutions_with_pointers(q, t) == reference

    @given(trees(max_size=12), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_fo_route(self, t, seed):
        q = random_cq(3, 2, seed=seed, head_arity=1)
        expected = {r[0] for r in evaluate_backtracking(q, t)}
        assert fo_query(cq_to_fo(q), t, q.head[0]) == expected


class TestTwigRoutes:
    @given(trees(max_size=25), st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_all_twig_evaluators(self, t, seed):
        pattern = random_twig(4, seed=seed)
        cq = pattern.to_cq()
        reference = evaluate_backtracking(cq, t)
        assert twig_stack(pattern, t) == reference
        assert holistic_via_arc_consistency(pattern, t) == reference
        assert binary_join_plan(pattern, t) == reference
        assert stream_match_twig(pattern, tree_events(t)) == bool(reference)


class TestRealisticDocuments:
    """End-to-end runs on the XMark-like corpus."""

    XPATH_QUERIES = [
        "Child*[lab() = item]/Child[lab() = description]",
        "Child*[lab() = closed_auction]/Child[lab() = price]",
        "Child*[lab() = parlist]/Child+[lab() = keyword]",
    ]

    @pytest.mark.parametrize("text", XPATH_QUERIES)
    def test_xpath_on_xmark(self, text):
        t = xmark_like(40, seed=7)
        expr = parse_xpath(text)
        reference = evaluate_query(expr, t)
        assert evaluate_query_linear(expr, t) == reference
        # these queries are in the streamable fragment (label tests only)
        assert set(stream_select(expr, tree_events(t))) == reference

    def test_xpath_with_path_qualifier_on_xmark(self):
        t = xmark_like(40, seed=7)
        expr = parse_xpath("Child*[lab() = person][Child[lab() = profile]]")
        assert evaluate_query_linear(expr, t) == evaluate_query(expr, t)

    def test_twigs_on_xmark(self):
        t = xmark_like(40, seed=7)
        for text in ("//item[.//keyword]//description", "//person[profile]/name"):
            pattern = parse_twig(text)
            reference = evaluate_backtracking(pattern.to_cq(), t)
            assert twig_stack(pattern, t) == reference
            assert holistic_via_arc_consistency(pattern, t) == reference

    def test_datalog_on_xmark(self):
        from repro.datalog import parse_program
        from repro.datalog.evaluate import evaluate

        t = xmark_like(30, seed=2)
        prog = parse_program(
            """
            InItem(x) :- Lab:item(x).
            InItem(x) :- Child(y, x), InItem(y).
            Kw(x) :- InItem(x), Lab:keyword(x).
            % query: Kw
            """
        )
        expected = {
            v
            for v in t.nodes()
            if t.has_label(v, "keyword")
            and any(t.has_label(u, "item") for u in t.ancestors(v))
        }
        assert evaluate(prog, t) == expected
