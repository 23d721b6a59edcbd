"""Cross-cutting property tests (hypothesis) tying the subsystems
together through the invariants the paper's theory guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import (
    arc_consistency_worklist,
    count_solutions,
    is_tree_shaped,
    solutions_with_pointers,
)
from repro.cq import ConjunctiveQuery, evaluate_backtracking, is_acyclic
from repro.cq.yannakakis import yannakakis
from repro.datalog import parse_program
from repro.datalog.evaluate import evaluate as datalog_evaluate
from repro.rewrite import rewrite_lazy
from repro.storage import IntervalLabeling, OrdpathLabeling, dumps_tree, loads_tree
from repro.streaming import stream_select, tree_events
from repro.trees import (
    Tree,
    delete_subtree,
    insert_leaf,
    parse_xml,
    random_tree,
    to_xml,
)
from repro.trees.axes import Axis, axis_holds
from repro.workloads import random_cq, random_twig, random_xpath
from repro.xpath import evaluate_query, evaluate_query_linear, parse_xpath

from conftest import trees


class TestEditInvariants:
    """Edits preserve the Tree invariants and compose with everything."""

    @given(trees(max_size=20), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_edits_preserve_preorder_invariant(self, t, seed):
        parent = seed % t.n
        position = seed % (len(t.children[parent]) + 1)
        edited = insert_leaf(t, parent, position, "zz")
        # Tree's constructor validates the pre-order id invariant, and
        # the subtree-interval characterization must keep working:
        for u in edited.nodes():
            for v in edited.descendants(u):
                assert edited.is_descendant(u, v)

    @given(trees(max_size=20), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_edits_survive_serialization(self, t, seed):
        parent = seed % t.n
        edited = insert_leaf(t, parent, 0, "zz")
        assert loads_tree(dumps_tree(edited)) == edited
        assert parse_xml(to_xml(edited)) == edited

    @given(trees(max_size=20), st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_delete_shrinks_consistently(self, t, seed):
        if t.n == 1:
            return
        victim = 1 + seed % (t.n - 1)
        reduced = delete_subtree(t, victim)
        assert reduced.n == t.n - t.subtree_size(victim)
        labeling = IntervalLabeling(reduced)
        for u in reduced.nodes():
            for v in reduced.nodes():
                assert labeling.is_ancestor(
                    labeling.label_of(u), labeling.label_of(v)
                ) == reduced.is_descendant(u, v)


class TestOrdpathInsertFriendliness:
    """ORDPATH's raison d'être (§2): a label can be interposed between
    any two siblings without touching existing labels, and the new
    label's order/ancestry relations come out right."""

    @given(trees(max_size=20), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_between_agrees_with_actual_insert(self, t, seed):
        candidates = [
            v for v in t.nodes() if len(t.children[v]) >= 2
        ]
        if not candidates:
            return
        parent = candidates[seed % len(candidates)]
        slot = 1 + seed % (len(t.children[parent]) - 1)
        op = OrdpathLabeling(t)
        left = op.label_of(t.children[parent][slot - 1])
        right = op.label_of(t.children[parent][slot])
        fresh = OrdpathLabeling.between(left, right)
        assert left < fresh < right
        # the fresh label is a child of parent, not of either sibling
        assert OrdpathLabeling.is_ancestor(op.label_of(parent), fresh)
        assert not OrdpathLabeling.is_ancestor(left, fresh)


class TestAnswerConsistencyAcrossEngines:
    """One workload, every engine: the Figure 7 languages can disagree
    only through bugs."""

    @given(trees(max_size=18), st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_cq_engines(self, t, seed):
        q = random_cq(3, 2, seed=seed, head_arity=1)
        reference = evaluate_backtracking(q, t)
        if is_acyclic(q):
            assert yannakakis(q, t) == reference
        union: set = set()
        for disjunct in rewrite_lazy(q):
            union |= yannakakis(disjunct, t)
        assert union == reference
        if is_tree_shaped(q):
            assert solutions_with_pointers(q, t) == reference
            full = ConjunctiveQuery(tuple(q.variables()), q.atoms)
            assert count_solutions(q, t) == len(evaluate_backtracking(full, t))

    @given(trees(max_size=20), st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_xpath_engines(self, t, seed):
        expr = parse_xpath(random_xpath(2, seed=seed))
        assert evaluate_query_linear(expr, t) == evaluate_query(expr, t)


class TestThetaMaximality:
    """The arc-consistent pre-valuation is the unique subset-maximal one:
    adding any excluded value breaks arc-consistency (Prop. 6.2)."""

    @given(trees(max_size=12), st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_no_excluded_value_is_consistent(self, t, seed):
        from repro.consistency import is_arc_consistent

        q = random_cq(3, 2, seed=seed, head_arity=0)
        theta = arc_consistency_worklist(q, t)
        if theta is None:
            return
        for x, values in theta.items():
            for v in range(t.n):
                if v in values:
                    continue
                widened = {k: set(vs) for k, vs in theta.items()}
                widened[x].add(v)
                assert not is_arc_consistent(q, t, widened), (x, v)


class TestDatalogStreamingAgreement:
    """Recursion (datalog) and streaming see the same document."""

    @given(trees(max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_descendants_of_a(self, t):
        prog = parse_program(
            """
            In(x) :- Lab:a(x).
            In(x) :- Child(y, x), In(y).
            Out(x) :- In(x), Lab:b(x).
            % query: Out
            """
        )
        expr = parse_xpath("Child*[lab() = a]/Child+[lab() = b]")
        datalog_answer = datalog_evaluate(prog, t)
        xpath_answer = evaluate_query_linear(expr, t)
        stream_answer = set(
            stream_select(
                parse_xpath("Child*[lab() = a]/Child*/Child[lab() = b]"),
                tree_events(t),
            )
        )
        # In marks a-nodes and everything below them; Out keeps the b's.
        expected = {
            v
            for v in t.nodes()
            if t.has_label(v, "b")
            and any(t.has_label(u, "a") for u in [v, *t.ancestors(v)])
        }
        assert datalog_answer == expected
        # the XPath variants select b-descendants of a-nodes (proper)
        proper = {
            v
            for v in t.nodes()
            if t.has_label(v, "b")
            and any(t.has_label(u, "a") for u in t.ancestors(v))
        }
        assert xpath_answer == proper
        assert stream_answer == proper


class TestTwigCqRoundTrip:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_pattern_cq_signature(self, seed):
        pattern = random_twig(4, seed=seed)
        cq = pattern.to_cq()
        assert is_acyclic(cq)
        assert cq.signature() <= {Axis.CHILD, Axis.CHILD_PLUS}
        assert len(cq.head) == len(pattern)
