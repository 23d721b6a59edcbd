"""Tests for conjunctive queries: acyclicity, Yannakakis, tree-width (§4)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import (
    ConjunctiveQuery,
    build_join_tree,
    evaluate_backtracking,
    evaluate_bounded_treewidth,
    is_acyclic,
    parse_cq,
    query_treewidth,
    tree_decomposition,
    is_valid_decomposition,
    yannakakis_boolean,
    yannakakis_unary,
)
from repro.cq.naive import BacktrackStats
from repro.cq.yannakakis import yannakakis
from repro.cq.treewidth import graph_treewidth, tree_structure_graph, treewidth_exact
from repro.datalog.syntax import Atom
from repro.errors import EvaluationError, NotAcyclicError, QueryError
from repro.trees import random_tree
from repro.trees.axes import Axis
from repro.workloads import random_cq

from conftest import trees


class TestQueryBasics:
    def test_parse_and_str(self):
        q = parse_cq("ans(x) :- Child(x, y), Lab:a(y)")
        assert q.head == ("x",)
        assert q.size() == 2

    def test_boolean_query(self):
        q = parse_cq("ans() :- Lab:a(x)")
        assert q.is_boolean()
        q2 = parse_cq("ans :- Lab:a(x)")
        assert q2.is_boolean()

    def test_head_var_must_occur(self):
        with pytest.raises(QueryError):
            parse_cq("ans(z) :- Lab:a(x)")

    def test_canonicalization_flips_inverse_axes(self):
        q = parse_cq("ans(x) :- Parent(x, y)")
        atom = q.binary_atoms()[0]
        assert atom.pred == Axis.CHILD.value
        assert atom.args == ("y", "x")

    def test_signature(self):
        q = parse_cq("ans(x) :- Child+(x, y), Following(y, z)")
        assert q.signature() == {Axis.CHILD_PLUS, Axis.FOLLOWING}

    def test_connectivity(self):
        assert parse_cq("ans(x) :- Child(x, y), Child(y, z)").is_connected()
        assert not parse_cq(
            "ans(x) :- Child(x, y), Child(u, w)"
        ).is_connected()


class TestAcyclicity:
    def test_twig_is_acyclic(self):
        q = parse_cq("ans(x) :- Child+(r, x), Child+(r, y), Lab:a(y)")
        assert is_acyclic(q)

    def test_triangle_is_cyclic(self):
        q = parse_cq("ans() :- Child+(x, y), Child+(y, z), Child+(x, z)")
        assert not is_acyclic(q)

    def test_single_atom(self):
        assert is_acyclic(parse_cq("ans(x) :- Lab:a(x)"))

    def test_join_tree_variable_connectivity(self):
        """Join-tree property: atoms containing any given variable form a
        connected subtree."""
        for seed in range(20):
            q = random_cq(5, 4, seed=seed)
            if not is_acyclic(q):
                continue
            jt = build_join_tree(q)
            for v in q.variables():
                holders = {
                    i
                    for i, a in enumerate(q.atoms)
                    if v in set(a.variables())
                }
                # check connectivity of holders within the join tree
                graph = nx.Graph()
                graph.add_nodes_from(range(len(q.atoms)))
                for child, parent in jt.parent.items():
                    graph.add_edge(child, parent)
                sub = graph.subgraph(holders)
                assert nx.is_connected(sub), (seed, v)

    def test_join_tree_root_var(self):
        q = parse_cq("ans(z) :- Child(x, y), Child(y, z)")
        jt = build_join_tree(q, root_var="z")
        assert "z" in set(q.atoms[jt.root].variables())

    def test_join_tree_cyclic_raises(self):
        q = parse_cq("ans() :- Child+(x, y), Child+(y, z), Child+(x, z)")
        with pytest.raises(NotAcyclicError):
            build_join_tree(q)


class TestYannakakis:
    @given(trees(max_size=30), st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_vs_backtracking_on_acyclic(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=2)
        if not is_acyclic(q):
            return
        assert yannakakis(q, t) == evaluate_backtracking(q, t)

    @given(trees(max_size=30), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_unary_fast_path(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=1)
        if not is_acyclic(q):
            return
        expected = {r[0] for r in evaluate_backtracking(q, t)}
        assert yannakakis_unary(q, t) == expected

    @given(trees(max_size=30), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_boolean_fast_path(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=0)
        if not is_acyclic(q):
            return
        expected = bool(evaluate_backtracking(q, t, first_only=True))
        assert yannakakis_boolean(q, t) == expected

    def test_constants_in_atoms(self):
        t = random_tree(20, seed=1)
        q = ConjunctiveQuery(("x",), (Atom("Child+", (0, "x")),))
        assert yannakakis(q, t) == {(v,) for v in range(1, 20)}

    def test_repeated_variable_atom(self):
        t = random_tree(15, seed=2)
        q = ConjunctiveQuery(("x",), (Atom("Child*", ("x", "x")),))
        assert yannakakis(q, t) == {(v,) for v in t.nodes()}

    def test_empty_result(self):
        t = random_tree(10, seed=3, alphabet=("a",))
        q = parse_cq("ans(x) :- Lab:zzz(x)")
        assert yannakakis(q, t) == set()
        assert yannakakis_boolean(q.with_head(()), t) is False

    def test_unary_requires_one_head_var(self):
        q = parse_cq("ans(x, y) :- Child(x, y)")
        with pytest.raises(EvaluationError):
            yannakakis_unary(q, random_tree(5))

    @pytest.mark.parametrize("axis", list(Axis))
    def test_seeded_materialization_is_the_labeled_part_of_the_axis(self, axis):
        """The reducer's one semi-join keeps exactly the targets that some
        source reaches over the axis, whichever route it takes (interval
        and column kernels, the set image, a column test when every node
        is a source): each side every node (None), a label's posting
        list, or empty, against the brute-force filter of the pairs."""
        from repro.storage.structural_join import axis_semijoin
        from repro.trees.axes import axis_pairs

        for tree_seed in range(3):
            t = random_tree(40, seed=tree_seed, alphabet=("a", "b", "c"))
            pairs = set(axis_pairs(t, axis))
            sides = [None, t.nodes_with_label("a"), t.nodes_with_label("b"), []]
            for sources in sides:
                for targets in sides:
                    got = axis_semijoin(t, axis, sources, targets)
                    src = range(t.n) if sources is None else sources
                    dst = range(t.n) if targets is None else targets
                    expected = [v for v in dst if any((u, v) in pairs for u in src)]
                    if got is None:  # a reflexive axis keeps every node
                        got = range(t.n)
                    assert list(got) == expected, (axis, tree_seed, sources, targets)

    def test_disconnected_query(self):
        t = random_tree(20, seed=4)
        q = parse_cq("ans(x) :- Lab:a(x), Lab:b(y), Dom(y)")
        expected = (
            set((v,) for v in t.nodes_with_label("a"))
            if t.nodes_with_label("b")
            else set()
        )
        assert yannakakis(q, t) == expected


class TestBacktracking:
    def test_stats_counted(self):
        t = random_tree(20, seed=1)
        q = parse_cq("ans(x) :- Child(x, y)")
        stats = BacktrackStats()
        evaluate_backtracking(q, t, stats=stats)
        assert stats.nodes_expanded > 0
        # one count per satisfying assignment; at least one per head tuple
        assert stats.solutions >= len(evaluate_backtracking(q, t))

    def test_step_limit(self):
        t = random_tree(60, seed=1)
        q = parse_cq("ans() :- Child+(a, b), Child+(b, c), Child+(c, d)")
        with pytest.raises(EvaluationError):
            evaluate_backtracking(q, t, max_steps=3)

    def test_first_only_stops_early(self):
        t = random_tree(60, seed=1)
        q = parse_cq("ans() :- Child(x, y)")
        r = evaluate_backtracking(q, t, first_only=True)
        assert r == {()}


class TestTreewidth:
    def test_clique_treewidth(self):
        assert treewidth_exact(nx.complete_graph(5)) == 4

    def test_tree_treewidth_one(self):
        assert treewidth_exact(nx.balanced_tree(2, 2)) == 1
        assert treewidth_exact(nx.path_graph(10)) == 1

    def test_cycle_treewidth_two(self):
        assert treewidth_exact(nx.cycle_graph(6)) == 2

    def test_single_vertex(self):
        g = nx.Graph()
        g.add_node(0)
        assert treewidth_exact(g) == 0

    def test_grid_treewidth(self):
        assert treewidth_exact(nx.grid_2d_graph(3, 3)) == 3

    def test_exact_limit(self):
        with pytest.raises(ValueError):
            treewidth_exact(nx.path_graph(20))

    def test_figure_4_claim(self):
        """(Child, NextSibling)-trees are graphs of tree-width two."""
        widths = {
            graph_treewidth(tree_structure_graph(random_tree(12, seed=s)))
            for s in range(6)
        }
        assert widths <= {1, 2}
        assert 2 in widths  # generically it is exactly two

    def test_query_treewidth(self):
        path = parse_cq("ans(x) :- Child(x, y), Child(y, z)")
        assert query_treewidth(path) == 1
        triangle = parse_cq("ans() :- Child+(x, y), Child+(y, z), Child+(x, z)")
        assert query_treewidth(triangle) == 2

    def test_decomposition_validity(self):
        g = tree_structure_graph(random_tree(20, seed=1))
        _w, decomposition = tree_decomposition(g)
        assert is_valid_decomposition(g, decomposition)

    def test_invalid_decomposition_detected(self):
        g = nx.path_graph(3)
        bad = nx.Graph()
        bad.add_node(frozenset({0, 1}))  # edge (1,2) not covered
        assert not is_valid_decomposition(g, bad)


class TestBoundedTreewidthEvaluation:
    @given(trees(max_size=20), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_vs_backtracking(self, t, seed):
        q = random_cq(4, 4, seed=seed, head_arity=1, connected=False)
        assert evaluate_bounded_treewidth(q, t) == evaluate_backtracking(q, t)

    def test_cyclic_query(self):
        t = random_tree(15, seed=6)
        q = parse_cq("ans(x) :- Child(x, y), Child(y, z), Child+(x, z)")
        assert evaluate_bounded_treewidth(q, t) == evaluate_backtracking(q, t)

    def test_boolean(self):
        t = random_tree(15, seed=7)
        q = parse_cq("ans() :- Child+(x, y), Child+(y, z), Child+(x, z)")
        expected = bool(evaluate_backtracking(q, t, first_only=True))
        assert bool(evaluate_bounded_treewidth(q, t)) == expected
