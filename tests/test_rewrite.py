"""Tests for Table 1 and the Theorem 5.1 rewriting (Section 5)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import evaluate_backtracking, is_acyclic, parse_cq
from repro.cq.yannakakis import yannakakis
from repro.errors import QueryError
from repro.rewrite import (
    RewriteStats,
    TABLE_1,
    axis_pair_satisfiable,
    evaluate_via_rewriting,
    replacement_axis,
    rewrite_lazy,
    rewrite_to_acyclic_union,
)
from repro.rewrite.table1 import REWRITE_AXES
from repro.trees import Tree, random_tree
from repro.trees.axes import Axis, axis_holds
from repro.workloads import random_cq

from conftest import run_fresh, trees


def all_small_trees(max_nodes: int):
    """Every ordered tree shape with up to max_nodes nodes (unlabeled)."""

    def shapes(n: int):
        # trees with n nodes: root plus an ordered forest of n-1 nodes
        if n == 1:
            yield ("x", [])
            return
        for split in compositions(n - 1):
            for forest in forests(split):
                yield ("x", forest)

    def compositions(n: int):
        if n == 0:
            yield []
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield [first] + rest

    def forests(sizes: list[int]):
        if not sizes:
            yield []
            return
        for head in shapes(sizes[0]):
            for tail in forests(sizes[1:]):
                yield [head] + tail

    for n in range(1, max_nodes + 1):
        for shape in shapes(n):
            yield Tree.from_tuple(shape)


class TestTable1Exhaustive:
    """Experiment E8: certify every cell of Table 1 by exhaustive search
    over all ordered trees with at most 6 nodes."""

    TREES = None

    @classmethod
    def setup_class(cls):
        cls.TREES = list(all_small_trees(6))

    @pytest.mark.parametrize("r", REWRITE_AXES)
    @pytest.mark.parametrize("s", REWRITE_AXES)
    def test_cell(self, r, s):
        satisfiable = False
        for t in self.TREES:
            for z in t.nodes():
                for x in t.nodes():
                    if not axis_holds(t, r, x, z):
                        continue
                    for y in t.nodes():
                        if x < y and axis_holds(t, s, y, z):
                            satisfiable = True
                            break
                    if satisfiable:
                        break
            if satisfiable:
                break
        assert satisfiable == TABLE_1[(r, s)], (r, s)

    def test_replacement_rule_sound(self):
        """In every satisfiable configuration R(x,z) ∧ S(y,z) ∧ x<pre y,
        the replacement atom R(x, y) indeed holds."""
        for t in all_small_trees(6):
            for r in REWRITE_AXES:
                for s in REWRITE_AXES:
                    if not TABLE_1[(r, s)]:
                        continue
                    for z in t.nodes():
                        for x in t.nodes():
                            if not axis_holds(t, r, x, z):
                                continue
                            for y in t.nodes():
                                if x < y and axis_holds(t, s, y, z):
                                    assert axis_holds(
                                        t, replacement_axis(r, s), x, y
                                    ), (r, s, x, y, z)

    def test_unsat_pairs_raise_on_replacement(self):
        with pytest.raises(QueryError):
            replacement_axis(Axis.NEXT_SIBLING, Axis.NEXT_SIBLING)

    def test_table_rejects_foreign_axes(self):
        with pytest.raises(QueryError):
            axis_pair_satisfiable(Axis.FOLLOWING, Axis.CHILD)


class TestTheorem51:
    def test_disjuncts_are_acyclic(self):
        q = parse_cq("ans(z) :- Child+(x, z), Child+(y, z), Lab:a(x), Lab:b(y)")
        for disjunct in rewrite_to_acyclic_union(q):
            assert is_acyclic(disjunct)
        for disjunct in rewrite_lazy(q):
            assert is_acyclic(disjunct)

    def test_classic_branching_example(self):
        """Two Child+ atoms into the same variable: three disjuncts
        (x before y, y before x, x = y)."""
        q = parse_cq("ans(z) :- Child+(x, z), Child+(y, z)")
        assert len(rewrite_lazy(q)) == 3

    def test_lazy_rewriting_ignores_the_hash_seed(self):
        """Four atoms into ``d`` make the lazy rewriting branch over
        pair orders; its conflict pairs come from sets of atoms, so
        each interpreter must visit them in the same order to produce
        the same disjuncts."""
        code = (
            "from repro.cq import parse_cq\n"
            "from repro.rewrite import rewrite_lazy\n"
            "q = parse_cq('ans() :- Child+(a, b), Child+(b, d), Child+(a, c), "
            "Child+(c, d), Child+(e, d), Child+(f, d)')\n"
            "for disjunct in rewrite_lazy(q):\n"
            "    print(disjunct)\n"
        )
        outputs = {run_fresh(code, PYTHONHASHSEED=str(seed)) for seed in range(4)}
        assert len(outputs) == 1
        assert len(outputs.pop().splitlines()) == 105

    def test_eager_vs_lazy_disjunct_counts(self):
        """The lazy variant explores far fewer orders (ablation A2)."""
        q = parse_cq(
            "ans(z) :- Child+(x, z), Child+(y, z), Child+(w, y), Lab:a(w)"
        )
        eager_stats, lazy_stats = RewriteStats(), RewriteStats()
        rewrite_to_acyclic_union(q, eager_stats)
        rewrite_lazy(q, lazy_stats)
        assert lazy_stats.branches < eager_stats.orders_considered

    def test_eager_variable_cap(self):
        q = random_cq(9, 8, seed=1, connected=True)
        with pytest.raises(QueryError):
            rewrite_to_acyclic_union(q)

    def test_following_expansion(self):
        q = parse_cq("ans(x) :- Following(x, y), Lab:a(y)")
        for seed in range(4):
            t = random_tree(25, seed=seed)
            assert evaluate_via_rewriting(q, t) == evaluate_backtracking(q, t)

    def test_unsatisfiable_query_rewrites_to_empty_union(self):
        q = parse_cq("ans() :- Child(x, y), Child(y, x)")
        assert rewrite_lazy(q) == []

    def test_star_only_query(self):
        q = parse_cq("ans(x) :- Child*(x, y), Lab:a(y)")
        for seed in range(4):
            t = random_tree(25, seed=seed)
            assert evaluate_via_rewriting(q, t) == evaluate_backtracking(q, t)

    @given(trees(max_size=16), st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_lazy_equivalence_fuzz(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=1, connected=False)
        assert evaluate_via_rewriting(q, t, lazy=True) == evaluate_backtracking(
            q, t
        )

    @given(trees(max_size=14), st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_eager_equivalence_fuzz(self, t, seed):
        q = random_cq(4, 3, seed=seed, head_arity=1, connected=True)
        try:
            result = evaluate_via_rewriting(q, t, lazy=False)
        except QueryError:
            return  # over the eager variable cap (Following expansion)
        assert result == evaluate_backtracking(q, t)

    def test_boolean_rewriting(self):
        q = parse_cq("ans() :- Child+(x, z), Child+(y, z), Lab:a(x), Lab:b(y)")
        for seed in range(5):
            t = random_tree(20, seed=seed)
            expected = bool(evaluate_backtracking(q, t, first_only=True))
            assert bool(evaluate_via_rewriting(q, t)) == expected

    def test_disjunct_evaluation_matches_union(self):
        q = parse_cq("ans(z) :- Child+(x, z), NextSibling+(y, z), Lab:a(x)")
        t = random_tree(30, seed=9)
        union: set = set()
        for disjunct in rewrite_lazy(q):
            union |= yannakakis(disjunct, t)
        assert union == evaluate_backtracking(q, t)

    def test_stats_accounting(self):
        q = parse_cq("ans(z) :- Child+(x, z), Child+(y, z)")
        stats = RewriteStats()
        rewrite_to_acyclic_union(q, stats)
        assert stats.orders_considered == 13  # ordered Bell number B(3)
        assert stats.disjuncts_produced >= 3
        assert (
            stats.disjuncts_produced + stats.disjuncts_dropped
            <= stats.orders_considered
        )
