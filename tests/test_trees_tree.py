"""Tests for repro.trees.tree and repro.trees.orders (Section 2)."""

import pytest
from hypothesis import given, settings

from repro.trees import Tree, post_order, pre_order, bflr_order, random_tree
from repro.trees.node import Node
from repro.trees.orders import (
    descendant_from_orders,
    following_from_orders,
    post_lt,
    post_lt_from_axes,
    pre_lt_from_axes,
)

from conftest import trees


class TestConstruction:
    def test_single_node(self):
        t = Tree.from_tuple("a")
        assert t.n == 1
        assert t.root == 0
        assert t.is_leaf(0)
        assert t.height() == 0

    def test_from_tuple_shape(self):
        t = Tree.from_tuple(("a", ["b", ("c", ["d", "e"]), "f"]))
        assert t.n == 6
        assert t.label == ["a", "b", "c", "d", "e", "f"]
        assert t.parent.tolist() == [-1, 0, 0, 2, 2, 0]
        assert t.children[0].tolist() == [1, 2, 5]
        assert t.children[2].tolist() == [3, 4]

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            Tree([], [], [], [])

    def test_non_preorder_ids_rejected(self):
        # node 2 is a child of the root while node 1 sits deeper: ids do
        # not follow pre-order, which Tree must refuse
        with pytest.raises(ValueError):
            Tree(
                ["a", "b", "c"],
                [frozenset("a"), frozenset("b"), frozenset("c")],
                [-1, 2, 0],
                [[2], [], [1]],
            )

    def test_parent_disagreeing_with_children_rejected(self):
        with pytest.raises(ValueError, match="parent array"):
            Tree(
                ["a", "b", "c"],
                [frozenset("a"), frozenset("b"), frozenset("c")],
                [-1, 0, 1],
                [[1, 2], [], []],
            )

    def test_unreachable_nodes_rejected(self):
        with pytest.raises(ValueError, match="reach 1 of 2"):
            Tree(["a", "b"], [frozenset("a"), frozenset("b")], [-1, 0], [[], []])

    def test_build_from_nodes(self):
        root = Node("r")
        child = root.add(Node("x"))
        child.add(Node("y"))
        t = Tree.build(root)
        assert t.label == ["r", "x", "y"]
        assert t.depth.tolist() == [0, 1, 2]

    def test_multi_labels(self):
        root = Node("a", extra_labels=["big", "red"])
        t = Tree.build(root)
        assert t.has_label(0, "a")
        assert t.has_label(0, "big")
        assert t.has_label(0, "red")
        assert not t.has_label(0, "blue")


class TestIndexes:
    def test_post_order_of_paper_tree(self, paper_tree):
        # Figure 2: post indexes (1-based) are 7,3,1,2,6,4,5
        assert [p + 1 for p in paper_tree.post] == [7, 3, 1, 2, 6, 4, 5]

    def test_subtree_end_gives_descendant_ranges(self, paper_tree):
        assert list(paper_tree.descendants(0)) == [1, 2, 3, 4, 5, 6]
        assert list(paper_tree.descendants(1)) == [2, 3]
        assert list(paper_tree.descendants(4)) == [5, 6]
        assert list(paper_tree.descendants(2)) == []

    def test_sibling_links(self, paper_tree):
        assert paper_tree.next_sibling[1] == 4
        assert paper_tree.prev_sibling[4] == 1
        assert paper_tree.next_sibling[4] == -1
        assert paper_tree.sibling_index[4] == 1

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_orders_are_permutations(self, t):
        for order in (pre_order(t), post_order(t), bflr_order(t)):
            assert sorted(order) == list(range(t.n))

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_depth_consistent_with_parent(self, t):
        for v in t.nodes():
            if t.parent[v] >= 0:
                assert t.depth[v] == t.depth[t.parent[v]] + 1
            else:
                assert t.depth[v] == 0

    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_bflr_sorts_by_depth_then_document_order(self, t):
        order = bflr_order(t)
        keys = [(t.depth[v],) for v in order]
        assert keys == sorted(keys)


class TestOrderInterdefinability:
    """The §2 equations relating <pre, <post, Child+, Following."""

    @given(trees(max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_pre_from_axes(self, t):
        for u in t.nodes():
            for v in t.nodes():
                if u != v:
                    assert pre_lt_from_axes(t, u, v) == (u < v)

    @given(trees(max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_post_from_axes(self, t):
        for u in t.nodes():
            for v in t.nodes():
                if u != v:
                    assert post_lt_from_axes(t, u, v) == post_lt(t, u, v)

    @given(trees(max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_axes_from_orders(self, t):
        for u in t.nodes():
            for v in t.nodes():
                assert descendant_from_orders(t, u, v) == t.is_descendant(u, v)
                assert following_from_orders(t, u, v) == t.is_following(u, v)

    @given(trees(max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_trichotomy(self, t):
        """Any two distinct nodes are related by exactly one of
        Child+(u,v), Child+(v,u), Following(u,v), Following(v,u)."""
        for u in t.nodes():
            for v in t.nodes():
                if u == v:
                    continue
                relations = [
                    t.is_descendant(u, v),
                    t.is_descendant(v, u),
                    t.is_following(u, v),
                    t.is_following(v, u),
                ]
                assert sum(relations) == 1


class TestNavigation:
    def test_lca(self, paper_tree):
        assert paper_tree.lca(2, 3) == 1
        assert paper_tree.lca(2, 5) == 0
        assert paper_tree.lca(5, 6) == 4
        assert paper_tree.lca(3, 3) == 3
        assert paper_tree.lca(0, 6) == 0

    def test_ancestors(self, paper_tree):
        assert list(paper_tree.ancestors(3)) == [1, 0]
        assert list(paper_tree.ancestors(0)) == []

    def test_leaves(self, paper_tree):
        assert list(paper_tree.leaves()) == [2, 3, 5, 6]

    def test_first_last_child(self, paper_tree):
        assert paper_tree.first_child(0) == 1
        assert paper_tree.last_child(0) == 4
        assert paper_tree.first_child(2) == -1

    def test_label_index_cached_and_correct(self, paper_tree):
        assert paper_tree.nodes_with_label("a").tolist() == [0, 2, 4]
        assert paper_tree.nodes_with_label("b").tolist() == [1, 5]
        assert paper_tree.nodes_with_label("zzz").tolist() == []

    def test_alphabet(self, paper_tree):
        assert paper_tree.alphabet() == frozenset("abcd")


class TestEquality:
    def test_structural_equality(self):
        a = Tree.from_tuple(("a", ["b", "c"]))
        b = Tree.from_tuple(("a", ["b", "c"]))
        c = Tree.from_tuple(("a", ["c", "b"]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    @given(trees(max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_len_matches_n(self, t):
        assert len(t) == t.n == len(list(t.nodes()))


class TestDeepTrees:
    def test_no_recursion_limit_on_deep_trees(self):
        from repro.trees import path_tree

        t = path_tree(50_000)
        assert t.height() == 49_999
        assert t.post[0] == t.n - 1
        assert t.subtree_end[0] == t.n
