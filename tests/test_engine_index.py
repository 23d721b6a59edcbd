"""DocumentIndex correctness and cache behaviour.

Correctness: the index's pre/post/level arrays are the Tree's own (no
copies) and match what :mod:`repro.trees.orders` recomputes from
scratch, and the label partition must be complete (every (node, label)
pair present) and sorted in document order.

Cache behaviour: one build per Database, ``index_built``/``index_hits``
accounted per call, invalidation after every :mod:`repro.trees.edit`
mutation exposed on the facade.
"""

from __future__ import annotations

import pytest

from repro.engine import Database, DocumentIndex
from repro.trees.generate import random_tree
from repro.trees.orders import post_order, pre_order
from repro.trees.xmlio import parse_xml

DOC = (
    "<site><item><name/><keyword/></item>"
    "<item><name/><payment/></item>"
    "<people><person><name/></person></people></site>"
)


@pytest.fixture(params=[3, 17, 99])
def tree(request):
    return random_tree(60, seed=request.param)


# ---------------------------------------------------------------------------
# array correctness vs trees.orders recomputation
# ---------------------------------------------------------------------------


class TestArrays:
    def test_reads_the_trees_arrays_without_copying(self, tree):
        index = DocumentIndex(tree)
        assert index.post is tree.post
        assert index.level is tree.depth
        assert index.parent is tree.parent
        assert index.subtree_end is tree.subtree_end

    def test_pre_matches_orders(self, tree):
        assert list(DocumentIndex(tree).pre) == pre_order(tree)

    def test_post_matches_orders(self, tree):
        index = DocumentIndex(tree)
        # index.post[v] is v's post-order *rank*; inverting it must give
        # exactly the <post-sorted node list orders.post_order computes
        inverse = [0] * tree.n
        for v in range(tree.n):
            inverse[index.post[v]] = v
        assert inverse == post_order(tree)

    def test_level_is_root_distance(self, tree):
        index = DocumentIndex(tree)
        for v in range(tree.n):
            assert index.level[v] == len(list(tree.ancestors(v)))

    def test_interval_containment_is_descendant(self, tree):
        """pre/post intervals encode Child+: a < d < subtree_end[a] iff
        pre[a] < pre[d] and post[d] < post[a] (Lemma 2.2 shape)."""
        index = DocumentIndex(tree)
        for a in range(0, tree.n, 7):
            for d in range(tree.n):
                by_range = a < d < tree.subtree_end[a]
                by_orders = index.pre[a] < index.pre[d] and \
                    index.post[d] < index.post[a]
                assert by_range == by_orders


# ---------------------------------------------------------------------------
# label partition: complete, sorted, consistent with the tree
# ---------------------------------------------------------------------------


class TestLabelPartition:
    def test_complete(self, tree):
        index = DocumentIndex(tree)
        expected: dict[str, list[int]] = {}
        for v in range(tree.n):
            for label in tree.labels[v]:
                expected.setdefault(label, []).append(v)
        assert {
            label: nodes.tolist() for label, nodes in index.label_partition.items()
        } == expected

    def test_sorted_in_document_order(self, tree):
        index = DocumentIndex(tree)
        for label, nodes in index.label_partition.items():
            assert nodes.tolist() == sorted(nodes), f"partition {label!r} unsorted"

    def test_accessors_count_usage(self, tree):
        index = DocumentIndex(tree)
        assert index.hits == 0 and index.nodes_streamed == 0
        label = tree.label[0]
        nodes = index.nodes_with_label(label)
        assert index.hits == 1 and index.nodes_streamed == len(nodes) > 0

    def test_partition_shared_with_tree_cache(self, tree):
        index = DocumentIndex(tree)
        # the partition the Tree's builder filled and the index's are the
        # same dict, so direct evaluator calls read the same lists
        assert tree._label_index is index.label_partition

    def test_reuses_a_partition_the_tree_already_built(self, tree):
        tree.nodes_with_label("a")  # reads the builder's partition
        cached = tree._label_index
        assert DocumentIndex(tree).label_partition is cached


# ---------------------------------------------------------------------------
# cache behaviour through the Database facade
# ---------------------------------------------------------------------------


class TestCaching:
    def test_built_lazily(self):
        db = Database.from_xml(DOC)
        assert not db.has_index
        db.index
        assert db.has_index

    def test_built_once_same_object(self):
        db = Database.from_xml(DOC)
        assert db.index is db.index
        db.xpath("Child*[lab() = name]")
        assert db.index is db.index

    def test_stats_mark_the_building_call(self):
        db = Database.from_xml(DOC)
        first = db.xpath("Child*[lab() = name]")
        second = db.xpath("Child*[lab() = name]")
        third = db.twig("//item[keyword]")
        assert first.stats.index_built
        assert not second.stats.index_built
        assert not third.stats.index_built
        assert second.stats.index_hits > 0
        assert third.stats.index_hits > 0
        assert second.answer == first.answer

    def test_hits_are_per_call_deltas(self):
        # no plan reads the index, so a cached plan changes nothing: the
        # same query on a warm index consults it identically every call
        db = Database.from_xml(DOC)
        for kind, query in (
            ("xpath", "Child*[lab() = name]"),
            ("twig", "//item[keyword]/name"),
        ):
            r1 = db.run(kind, query)
            r2 = db.run(kind, query)
            assert r2.stats.index_hits == r1.stats.index_hits > 0


class TestInvalidation:
    def test_relabel_invalidates(self):
        db = Database.from_xml(DOC)
        before = db.xpath("Child*[lab() = keyword]")
        assert before.stats.index_built
        db.relabel(5, "keyword")
        assert not db.has_index
        after = db.xpath("Child*[lab() = keyword]")
        assert after.stats.index_built
        assert len(after.answer) == len(before.answer) + 1

    def test_insert_leaf_invalidates(self):
        db = Database.from_xml(DOC)
        n_before = len(db.xpath("Child*[lab() = keyword]").answer)
        db.insert_leaf(db.tree.root, 0, "keyword")
        assert not db.has_index
        assert len(db.xpath("Child*[lab() = keyword]").answer) == n_before + 1

    def test_delete_subtree_invalidates(self):
        db = Database.from_xml(DOC)
        db.xpath("Child*[lab() = person]")
        people = next(iter(db.xpath("Child*[lab() = people]").answer))
        db.delete_subtree(people)
        assert not db.has_index
        assert db.xpath("Child*[lab() = person]").answer == set()

    def test_insert_subtree_invalidates(self):
        db = Database.from_xml(DOC)
        db.index
        sub = parse_xml("<person><name/></person>")
        db.insert_subtree(db.tree.root, 0, sub)
        assert not db.has_index
        assert len(db.xpath("Child[lab() = person]").answer) == 1

    def test_splice_invalidates(self):
        db = Database.from_xml(DOC)
        db.index
        people = next(iter(db.xpath("Child*[lab() = people]").answer))
        db.splice(people)
        assert not db.has_index
        assert db.xpath("Child*[lab() = people]").answer == set()
        assert len(db.xpath("Child[lab() = person]").answer) == 1

    def test_stale_answers_impossible(self):
        """The old index object keeps working on the old tree, but the
        facade never serves it for the new one."""
        db = Database.from_xml(DOC)
        old_index = db.index
        old_n = db.tree.n
        db.insert_leaf(db.tree.root, 0, "zzz")
        new_index = db.index
        assert new_index is not old_index
        assert old_index.n == old_n and new_index.n == old_n + 1
        assert db.xpath("Child[lab() = zzz]").answer != set()
