"""Unit tests for the column kernels the engine runs on: the index
(repro.engine.index) and the interval semi-joins
(repro.storage.structural_join).

The differential sweep (test_engine_differential.py) checks the kernels
against the paper's object algorithms end-to-end; this module pins the
pieces in isolation — the column layout, the posting lists, the
interval semi-joins against a brute-force oracle, and the stream
pruning.
"""

from __future__ import annotations

import pytest

from repro.engine import Database, DocumentIndex
from repro.storage.structural_join import child_semijoin, descendant_semijoin
from repro.trees.generate import random_tree
from repro.twigjoin.pattern import parse_twig
from repro.workloads.queries import random_twig

LABELS = ("a", "b", "c", "d")


def _tree(seed: int, n: int = 40):
    return random_tree(n, seed=seed, alphabet=LABELS)


# ---------------------------------------------------------------------------
# the column layout: the Tree's own arrays and posting lists
# ---------------------------------------------------------------------------


class TestColumnStore:
    def test_columns_mirror_the_tree(self):
        tree = _tree(1)
        index = DocumentIndex(tree)
        assert list(index.pre) == list(range(tree.n))
        for column, own in (
            (index.post, tree.post),
            (index.level, tree.depth),
            (index.parent, tree.parent),
            (index.subtree_end, tree.subtree_end),
        ):
            assert column is own  # read in place, never copied

    def test_postings_are_sorted_document_order(self):
        tree = _tree(3)
        index = DocumentIndex(tree)
        for label in index.labels():
            posting = index.nodes_with_label(label).tolist()
            assert posting == sorted(posting)
            assert posting == [
                v for v in range(tree.n) if tree.has_label(v, label)
            ]

    def test_absent_label_posting_is_empty(self):
        index = DocumentIndex(_tree(4))
        assert len(index.nodes_with_label("zzz")) == 0


# ---------------------------------------------------------------------------
# the interval semi-joins, against a brute-force oracle
# ---------------------------------------------------------------------------


class TestSemijoins:
    @pytest.mark.parametrize("seed", range(15))
    def test_descendant_semijoin_matches_oracle(self, seed):
        tree = _tree(seed, n=30 + 5 * seed)
        index = DocumentIndex(tree)
        frontier = sorted(v for v in range(tree.n) if v % 3 == seed % 3)
        candidates = index.nodes_with_label(LABELS[seed % len(LABELS)])
        got = descendant_semijoin(tree, frontier, candidates).tolist()
        expected = sorted(
            {
                d
                for u in frontier
                for d in tree.descendants(u)
                if d in set(candidates)
            }
        )
        assert got == expected, f"seed={seed}"
        # sorted and duplicate-free by construction
        assert got == sorted(set(got))

    @pytest.mark.parametrize("seed", range(15))
    def test_child_semijoin_matches_oracle(self, seed):
        tree = _tree(seed, n=30 + 5 * seed)
        index = DocumentIndex(tree)
        frontier = sorted(v for v in range(tree.n) if v % 2 == seed % 2)
        members = set(frontier)
        candidates = index.nodes_with_label(LABELS[seed % len(LABELS)])
        got = child_semijoin(tree, frontier, candidates)
        expected = [c for c in candidates if tree.parent[c] in members]
        assert got == expected, f"seed={seed}"

    def test_nested_frontier_collapses_to_maximal_intervals(self):
        # the root's interval covers the whole document, so a frontier
        # containing every node produces exactly the root's descendants
        tree = _tree(8)
        candidates = list(range(tree.n))
        everything = descendant_semijoin(tree, list(range(tree.n)), candidates)
        from_root = descendant_semijoin(tree, [tree.root], candidates)
        assert everything.tolist() == from_root.tolist() == list(range(1, tree.n))


# ---------------------------------------------------------------------------
# twig stream pruning: sound (equal answers), effective (smaller streams)
# ---------------------------------------------------------------------------


class TestTwigStreamPruning:
    @pytest.mark.parametrize("seed", range(20))
    def test_pruned_streams_preserve_answers(self, seed):
        from repro.twigjoin.twigstack import twig_stack

        tree = _tree(seed, n=25 + 6 * seed)
        index = DocumentIndex(tree)
        pattern = random_twig(n_nodes=2 + seed % 4, labels=LABELS, seed=seed)
        plain = twig_stack(pattern, tree)
        pruned = twig_stack(pattern, tree, streams=index.twig_streams(pattern))
        assert set(pruned) == set(plain), f"seed={seed} pattern={pattern}"

    @pytest.mark.parametrize("seed", range(20))
    def test_pruned_streams_are_subsets(self, seed):
        tree = _tree(seed, n=25 + 6 * seed)
        index = DocumentIndex(tree)
        pattern = random_twig(n_nodes=2 + seed % 4, labels=LABELS, seed=seed)
        plain = [
            list(range(tree.n)) if node.label == "*"
            else tree.nodes_with_label(node.label)
            for node in pattern.nodes
        ]
        pruned = index.twig_streams(pattern)
        for qi, (p, q) in enumerate(zip(plain, pruned)):
            assert set(q) <= set(p), f"seed={seed} pattern node {qi}"
            assert list(q) == sorted(q)

    def test_pruning_removes_unproductive_regions(self):
        # only one of many <a> blocks contains the <c> the pattern
        # demands — pruning must drop the others from the a-stream
        blocks = "".join(
            "<a><b/><c/></a>" if i == 0 else "<a><b/></a>" for i in range(20)
        )
        db = Database.from_xml(f"<r>{blocks}</r>")
        pattern = parse_twig("//a[c]//b")
        pruned = db.index.twig_streams(pattern)
        assert len(pruned[0]) == 1  # just the productive <a>
        assert len(pruned[1]) == 1  # its <c>... pattern order: a, c, b
        result = db.twig(pattern)
        assert len(result.answer) == 1


# ---------------------------------------------------------------------------
# engine integration: stats still observable through the column path
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_column_counters_surface_in_stats(self):
        db = Database(_tree(13))
        result = db.xpath("Child+[lab() = b]", trace=True)
        assert result.stats.strategy == "linear"
        assert "linear.axis_applications" in result.stats.counters
        assert "sj.elements_scanned" in result.stats.counters

    def test_supervised_spans_unchanged_by_columns(self):
        db = Database(_tree(13))
        result = db.xpath("Child+[lab() = b]", trace=True)
        names = [s.name for s in result.stats.trace.children]
        assert names == ["index-build", "plan", "execute:linear"]
