"""Twig planning: one route over exactly pruned streams, under budgets.

Every twig plans ``binary``.  That is safe because the index prunes
each candidate stream exactly (``DocumentIndex.twig_streams``): after
the first edge, the binary join plan never holds more partial rows
than the answer has (Props. 6.9/6.10).  And every twig route charges
the call's budget, so neither the plan nor a fallback escapes it.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.errors import ResourceBudgetExceeded
from repro.trees.generate import random_tree
from repro.twigjoin.binaryjoin import JoinPlanStats, binary_join_plan
from repro.twigjoin.pattern import parse_twig
from repro.twigjoin.twigstack import twig_stack
from repro.workloads.queries import random_twig

LABELS = ("a", "b", "c", "d")


def _partial_rows(db: Database, pattern) -> tuple[list[int], set]:
    stats = JoinPlanStats()
    answer = binary_join_plan(
        pattern, db.tree, stats, streams=db.index.twig_streams(pattern)
    )
    return stats.intermediate_sizes, answer


class TestExactPruning:
    @pytest.mark.parametrize("tree_seed", range(20))
    def test_differential_twigs_hold_no_failing_partial_match(self, tree_seed):
        # the 60 cases of the twig differential (test_engine_differential)
        n = 15 + 9 * tree_seed
        db = Database(random_tree(n, seed=1000 + tree_seed, alphabet=LABELS))
        for query_seed in range(3):
            pattern = random_twig(
                n_nodes=2 + query_seed,
                labels=LABELS,
                seed=100 * tree_seed + query_seed,
            )
            sizes, answer = _partial_rows(db, pattern)
            context = f"tree seed={1000 + tree_seed} {pattern!r} rows={sizes}"
            assert answer == twig_stack(pattern, db.tree), context
            assert max(sizes[1:], default=0) <= len(answer), context
            assert db.plan("twig", pattern).strategy == "binary"

    def test_deep_chain_keeps_only_the_productive_ancestor(self):
        # 50 nested <a>, each with a <b> leaf; one <c> under the deepest:
        # descendant-relaxed pruning kept all 50 a's, 1,275 (a, b) rows
        depth = 50
        xml = "<a><b/>" * depth + "<c/>" + "</a>" * depth
        db = Database.from_xml(xml)
        sizes, answer = _partial_rows(db, parse_twig("//a[.//b]/c"))
        assert len(answer) == 1
        assert sizes == [1, 1, 1]


class TestTwigBudgets:
    """All five twig routes, each requested explicitly, stop under a
    budget on a labeled and a label-free twig, and account at least the
    rows they answer."""

    # pathstack takes paths only: its labeled twig is //a//b//c
    CASES = [
        ("binary", "//a[b]//c"),
        ("binary", "//*//*"),
        ("pathstack", "//a//b//c"),
        ("pathstack", "//*//*"),
        ("twigstack", "//a[b]//c"),
        ("twigstack", "//*//*"),
        ("yannakakis", "//a[b]//c"),
        ("yannakakis", "//*//*"),
        ("ac", "//a[b]//c"),
        ("ac", "//*//*"),
    ]

    @pytest.fixture(scope="class")
    def db(self):
        return Database(random_tree(2000, seed=7, alphabet=LABELS))

    @pytest.mark.parametrize("strategy, query", CASES)
    def test_zero_deadline_raises(self, db, strategy, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.twig(query, strategy, deadline=0)

    @pytest.mark.parametrize("strategy, query", CASES)
    def test_visit_ceiling_raises(self, db, strategy, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.twig(query, strategy, max_visited=50)

    @pytest.mark.parametrize("strategy, query", CASES)
    def test_visits_cover_the_answer(self, db, strategy, query):
        result = db.twig(query, strategy, trace=True)
        assert result.answer
        assert result.stats.counter("nodes.visited") >= len(result.answer)

    @pytest.mark.parametrize("query", ["//a[b]//c", "//*//*"])
    def test_auto_planned_twig_raises_after_every_fallback(self, db, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.twig(query, deadline=0)
