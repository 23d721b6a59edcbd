"""CQ planning: cyclic queries run by rewriting, under budgets.

An acyclic CQ plans ``yannakakis``; a cyclic one plans ``rewrite``, the
next route in the registry, which rewrites it into a union of acyclic
CQs (Theorem 5.1) and runs Yannakakis on each (Corollary 5.2).
``backtracking`` and ``treewidth`` serve explicit requests and budget
fallbacks, and every CQ route charges the call's budget, so neither the
plan nor a fallback escapes it.
"""

from __future__ import annotations

import importlib

import pytest

from repro.engine import Database
from repro.errors import ResourceBudgetExceeded
from repro.trees.generate import random_tree
from repro.workloads.documents import deep_tree

LABELS = ("a", "b", "c", "d")

# label-free, so `_touch` charges nothing before the kernel runs
TRIANGLE = "ans(x) :- Child+(y, x), Child+(z, x), Child(y, z)"
K4 = (
    "ans(w) :- Child+(w, x), Child+(w, y), Child+(w, z), "
    "Child+(x, y), Child+(x, z), Child+(y, z)"
)
CYCLIC_ROUTES = ["rewrite", "backtracking", "treewidth"]


class TestCqBudgets:
    """Every applicable CQ route, each requested explicitly, stops under
    a budget on the label-free triangle and K4, and accounts at least
    the rows it answers."""

    CASES = [(s, q) for s in CYCLIC_ROUTES for q in (TRIANGLE, K4)]

    @pytest.fixture(scope="class")
    def db(self):
        return Database(random_tree(2000, seed=7, alphabet=LABELS))

    @pytest.fixture(scope="class")
    def small_db(self):
        # small enough for `treewidth`'s |A|^(k+1) bag scans to finish
        return Database(random_tree(60, seed=7, alphabet=LABELS))

    @pytest.mark.parametrize("query", [TRIANGLE, K4])
    def test_every_route_applies(self, db, query):
        assert db.strategies("cq", query) == CYCLIC_ROUTES

    @pytest.mark.parametrize("strategy, query", CASES)
    def test_zero_deadline_raises(self, db, strategy, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.cq(query, strategy, deadline=0)

    @pytest.mark.parametrize("strategy, query", CASES)
    def test_visit_ceiling_raises(self, db, strategy, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.cq(query, strategy, max_visited=50)

    @pytest.mark.parametrize("strategy, query", CASES)
    def test_visits_cover_the_answer(self, small_db, strategy, query):
        result = small_db.cq(query, strategy, trace=True)
        assert result.answer
        assert result.stats.counter("nodes.visited") >= len(result.answer)

    @pytest.mark.parametrize("query", [TRIANGLE, K4])
    def test_auto_planned_cq_raises_after_every_fallback(self, db, query):
        with pytest.raises(ResourceBudgetExceeded):
            db.cq(query, deadline=0)
        result = db.cq(query, deadline=0, on_error="partial")
        assert result.stats.degraded
        assert [(a.strategy, a.outcome) for a in result.stats.attempts] == [
            (s, "budget") for s in CYCLIC_ROUTES
        ]


class TestAbsentLabel:
    """A label no node carries empties a Yannakakis answer before any
    atom is materialized: without that check, these queries materialized
    602 to 180,903 rows of their label-free atoms on a 600-deep spine."""

    @pytest.fixture(scope="class")
    def db(self):
        return Database(deep_tree(600))

    @pytest.fixture()
    def materialized_rows(self, monkeypatch):
        """Rows produced by ``materialize_atom`` while the test runs."""
        module = importlib.import_module("repro.cq.yannakakis")
        rows = []
        materialize = module.materialize_atom

        def counting(*args, **kwargs):
            schema, out = materialize(*args, **kwargs)
            rows.append(len(out))
            return schema, out

        monkeypatch.setattr(module, "materialize_atom", counting)
        return rows

    @pytest.mark.parametrize(
        "strategy, query",
        [
            ("yannakakis", "ans(x) :- Child+(y, x), Child+(x, z), Lab:keyword(z)"),
            ("rewrite", "ans(x) :- Child+(y, x), Child+(x, z), Lab:keyword(z)"),
            ("rewrite", TRIANGLE + ", Lab:item(x)"),
        ],
    )
    def test_absent_label_materializes_nothing(
        self, db, materialized_rows, strategy, query
    ):
        result = db.cq(query, strategy)
        assert result.answer == set()
        assert sum(materialized_rows) == 0
