"""The seeded steps of the linear context-set evaluator.

A ``Child``/``Child+``/``Child*`` step with a positive qualifier starts
from its qualifier sets and keeps the candidates below a source with an
interval semi-join (``repro.xpath.contextset``).  The differential
suite checks its answers; this module pins what it costs:

- **memory** — on the served benchmark's two nested-qualifier queries
  the evaluator's sets stay the size of the label partitions it reads,
  not of the document (the whole-document sets peaked at 214 B/node),
  and a label path joins the posting arrays without boxing them into
  sets (29.3 and 22.1 B/node when each step built one);
- **short-circuit** — an empty frontier ends the path, so a spine
  through an absent label scans nothing after it;
- **budgets** — the seeded step charges its inputs, so a visit budget
  or a zero deadline stops it like any axis application.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.engine import Database
from repro.errors import ResourceBudgetExceeded
from repro.workloads import xmark_like

#: the two qualifier XPath queries of the served xmark-twig workload
NESTED_QUALIFIERS = (
    "Child+[lab() = item][Child[lab() = shipping]]/Child[lab() = name]",
    "Child+[lab() = person][not(Child[lab() = profile])]/Child[lab() = name]",
)

#: two label paths of the served xmark-point workload
LABEL_PATHS = (
    "Child+[lab() = item]/Child[lab() = name]",
    "Child+[lab() = person]/Child[lab() = emailaddress]",
)

# 10 nodes: 0 a, 1 b, 2 c, 3 b, 4 c, 5 b, 6 a, 7 b, 8 c, 9 d
DOC = "<a><b><c/><b/></b><c><b/></c><a><b><c/></b></a><d/></a>"

#: b-nodes with a c-child, then their c-children
NESTED = "Child+[lab() = b][Child[lab() = c]]/Child[lab() = c]"


@pytest.fixture(scope="module")
def xmark_db():
    return Database(xmark_like(500))


def _peak_per_node(db, query):
    """Traced peak of one warm explicit `linear` call, in bytes per node."""
    db.xpath(query, "linear")  # index, parse cache and plan warm
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = db.xpath(query, "linear")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.answer
    return peak / db.tree.n


@pytest.mark.parametrize("query", NESTED_QUALIFIERS)
def test_linear_peak_stays_label_sized(xmark_db, query):
    per_node = _peak_per_node(xmark_db, query)
    assert per_node <= 32, f"linear peaked at {per_node:.1f} B/node on {query}"


@pytest.mark.parametrize("query", LABEL_PATHS)
def test_label_path_joins_posting_arrays_unboxed(xmark_db, query):
    per_node = _peak_per_node(xmark_db, query)
    assert per_node <= 12, f"linear peaked at {per_node:.1f} B/node on {query}"


def test_absent_label_ends_the_path():
    db = Database.from_xml(DOC)
    db.xpath("Self")  # warm the index outside observation
    result = db.xpath("Child+[lab() = zzz]/Child[lab() = b]", "linear",
                      trace=True)
    assert result.answer == set()
    counters = result.stats.counters
    # {root} against the empty zzz-stream; the b-step never runs
    assert counters["linear.axis_applications"] == 1
    assert counters["sj.elements_scanned"] == 1
    # _touch streams zzz (0) and b (4), then the one scan charges {root}
    assert counters["nodes.visited"] == 4 + 1


def test_nested_qualifier_exact_counters():
    db = Database.from_xml(DOC)
    db.xpath("Self")  # warm the index outside observation
    result = db.xpath(NESTED, "linear", trace=True)
    assert set(result.answer) == {2, 8}
    counters = result.stats.counters
    # the qualifier's reverse image, then two seeded steps
    assert counters["linear.axis_applications"] == 3
    # Child+ from {0} over b ∩ parent(c) = {1, 7}: 1 + 2 scanned;
    # Child from {1, 7} over the c-partition {2, 4, 8}: 2 + 3 scanned
    assert counters["sj.elements_scanned"] == 3 + 5
    # _touch streams b and c (4 + 3); the reverse image charges the
    # c-set and its parents {0, 1, 7} (3 + 3); the semi-joins charge
    # their inputs (3, 5) and the descendant one its output {1, 7} (2)
    assert counters["nodes.visited"] == 7 + 6 + 3 + 2 + 5


def test_seeded_steps_charge_the_visit_budget():
    db = Database.from_xml(DOC)
    db.xpath("Self")
    unbudgeted = db.xpath(NESTED, "linear", trace=True).stats.counters[
        "nodes.visited"
    ]
    # everything charged before the first seeded step scans: _touch
    # (7) and the qualifier's reverse image (6).  A budget of exactly
    # that passes only a step that charges nothing.
    before_seeded = 7 + 6
    assert unbudgeted > before_seeded
    for ceiling in (before_seeded, unbudgeted - 1):
        with pytest.raises(ResourceBudgetExceeded) as info:
            db.xpath(NESTED, "linear", max_visited=ceiling)
        assert info.value.reason == "max_visited"
    budgeted = db.xpath(NESTED, "linear", max_visited=unbudgeted)
    assert set(budgeted.answer) == {2, 8}


def test_label_free_seeded_query_honours_a_zero_deadline():
    # no label test, so _touch charges nothing and the evaluator's own
    # charges are the first the budget sees
    db = Database.from_xml(DOC)
    db.xpath("Self")
    query = "Child+[Child]/Child"
    assert db.xpath(query, "linear").answer  # answers without a budget
    with pytest.raises(ResourceBudgetExceeded) as info:
        db.xpath(query, "linear", deadline=0)
    assert info.value.reason == "deadline"
