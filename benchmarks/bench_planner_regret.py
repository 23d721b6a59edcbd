"""Planner regret per query: the planned route against the fastest one.

An auto plan is the cheapest applicable route in registry order.  For
every XPath and twig query of the served workloads (``bench/``'s
xmark-point, xmark-twig and ingest mixes, copied here as text), and for
a probe set of cyclic CQs on XMark-style, wide and deep documents, this
times each applicable strategy in-process under a deadline and reports
the regret: the planned route's time ÷ the fastest applicable route's.
A route that trips the deadline counts as the deadline, a lower bound
on its time, so a tripped alternative can only overstate the regret.  A median over a workload's queries (the traced
``engine.plan_regret``) hides a slow query behind fast ones, so the gate
is on the per-query maximum: at most 1.5.

Cyclic CQs plan ``rewrite`` (Theorem 5.1, Corollary 5.2): linear data
complexity for a fixed query, so a series of auto-planned triangle and
K4 CQs over growing XMark-style documents must read ``linear``.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.complexity import ScalingPoint, classify_growth
from repro.cq.query import parse_cq
from repro.engine import Database
from repro.engine.strategies import strategies_for
from repro.errors import ResourceBudgetExceeded
from repro.twigjoin.pattern import parse_twig
from repro.workloads import dblp_like, xmark_like
from repro.workloads.documents import deep_tree, wide_tree
from repro.xpath.parser import parse_xpath

from _benchutil import report, sizes, timed

#: (document family, kind, query) — bench/workloads.py's XPath and twigs
QUERIES = [
    # xmark-point
    ("xmark", "xpath", "Child+[lab() = item]/Child[lab() = name]"),
    ("xmark", "xpath", "Child+[lab() = person]/Child[lab() = emailaddress]"),
    ("xmark", "xpath", "Child+[lab() = closed_auction]/Child[lab() = price]"),
    ("xmark", "xpath",
     "Child+[lab() = europe]/Child[lab() = item]/Child[lab() = payment]"),
    ("xmark", "twig", "//profile/interest"),
    ("xmark", "twig", "//closed_auction/annotation"),
    # xmark-twig
    ("xmark", "xpath",
     "Child+[lab() = item][Child[lab() = shipping]]/Child[lab() = name]"),
    ("xmark", "xpath",
     "Child+[lab() = person][not(Child[lab() = profile])]/Child[lab() = name]"),
    ("xmark", "twig", "//parlist//keyword"),
    ("xmark", "twig", "//item[shipping]/description//keyword"),
    ("xmark", "twig", "//person[profile/interest]/name"),
    # ingest
    ("dblp", "xpath", "Child+[lab() = article]/Child[lab() = author]"),
    ("dblp", "twig", "//inproceedings/booktitle"),
]

#: cyclic CQs: a triangle over Child+/Child (tree-width 2), a Boolean
#: triangle and K4 (tree-width 3) over Child+, and a sibling cycle
CYCLIC = {
    "triangle": "ans(x) :- Child+(y, x), Child+(z, x), Child(y, z)",
    "boolean triangle": "ans() :- Child+(x, y), Child+(y, z), Child+(x, z)",
    "k4": "ans(w) :- Child+(w, x), Child+(w, y), Child+(w, z), "
    "Child+(x, y), Child+(x, z), Child+(y, z)",
    "sibling cycle": "ans(y) :- Child(x, y), Child(x, z), NextSibling+(y, z)",
}

#: per cyclic-probe document family: its generator, its size, and a
#: label that occurs in it (the labeled triangle and K4 select on it)
FAMILIES = {
    "xmark": (xmark_like, sizes(100, 20), "item"),
    "wide": (wide_tree, sizes(1000, 300), "item"),
    "deep": (deep_tree, sizes(300, 100), "section"),
}

PARSERS = {"xpath": parse_xpath, "twig": parse_twig, "cq": parse_cq}

#: ROADMAP item 3's done-criterion
MAX_REGRET = 1.5

#: per-run deadline; a route that trips it counts as this many seconds
DEADLINE_S = sizes(2.0, 0.25)


def _best_seconds(db, kind, parsed, strategy) -> float:
    """Best of 3 under the deadline; a route slower than 50 ms is timed
    once, and a route that trips the deadline counts as the deadline."""
    best = float("inf")
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        try:
            db.run(kind, parsed, strategy, deadline=DEADLINE_S)
        except ResourceBudgetExceeded:
            return DEADLINE_S
        best = min(best, time.perf_counter() - start)
        if best > 0.05:
            break
    return best


def _regret_row(db, kind, text) -> list:
    """[query, chosen, chosen ms, fastest, fastest ms, regret]."""
    parsed = PARSERS[kind](text)
    chosen = db.plan(kind, text).strategy
    times = {
        s.name: _best_seconds(db, kind, parsed, s.name)
        for s in strategies_for(kind, parsed, db.index)
    }
    fastest = min(times, key=times.get)
    regret = times[chosen] / times[fastest]
    return [
        text,
        chosen,
        f"{times[chosen] * 1e3:.2f}",
        fastest,
        f"{times[fastest] * 1e3:.2f}",
        f"{regret:.2f}",
    ]


def _assert_regret(title, rows) -> None:
    report(
        title,
        ["query", "chosen", "chosen ms", "fastest", "fastest ms", "regret"],
        rows,
    )
    worst = max(rows, key=lambda row: float(row[-1]))
    assert float(worst[-1]) <= MAX_REGRET, worst


def test_per_query_regret():
    documents = {
        "xmark": Database(xmark_like(sizes(2000, 250), seed=0)),
        "dblp": Database(dblp_like(sizes(1000, 250), seed=0)),
    }
    _assert_regret(
        f"planner regret per query (xmark n={documents['xmark'].tree.n}, "
        f"dblp n={documents['dblp'].tree.n})",
        [_regret_row(documents[family], kind, text) for family, kind, text in QUERIES],
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cyclic_cq_regret(family):
    make, size, label = FAMILIES[family]
    db = Database(make(size))
    queries = list(CYCLIC.values()) + [
        f"{CYCLIC['triangle']}, Lab:{label}(x)",
        f"{CYCLIC['k4']}, Lab:{label}(w)",
    ]
    rows = [_regret_row(db, "cq", text) for text in queries]
    assert {row[1] for row in rows} == {"rewrite"}, rows
    _assert_regret(
        f"planner regret per cyclic CQ ({family} n={db.tree.n}, "
        f"deadline {DEADLINE_S} s)",
        rows,
    )


@pytest.mark.parametrize("name", ["triangle", "k4"])
def test_auto_planned_cyclic_cq_is_linear(name):
    text = CYCLIC[name]
    rows = []
    # large enough that the data sets the time: below ~6k nodes the
    # per-call rewriting and engine path (~0.3 ms) outweigh the
    # semi-joins, and the series reads constant-ish
    for n_items in sizes((400, 800, 1600, 3200), (200, 400, 800, 1600)):
        db = Database(xmark_like(n_items, seed=0))
        assert db.plan("cq", text).strategy == "rewrite"
        rows.append([db.tree.n, timed(db.cq, text, repeats=3)])
    report(
        f"auto-planned {name} CQ on XMark-style documents",
        ["nodes", "cq (rewrite)"],
        rows,
    )
    points = [ScalingPoint(n, seconds) for n, seconds in rows]
    assert classify_growth(points) == "linear", rows
