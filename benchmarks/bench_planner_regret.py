"""Planner regret per query: the planned route against the fastest one.

For every XPath and twig query of the served workloads (``bench/``'s
xmark-point, xmark-twig and ingest mixes, copied here as text) this
times each applicable strategy in-process on the workload's document
family and reports the regret: the planner's route's time ÷ the
fastest applicable route's.  A median over a workload's queries (the
traced ``engine.plan_regret``) hides a slow query behind fast ones, so
the gate is on the per-query maximum: at most 1.5.
"""

from __future__ import annotations

import gc
import time

from repro.cq.query import parse_cq
from repro.engine import Database
from repro.engine.strategies import strategies_for
from repro.twigjoin.pattern import parse_twig
from repro.workloads import dblp_like, xmark_like
from repro.xpath.parser import parse_xpath

from _benchutil import report, sizes

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

PARSERS = {"xpath": parse_xpath, "twig": parse_twig, "cq": parse_cq}

#: ROADMAP item 3's done-criterion
MAX_REGRET = 1.5


def _best_seconds(strategy, parsed, index) -> float:
    """Best of 3; a route slower than 50 ms is timed once."""
    best = float("inf")
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        strategy.execute(parsed, index)
        best = min(best, time.perf_counter() - start)
        if best > 0.05:
            break
    return best


def test_per_query_regret():
    documents = {
        "xmark": Database(xmark_like(sizes(2000, 250), seed=0)),
        "dblp": Database(dblp_like(sizes(1000, 250), seed=0)),
    }
    rows = []
    for family, kind, text in QUERIES:
        db = documents[family]
        parsed = PARSERS[kind](text)
        chosen = db.plan(kind, text).strategy
        times = {
            s.name: _best_seconds(s, parsed, db.index)
            for s in strategies_for(kind, parsed, db.index)
        }
        fastest = min(times, key=times.get)
        regret = times[chosen] / times[fastest]
        rows.append(
            [
                text,
                chosen,
                f"{times[chosen] * 1e3:.2f}",
                fastest,
                f"{times[fastest] * 1e3:.2f}",
                f"{regret:.2f}",
            ]
        )
    report(
        f"planner regret per query (xmark n={documents['xmark'].tree.n}, "
        f"dblp n={documents['dblp'].tree.n})",
        ["query", "chosen", "chosen ms", "fastest", "fastest ms", "regret"],
        rows,
    )
    worst = max(rows, key=lambda row: float(row[-1]))
    assert float(worst[-1]) <= MAX_REGRET, worst
