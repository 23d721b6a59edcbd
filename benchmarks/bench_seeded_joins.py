"""Index-seeded tree joins: selective CQs and datalog cost O(answer).

Wide trees (one root, n children) with exactly 100 ``hit`` children.
Yannakakis seeds each variable's node set from its label posting lists
and reduces the sets with §2's semi-joins (§4), and grounding runs
forward from the facts (§3), so the nodes the CQ visits and the clauses
grounded stay flat as n grows while the answer stays at 100 nodes.  The
CQ count is the call's own ``nodes.visited`` (its unary head builds no
relation); the datalog count is taken from
``repro.datalog.evaluate.ground``, wrapped by module attribute.  The
times are warm engine calls on one Database per tree.
"""

import importlib

from repro.complexity import ScalingPoint, classify_growth
from repro.engine import Database

from _benchutil import report, sizes, timed

HITS = 100
CQ = "ans(y) :- Child(x, y), Lab:hit(y)"
DATALOG = "M(x) :- Lab:hit(x).\nQ(y) :- NextSibling(x, y), M(x).\n% query: Q"


def _wide(n_children: int) -> str:
    block = n_children // HITS
    kids = (
        "<hit/>" if i % block == block // 2 else "<item/>"
        for i in range(n_children)
    )
    return "<collection>" + "".join(kids) + "</collection>"


def _counted(module_name: str, attr: str, size, run) -> int:
    """Call ``run()`` with ``module.attr`` wrapped; the summed ``size``
    of everything the wrapped function returned."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    total = 0

    def wrapper(*args, **kwargs):
        nonlocal total
        result = original(*args, **kwargs)
        total += size(result)
        return result

    setattr(module, attr, wrapper)
    try:
        run()
    finally:
        setattr(module, attr, original)
    return total


def test_selective_joins_cost_answer_not_document():
    rows = []
    for n in sizes((4_000, 8_000, 16_000, 32_000), (2_000, 4_000, 8_000)):
        db = Database.from_xml(_wide(n))

        def cq():
            return db.cq(CQ, "yannakakis")

        def datalog():
            return db.datalog(DATALOG, "minoux")

        assert len(cq().answer) == HITS and len(datalog().answer) == HITS
        visited = db.cq(CQ, "yannakakis", trace=True).stats.counters["nodes.visited"]
        grounded = _counted("repro.datalog.evaluate", "ground", len, datalog)
        rows.append(
            [db.tree.n, visited, grounded,
             timed(cq, repeats=5), timed(datalog, repeats=5)]
        )
    report(
        "Seeded joins: wide trees at 100 hits",
        ["nodes", "cq nodes visited", "datalog clauses grounded",
         "cq warm execute", "datalog warm execute"],
        rows,
    )
    for column in (1, 2):
        points = [ScalingPoint(r[0], r[column]) for r in rows]
        assert classify_growth(points) == "constant-ish", rows
