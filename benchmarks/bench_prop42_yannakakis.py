"""E7 — Proposition 4.2: unary conjunctive Core XPath via Yannakakis in
O(||A|| · |Q|): linear in the data and linear in the query, with the
exponential backtracking baseline for contrast.

The bound must hold with no label to seed a variable, on every axis:
four label-free probes, auto-planned through ``Database.cq`` on a spine
(``deep_tree``) and a sibling list (``wide_tree``) up to the served
tree-join sizes, each read ``linear``.  Every call runs under a
deadline, so a route that builds the pairs of an axis fails in seconds.
"""

import pytest

from repro.complexity import ScalingPoint, classify_growth, fit_loglog_slope
from repro.cq import evaluate_backtracking, yannakakis_unary
from repro.engine import Database
from repro.trees import random_tree
from repro.workloads import xmark_like
from repro.workloads.documents import deep_tree, wide_tree
from repro.xpath import parse_xpath, xpath_to_cq

from _benchutil import report, sizes, timed

TWIG = parse_xpath(
    "Child*[lab() = item][Child[lab() = payment]]/Child[lab() = description]"
)
TWIG_CQ = xpath_to_cq(TWIG)

# the full ladders start small: a route that builds an axis relation
# spends its first over-deadline batch on a million pairs, not billions;
# the fast ones span 16x, since below a few thousand nodes the per-call
# engine path (~0.3 ms) outweighs the semi-joins
SPINES = sizes((1_250, 2_500, 5_000, 10_000, 20_000), (1_000, 4_000, 16_000))
SIBLINGS = sizes(
    (1_250, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000),
    (2_500, 10_000, 40_000),
)

#: label-free probes: (query, document family, sizes)
PROBES = {
    "descendant chain": ("ans(x) :- Child+(y, x), Child+(x, z)", deep_tree, SPINES),
    "sibling chain": (
        "ans(x) :- NextSibling+(x, y), NextSibling+(y, z)", wide_tree, SIBLINGS
    ),
    "following": ("ans(x) :- Following(x, y), Child(y, z)", wide_tree, SIBLINGS),
    "triangle": (
        "ans(x) :- Child+(y, x), Child+(z, x), Child(y, z)", deep_tree, SPINES
    ),
}

#: per-call deadline of the probes
DEADLINE_S = 2.0


def _chain_cq(k: int):
    from repro.cq import parse_cq

    atoms = ", ".join(f"Child+(v{i}, v{i+1})" for i in range(k))
    return parse_cq(f"ans(v{k}) :- {atoms}, Lab:a(v0)")


def test_linear_in_data():
    points = []
    for items in sizes((50, 100, 200, 400), (25, 50, 100)):
        t = xmark_like(items, seed=1)
        points.append(ScalingPoint(t.n, timed(yannakakis_unary, TWIG_CQ, t)))
    slope = fit_loglog_slope(points)
    report(
        "E7/Prop4.2: Yannakakis, fixed twig query on XMark-like data",
        ["||A||", "seconds"],
        [[p.size, p.seconds] for p in points],
    )
    assert slope < 1.7


def test_polynomial_in_query():
    t = random_tree(sizes(250, 120), seed=2)
    points = []
    for k in (2, 4, 8):
        q = _chain_cq(k)
        points.append(ScalingPoint(k, timed(yannakakis_unary, q, t)))
    report(
        "E7/Prop4.2: Yannakakis, growing chain query",
        ["|Q| chain length", "seconds"],
        [[p.size, p.seconds] for p in points],
    )
    # growing the query 4x should not grow time by more than ~8x
    assert points[-1].seconds < 10 * points[0].seconds + 0.05


def test_beats_backtracking():
    rows = []
    n = sizes(300, 150)
    t = random_tree(n, seed=3, alphabet=("a", "b"))
    q = _chain_cq(4)
    ty = timed(yannakakis_unary, q, t, repeats=1)
    tb = timed(evaluate_backtracking, q, t, repeats=1)
    rows.append([n, ty, tb, f"{tb / max(ty, 1e-9):.1f}x"])
    report(
        "E7/Prop4.2: Yannakakis vs backtracking (Child+ chain)",
        ["n", "yannakakis", "backtracking", "speedup"],
        rows,
    )
    assert {r[0] for r in evaluate_backtracking(q, t)} == yannakakis_unary(q, t)


@pytest.mark.benchmark(group="prop42")
def test_bench_yannakakis_twig(benchmark):
    t = xmark_like(300, seed=4)
    benchmark(yannakakis_unary, TWIG_CQ, t)


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_label_free_probe_is_linear(probe):
    query, make, ladder = PROBES[probe]
    rows = []
    for n in ladder:
        db = Database(make(n))

        def run():
            return db.cq(query, deadline=DEADLINE_S)

        route = run().stats.strategy
        rows.append([db.tree.n, route, timed(run, repeats=3)])
    report(
        f"E7/Prop4.2: auto-planned label-free {probe} CQ",
        ["nodes", "route", "seconds"],
        rows,
    )
    points = [ScalingPoint(n, seconds) for n, _route, seconds in rows]
    assert classify_growth(points) == "linear", rows
