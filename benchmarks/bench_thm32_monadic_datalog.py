"""E4 — Theorem 3.2: monadic datalog over τ⁺ in O(|P| · |Dom|).

Two sweeps: data scaling with a fixed program (expect linear), and
program scaling with a fixed tree (expect linear), plus the naive
rule-matching baseline for contrast.
"""

import pytest

from repro.complexity import ScalingPoint, fit_loglog_slope
from repro.datalog import evaluate_naive, parse_program
from repro.datalog.evaluate import evaluate
from repro.trees import random_tree
from repro.workloads import xmark_like

from _benchutil import report, sizes, timed

ANCESTOR_PROGRAM = """
P0(x) :- Lab:a(x).
P0(x) :- NextSibling(x, y), P0(y).
P(x) :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
% query: P
"""


def _wide_program(k: int) -> str:
    """k independent copies of the Example 3.1 program."""
    parts = []
    for i in range(k):
        parts.append(
            f"""
            P0_{i}(x) :- Lab:a(x).
            P0_{i}(x) :- NextSibling(x, y), P0_{i}(y).
            P_{i}(x) :- FirstChild(x, y), P0_{i}(y).
            P0_{i}(x) :- P_{i}(x).
            """
        )
    return "\n".join(parts) + "% query: P_0"


def test_linear_in_data():
    prog = parse_program(ANCESTOR_PROGRAM)
    points = []
    for n in sizes((1_000, 2_000, 4_000, 8_000), (500, 1_000, 2_000)):
        t = random_tree(n, seed=1)
        points.append(ScalingPoint(n, timed(evaluate, prog, t)))
    slope = fit_loglog_slope(points)
    report(
        "E4/Thm3.2: fixed program, growing tree",
        ["|Dom|", "seconds"],
        [[p.size, p.seconds] for p in points],
    )
    assert slope < 1.5


def test_linear_in_program():
    t = random_tree(sizes(1_500, 750), seed=2)
    points = []
    for k in sizes((2, 4, 8, 16), (2, 4, 8)):
        prog = parse_program(_wide_program(k))
        points.append(ScalingPoint(k, timed(evaluate, prog, t)))
    slope = fit_loglog_slope(points)
    report(
        "E4/Thm3.2: fixed tree, growing program",
        ["|P| factor", "seconds"],
        [[p.size, p.seconds] for p in points],
    )
    assert slope < 1.5


def test_pipeline_beats_naive_on_recursion():
    """Naive bottom-up iterates fixpoint rounds over materialized rules;
    the TMNF → Horn-SAT route does one linear pass."""
    prog = parse_program(ANCESTOR_PROGRAM)
    rows = []
    for n in sizes((500, 1_000, 2_000), (250, 500, 1_000)):
        t = random_tree(n, seed=3)
        tp = timed(evaluate, prog, t)
        tn = timed(evaluate_naive, prog, t)
        rows.append([n, tp, tn, f"{tn / max(tp, 1e-9):.1f}x"])
    report(
        "E4/Thm3.2: pipeline vs naive bottom-up",
        ["n", "TMNF+Minoux", "naive", "speedup"],
        rows,
    )
    assert rows[-1][1] < rows[-1][2]


@pytest.mark.benchmark(group="thm32")
def test_bench_datalog_on_xmark(benchmark):
    prog = parse_program(
        """
        InItem(x) :- Lab:item(x).
        InItem(x) :- Child(y, x), InItem(y).
        Kw(x) :- InItem(x), Lab:keyword(x).
        % query: Kw
        """
    )
    t = xmark_like(200, seed=4)
    benchmark(evaluate, prog, t)
