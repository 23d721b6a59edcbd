"""E16 — Theorem 4.4 / §4 "Tree Data": a fixed MSO-definable query runs
in linear time via its tree automaton (and boolean combinations stay
linear through products).
"""

import pytest

from repro.automata import (
    accepts,
    child_pattern_automaton,
    label_count_mod_automaton,
    label_exists_automaton,
    product_automaton,
    run_automaton,
    selecting_run,
)
from repro.complexity import ScalingPoint, fit_loglog_slope
from repro.trees import random_tree

from _benchutil import report, sizes, timed

AUTOMATON = product_automaton(
    child_pattern_automaton("a", "b"), label_count_mod_automaton("c", 2), "and"
)


def test_linear_run():
    samples = []
    for n in sizes((5_000, 10_000, 20_000, 40_000), (2_000, 4_000, 8_000)):
        t = random_tree(n, seed=1)
        samples.append((n, timed(run_automaton, AUTOMATON, t, repeats=5)))
    report(
        "E16/Thm4.4: automaton run (fixed MSO query)",
        ["n", "seconds"],
        [[n, sample] for n, sample in samples],
    )
    # the gate fits each size's best run: a stall of the machine slows
    # a run down, never speeds one up
    slope = fit_loglog_slope([ScalingPoint(n, sample.min) for n, sample in samples])
    assert slope < 1.4


def test_unary_selection_linear():
    points = []
    automaton = child_pattern_automaton("a", "b")
    for n in sizes((5_000, 10_000, 20_000), (2_000, 4_000, 8_000)):
        t = random_tree(n, seed=2)
        points.append(ScalingPoint(n, timed(selecting_run, automaton, t)))
    slope = fit_loglog_slope(points)
    report(
        "E16/Thm4.4: unary selecting run",
        ["n", "seconds"],
        [[p.size, p.seconds] for p in points],
    )
    assert slope < 1.4


def test_acceptance_is_correct_while_fast():
    t = random_tree(20_000, seed=3)
    expected = any(
        t.has_label(v, "a") and any(t.has_label(c, "b") for c in t.children[v])
        for v in t.nodes()
    ) and (sum(1 for v in t.nodes() if t.has_label(v, "c")) % 2 == 0)
    assert accepts(AUTOMATON, t) == expected


@pytest.mark.benchmark(group="thm44")
def test_bench_automaton_run(benchmark):
    t = random_tree(50_000, seed=4)
    benchmark(run_automaton, AUTOMATON, t)


@pytest.mark.benchmark(group="thm44")
def test_bench_exists_automaton(benchmark):
    t = random_tree(50_000, seed=4)
    benchmark(accepts, label_exists_automaton("a"), t)
