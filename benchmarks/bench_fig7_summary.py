"""E17 — Figure 7: the complexity-and-expressiveness summary, regenerated
empirically.

One row per query language implemented in this library: a shared data
sweep, the fitted log-log slope, the growth class, and the complexity
the paper states.  Then the expressiveness arrows of Figure 7 are
executed as translations and checked for semantic preservation.
"""

import pytest

from repro.automata import label_count_mod_automaton, run_automaton
from repro.complexity import ScalingPoint, classify_growth, fit_loglog_slope
from repro.consistency import evaluate_boolean_xproperty
from repro.cq import parse_cq, yannakakis_unary
from repro.datalog import parse_program
from repro.datalog.evaluate import evaluate as datalog_evaluate
from repro.logic import cq_to_fo, fo_eval
from repro.trees import random_tree
from repro.workloads import random_cq
from repro.trees.axes import Axis
from repro.xpath import (
    evaluate_query,
    evaluate_query_linear,
    parse_xpath,
    xpath_to_cq,
    xpath_to_datalog,
)
from repro.xpath.translate import evaluate_datalog_translation

from _benchutil import record_series, report, sizes as _sizes, timed

XPATH_QUERY = parse_xpath("Child*[lab() = a][not(Child[lab() = b])]/Child+[lab() = c]")
POSITIVE_XPATH = parse_xpath("Child*[lab() = a]/Child+[lab() = c]")
ACYCLIC_CQ = parse_cq("ans(z) :- Child+(x, y), Child(y, z), Lab:a(x), Lab:c(z)")
XPROP_CQ = random_cq(4, 3, axes=(Axis.CHILD_PLUS.value,), seed=1, head_arity=0)
DATALOG = parse_program(
    """
    M(x) :- Lab:a(x).
    M(x) :- Child(y, x), M(y).
    % query: M
    """
)
AUTOMATON = label_count_mod_automaton("a", 3)


def test_summary_table():
    languages = [
        ("Core XPath (linear eval)", lambda t: evaluate_query_linear(XPATH_QUERY, t),
         "PTIME-complete (combined)",
         _sizes((1_000, 2_000, 4_000), (500, 1_000, 2_000))),
        ("pos. Core XPath", lambda t: evaluate_query_linear(POSITIVE_XPATH, t),
         "LOGCFL-complete", _sizes((1_000, 2_000, 4_000), (500, 1_000, 2_000))),
        ("acyclic CQ (Yannakakis)", lambda t: yannakakis_unary(ACYCLIC_CQ, t),
         "O(||A||·|Q|)", _sizes((500, 1_000, 2_000), (250, 500, 1_000))),
        ("CQ[X] (arc-consistency)", lambda t: evaluate_boolean_xproperty(XPROP_CQ, t),
         "P via Thm 6.5", _sizes((500, 1_000, 2_000), (250, 500, 1_000))),
        ("monadic datalog", lambda t: datalog_evaluate(DATALOG, t),
         "O(|P|·|Dom|)", _sizes((1_000, 2_000, 4_000), (500, 1_000, 2_000))),
        ("MSO (tree automaton)", lambda t: run_automaton(AUTOMATON, t),
         "linear data complexity",
         _sizes((5_000, 10_000, 20_000), (2_000, 4_000, 8_000))),
    ]
    rows = []
    for name, fn, paper_bound, sweep in languages:
        points = []
        for n in sweep:
            t = random_tree(n, seed=7)
            points.append(ScalingPoint(n, timed(fn, t)))
        slope = fit_loglog_slope(points)
        record_series(f"summary/{name}", points)
        rows.append(
            [name, f"{slope:.2f}", classify_growth(points), paper_bound]
        )
    report(
        "E17/Fig7: empirical data-complexity summary",
        ["language", "slope", "measured class", "paper (combined) bound"],
        rows,
    )
    # every implemented language has polynomial (here: at most quadratic)
    # data complexity — the Figure 7 languages are all inside P for data
    for row in rows:
        assert float(row[1]) < 2.5, row


def test_expressiveness_arrows():
    """Figure 7's arrows, executed: conjunctive Core XPath → CQ,
    Core XPath → monadic datalog, CQ → positive FO."""
    t = random_tree(60, seed=8)
    # conjunctive Core XPath -> CQ
    cq = xpath_to_cq(POSITIVE_XPATH)
    assert yannakakis_unary(cq, t) == evaluate_query(POSITIVE_XPATH, t)
    # Core XPath (with negation) -> stratified monadic datalog
    prog = xpath_to_datalog(XPATH_QUERY)
    assert evaluate_datalog_translation(prog, t) == evaluate_query(XPATH_QUERY, t)
    # CQ -> positive FO
    formula = cq_to_fo(ACYCLIC_CQ.with_head(()))
    from repro.cq import evaluate_backtracking

    assert fo_eval(formula, t) == bool(evaluate_backtracking(ACYCLIC_CQ, t))


@pytest.mark.benchmark(group="fig7")
def test_bench_core_xpath_linear(benchmark):
    t = random_tree(10_000, seed=9)
    benchmark(evaluate_query_linear, XPATH_QUERY, t)


@pytest.mark.benchmark(group="fig7")
def test_bench_core_xpath_memoized_denotational(benchmark):
    """Ablation A3: the memoized denotational evaluator (the [33]
    dynamic-programming algorithm) on the same query and data."""
    t = random_tree(2_000, seed=9)
    benchmark.pedantic(evaluate_query, args=(XPATH_QUERY, t), rounds=3, iterations=1)
