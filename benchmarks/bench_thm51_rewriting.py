"""E9 — Theorem 5.1: conjunctive queries → unions of acyclic positive
queries.

Measured shapes:

- the *eager* proof algorithm enumerates all weak orders of the k
  variables — super-exponential in k,
- the *lazy* variant of [35] branches only on demand (ablation A2) and
  still grows exponentially on the star query family (the [35] lower
  bound says some blowup is unavoidable),
- evaluation through the rewriting matches backtracking and is far
  cheaper on larger documents (Corollary 5.2's route).
"""

import pytest

from repro.cq import ConjunctiveQuery, evaluate_backtracking, parse_cq
from repro.datalog.syntax import Atom
from repro.rewrite import (
    RewriteStats,
    evaluate_via_rewriting,
    rewrite_lazy,
    rewrite_to_acyclic_union,
)
from repro.trees import random_tree
from repro.trees.structure import lab

from _benchutil import report, sizes, timed


def star_query(k: int, distinct: bool = False) -> ConjunctiveQuery:
    """k Child+ atoms into a common variable — the family [35] uses for
    the exponential lower bound.  Every source is labelled ``a``, or,
    ``distinct``, source i is labelled ``a{i}``.  With one label for
    all, the query is equivalent to a single arm, so its disjunct counts
    probe the cost of the rewriting, not the lower bound."""
    atoms = [Atom("Child+", (f"x{i}", "z")) for i in range(k)]
    atoms += [Atom(lab(f"a{i}" if distinct else "a"), (f"x{i}",)) for i in range(k)]
    return ConjunctiveQuery(("z",), tuple(atoms))


def _disjunct_growth(title: str, distinct: bool) -> list:
    """Rewrite the star query for k = 2…5 both ways; report and return
    the rows (k, eager orders, eager disjuncts, lazy branches, lazy
    disjuncts)."""
    rows = []
    for k in (2, 3, 4, 5):
        q = star_query(k, distinct)
        eager_stats, lazy_stats = RewriteStats(), RewriteStats()
        n_eager = len(rewrite_to_acyclic_union(q, eager_stats))
        n_lazy = len(rewrite_lazy(q, lazy_stats))
        assert n_eager >= 1 and n_lazy >= 1
        rows.append(
            [
                k,
                eager_stats.orders_considered,
                n_eager,
                lazy_stats.branches,
                n_lazy,
            ]
        )
    report(
        title,
        ["k", "eager orders", "eager disjuncts", "lazy branches", "lazy disjuncts"],
        rows,
    )
    return rows


def test_disjunct_growth():
    rows = _disjunct_growth("E9/Thm5.1: star query rewriting", distinct=False)
    # the disjuncts grow exponentially in k, although the query folds to
    # one arm: the cost of rewriting it
    assert rows[-1][4] > 2 * rows[-2][4]
    # the lazy variant considers far fewer candidates than the eager one
    assert rows[-1][3] < rows[-1][1]


def test_disjunct_growth_distinct_labels():
    rows = _disjunct_growth(
        "E9/Thm5.1: star query rewriting, distinct labels", distinct=True
    )
    # exponential growth of disjuncts in k (the [35] lower bound shape)
    assert rows[-1][4] > 2 * rows[-2][4]
    assert rows[-1][3] < rows[-1][1]


def test_rewriting_route_correct_and_fast():
    q = star_query(3)
    rows = []
    for n in sizes((100, 200, 400), (50, 100, 200)):
        t = random_tree(n, seed=1, alphabet=("a", "b"))
        tr = timed(evaluate_via_rewriting, q, t, repeats=1)
        tb = timed(evaluate_backtracking, q, t, repeats=1)
        assert evaluate_via_rewriting(q, t) == evaluate_backtracking(q, t)
        rows.append([n, tr, tb])
    report(
        "E9/Cor5.2: evaluate via rewriting vs backtracking",
        ["n", "rewrite+Yannakakis", "backtracking"],
        rows,
    )


@pytest.mark.benchmark(group="thm51")
def test_bench_lazy_rewrite(benchmark):
    q = star_query(4)
    benchmark(rewrite_lazy, q)


@pytest.mark.benchmark(group="thm51")
def test_bench_eager_rewrite(benchmark):
    q = star_query(4)
    benchmark.pedantic(rewrite_to_acyclic_union, args=(q,), rounds=2, iterations=1)
