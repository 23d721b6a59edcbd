"""E1 — Figure 1: tree representations and axis interdefinability.

Regenerates the content of Figure 1 (the (FirstChild, NextSibling)
binary representation) as an executable claim: index construction is
linear, the representation round-trips, and the §2 equations relating
<pre, <post, Child+ and Following hold on every pair of a sample.
"""

import pytest

from repro.complexity import classify_growth, fit_loglog_slope
from repro.trees import Tree, TreeStructure, random_tree
from repro.trees.orders import (
    descendant_from_orders,
    following_from_orders,
    post_lt_from_axes,
    pre_lt_from_axes,
)

from _benchutil import report, sizes, timed


def _rebuild(tree: Tree) -> Tree:
    return Tree(tree.label, tree.labels, tree.parent, tree.children)


def test_index_construction_scaling():
    from repro.complexity import ScalingPoint

    points = []
    for n in sizes((2_000, 4_000, 8_000, 16_000, 32_000), (1_000, 2_000, 4_000)):
        t = random_tree(n, seed=1)
        points.append(ScalingPoint(n, timed(_rebuild, t)))
    slope = fit_loglog_slope(points)
    report(
        "E1/Fig1: index construction",
        ["n", "seconds"],
        [[p.size, p.seconds] for p in points],
    )
    print(f"fitted slope {slope:.2f} ({classify_growth(points)})")
    assert slope < 1.6  # linear-ish


def test_binary_representation_is_complete():
    """FirstChild + NextSibling determine the whole tree (Figure 1b)."""
    t = random_tree(3_000, seed=2)
    s = TreeStructure(t)
    # reconstruct parent/children purely from the two binary relations
    first_child = dict(s.pairs("FirstChild"))
    next_sibling = dict(s.pairs("NextSibling"))
    parent = [-1] * t.n
    for p, fc in first_child.items():
        c = fc
        while True:
            parent[c] = p
            if c not in next_sibling:
                break
            c = next_sibling[c]
    assert parent == t.parent.tolist()


def test_order_axis_interdefinability_sampled():
    t = random_tree(400, seed=3)
    for u in range(0, t.n, 7):
        for v in range(0, t.n, 11):
            if u == v:
                continue
            assert pre_lt_from_axes(t, u, v) == (u < v)
            assert post_lt_from_axes(t, u, v) == (t.post[u] < t.post[v])
            assert descendant_from_orders(t, u, v) == t.is_descendant(u, v)
            assert following_from_orders(t, u, v) == t.is_following(u, v)


@pytest.mark.benchmark(group="fig1")
def test_bench_build_tree(benchmark):
    t = random_tree(20_000, seed=4)
    benchmark(_rebuild, t)


@pytest.mark.benchmark(group="fig1")
def test_bench_axis_checks(benchmark):
    t = random_tree(20_000, seed=5)

    def probe():
        acc = 0
        for u in range(0, t.n, 17):
            for v in range(0, t.n, 23):
                acc += t.is_descendant(u, v)
        return acc

    benchmark(probe)
