"""E14 — holistic twig joins (Section 6, [13]/[48]) vs binary
structural-join plans.

The holistic algorithms never materialize edge-join intermediates; the
binary plan does.  On patterns whose early joins are unselective, the
binary plan's peak intermediate dwarfs both the output and the holistic
state — that size gap is the experiment's headline number.  The AC-based
generalization (Prop. 6.10) is measured alongside (ablation A4).

The engine's planned twig route is the same binary plan over the
engine index's exactly pruned streams (``DocumentIndex.twig_streams``).
Pruning is the full reducer of Props. 6.9/6.10, so that plan holds no
more partial rows after its first edge than the answer has: the series
marked "engine plan" gate it beside the raw-stream plan.
"""

import pytest

from repro.complexity import ScalingPoint, classify_growth
from repro.engine import DocumentIndex
from repro.twigjoin import (
    JoinPlanStats,
    binary_join_plan,
    holistic_via_arc_consistency,
    parse_twig,
    twig_stack,
    twig_stack_optimal,
)
from repro.twigjoin.pathstack import _streams
from repro.twigjoin.twigstack import TwigStats
from repro.trees.generate import tree_from_parents
from repro.workloads import xmark_like

from _benchutil import report, sizes, timed

#: A pattern whose (item, description) join is big but whose keyword
#: branch is selective: binary plans pay for the big join first.
PATTERN = parse_twig("//item[.//keyword]//description")


def _skewed_tree(blocks: int, block_size: int):
    """Many a/b chains, few of which carry the selective c leaf —
    maximal intermediate-vs-output skew for //a[c]//b."""
    parents = [-1]
    labels = ["r"]
    for block in range(blocks):
        a = len(parents)
        parents.append(0)
        labels.append("a")
        cursor = a
        for _ in range(block_size):
            b = len(parents)
            parents.append(cursor)
            labels.append("b")
            cursor = b
        if block == 0:  # only the first block matches the twig fully
            c = len(parents)
            parents.append(a)
            labels.append("c")
    return tree_from_parents(parents, labels)


def _a_chain(depth: int):
    """``depth`` nested a's, each with a b leaf, and one c under the
    deepest: every a has a b below it, only the deepest a c child."""
    parents, labels = [-1], ["a"]
    for level in range(depth):
        a = len(parents) - 1 if level else 0
        parents.append(a)
        labels.append("b")
        if level < depth - 1:
            parents.append(a)
            labels.append("a")
        else:
            parents.append(a)
            labels.append("c")
    return tree_from_parents(parents, labels)


def _engine_plan(pattern, t, stats=None):
    """The engine's planned twig route: the binary plan over the
    index's exactly pruned streams."""
    return binary_join_plan(
        pattern, t, stats=stats, streams=DocumentIndex(t).twig_streams(pattern)
    )


def _max_after_first_edge(stats: JoinPlanStats) -> int:
    return max(stats.intermediate_sizes[1:], default=0)


def test_intermediate_size_gap():
    t = _skewed_tree(blocks=30, block_size=30)
    # the unselective //b branch precedes the selective /c branch in the
    # pattern's (fixed) join order: binary plans materialize the big
    # a//b join before c can prune it
    pattern = parse_twig("//a[.//b]/c")
    bj_stats = JoinPlanStats()
    ts_stats = TwigStats()
    out_binary = binary_join_plan(pattern, t, stats=bj_stats)
    out_twig = twig_stack(pattern, t, stats=ts_stats)
    out_ac = holistic_via_arc_consistency(pattern, t)
    engine_stats = JoinPlanStats()
    out_engine = _engine_plan(pattern, t, stats=engine_stats)
    assert out_binary == out_twig == out_ac == out_engine
    rows = [
        ["output size", len(out_twig)],
        ["binary plan max intermediate", bj_stats.max_intermediate],
        ["binary plan total intermediate", bj_stats.total_intermediate],
        ["twig_stack path solutions", ts_stats.path_solutions],
        ["arc-consistency solutions touched", len(out_ac)],
        ["engine plan max intermediate", engine_stats.max_intermediate],
        ["engine plan total intermediate", engine_stats.total_intermediate],
    ]
    report(
        "E14: intermediate results, //a[.//b]/c on skewed data",
        ["metric", "value"],
        rows,
    )
    # the binary plan materializes far more than the output...
    assert bj_stats.max_intermediate > 10 * max(len(out_binary), 1)
    # ...unless its streams are pruned exactly first: then no partial
    # row after the first edge fails to extend
    assert _max_after_first_edge(engine_stats) <= len(out_engine)
    # ...while the AC-based holistic evaluation is output-sensitive
    # (Prop. 6.10: its enumeration work tracks |Q(A)|).
    assert len(out_ac) == len(out_binary)
    # Honest ablation: the stack-based variant without the getNext
    # support filter also over-produces path solutions on /-edges —
    # the known TwigStack suboptimality for child edges.
    assert ts_stats.path_solutions >= len(out_twig)


def test_times_on_xmark():
    t = xmark_like(sizes(250, 120), seed=1)
    rows = []
    t_twig = timed(twig_stack, PATTERN, t)
    t_ac = timed(holistic_via_arc_consistency, PATTERN, t)
    t_binary = timed(binary_join_plan, PATTERN, t)
    assert (
        twig_stack(PATTERN, t)
        == holistic_via_arc_consistency(PATTERN, t)
        == binary_join_plan(PATTERN, t)
    )
    rows.append([t.n, t_twig, t_ac, t_binary])
    report(
        "E14: //item[.//keyword]//description on XMark-like data",
        ["n", "twig_stack", "arc-consistency", "binary joins"],
        rows,
    )


def test_holistic_state_bounded_on_skew():
    """On the skewed workload the binary plan's work is dominated by
    doomed partial matches; holistic wins in wall clock as skew grows."""
    rows = []
    for blocks in sizes((20, 40), (10, 20)):
        t = _skewed_tree(blocks=blocks, block_size=40)
        pattern = parse_twig("//a[c]//b")
        tt = timed(twig_stack, pattern, t, repeats=1)
        tb = timed(binary_join_plan, pattern, t, repeats=1)
        te = timed(_engine_plan, pattern, t, repeats=1)
        engine_stats = JoinPlanStats()
        out = _engine_plan(pattern, t, stats=engine_stats)
        assert out == twig_stack(pattern, t)
        assert _max_after_first_edge(engine_stats) <= len(out), blocks
        rows.append([blocks, tt, tb, te])
    report(
        "E14: skew sweep //a[c]//b",
        ["blocks", "twig_stack", "binary joins", "engine plan"],
        rows,
    )


def test_engine_plan_on_deep_chain():
    """``//a[.//b]/c`` on an a-chain: the raw-stream plan joins every a
    with every b below it (depth²/2 rows) before the c edge drops all
    but one; the engine plan's streams keep only the deepest a."""
    pattern = parse_twig("//a[.//b]/c")
    rows = []
    for depth in sizes((200, 400, 800), (50, 100, 200)):
        t = _a_chain(depth)
        raw_stats, engine_stats = JoinPlanStats(), JoinPlanStats()
        out = binary_join_plan(pattern, t, stats=raw_stats)
        assert _engine_plan(pattern, t, stats=engine_stats) == out
        assert len(out) == 1
        assert _max_after_first_edge(engine_stats) <= len(out), depth
        rows.append(
            [
                depth,
                raw_stats.max_intermediate,
                engine_stats.max_intermediate,
                timed(binary_join_plan, pattern, t, repeats=1),
                timed(_engine_plan, pattern, t, repeats=3),
            ]
        )
    report(
        "E14: a-chain //a[.//b]/c, raw streams vs engine plan",
        [
            "depth",
            "binary plan max intermediate",
            "engine plan max intermediate",
            "binary joins",
            "engine plan",
        ],
        rows,
    )


def test_binary_descendant_edge_is_linear():
    """The binary plan's ``//`` edge slices the pre-order candidate
    stream by each anchor's interval (§2's structural join), so it costs
    O(input + output).  The gate: time against |input| + |output| fits
    as linear.  Scanning the whole stream per partial row was quadratic
    (slope 1.9 on this sweep)."""
    pattern = parse_twig("//parlist//keyword")
    rows = []
    for n_items in sizes((500, 1000, 2000, 4000), (250, 500, 1000)):
        t = xmark_like(n_items, seed=0)
        streams = _streams(pattern, t)
        out = binary_join_plan(pattern, t, streams=streams)
        assert out == twig_stack(pattern, t)
        rows.append(
            [
                sum(len(s) for s in streams) + len(out),
                len(out),
                timed(binary_join_plan, pattern, t, streams=streams, repeats=5),
            ]
        )
    report(
        "E14: binary plan //parlist//keyword, input + output sweep",
        ["input + output", "rows", "binary joins"],
        rows,
    )
    points = [ScalingPoint(r[0], r[2]) for r in rows]
    assert classify_growth(points) == "linear", rows


def test_getnext_filter_optimality():
    """The full TwigStack getNext head ([13]) vs the unfiltered stack
    sweep: on //-only twigs with unproductive regions, the filter cuts
    pushes and path solutions to (near) the useful ones."""
    from repro.trees.generate import tree_from_parents

    parents, labels = [-1], ["r"]
    for block in range(200):
        a = len(parents)
        parents.append(0)
        labels.append("a")
        parents.append(a)
        labels.append("b")
        if block % 50 == 0:
            parents.append(a)
            labels.append("c")
    t = tree_from_parents(parents, labels)
    pattern = parse_twig("//a[.//b][.//c]")
    plain, filtered = TwigStats(), TwigStats()
    out_plain = twig_stack(pattern, t, stats=plain)
    out_filtered = twig_stack_optimal(pattern, t, stats=filtered)
    assert out_plain == out_filtered
    rows = [
        ["output size", len(out_plain), len(out_filtered)],
        ["pushes", plain.pushes, filtered.pushes],
        ["path solutions", plain.path_solutions, filtered.path_solutions],
    ]
    report(
        "E14: TwigStack getNext filter (//a[.//b][.//c], 4/200 productive)",
        ["metric", "no filter", "getNext filter"],
        rows,
    )
    assert filtered.pushes < plain.pushes / 5


def test_columnar_pruning_vs_plain_streams():
    """The paper's TwigStack over the raw label streams vs TwigStack over
    the engine index's exactly pruned streams, on the skewed corpus
    where only one block of many is productive.

    Pruning keeps exactly the match participants (a bottom-up reducer,
    then the §2 semi-joins top-down); the stack machinery then only
    ever sees the productive block.  The ≥2x band at the largest size
    is this module's acceptance gate."""
    pattern = parse_twig("//a[c]//b")
    rows = []
    for blocks in sizes((20, 40, 80), (10, 20)):
        t = _skewed_tree(blocks=blocks, block_size=40)
        index = DocumentIndex(t)
        plain = twig_stack(pattern, t)
        pruned = twig_stack(pattern, t, streams=index.twig_streams(pattern))
        assert set(pruned) == set(plain)
        t_plain = timed(twig_stack, pattern, t)
        t_pruned = timed(
            lambda: twig_stack(pattern, t, streams=index.twig_streams(pattern))
        )
        rows.append(
            [
                blocks,
                len(plain),
                t_plain,
                t_pruned,
                f"{t_plain / max(t_pruned, 1e-9):.1f}x",
            ]
        )
    report(
        "E14: //a[c]//b, plain streams vs columnar-pruned streams",
        ["blocks", "matches", "plain streams", "pruned streams", "plain/pruned"],
        rows,
    )
    # the acceptance gate: ≥2x at the largest size
    assert rows[-1][2] > 2.0 * rows[-1][3], (
        f"pruned streams won only {rows[-1][2] / rows[-1][3]:.2f}x"
    )


@pytest.mark.benchmark(group="twig")
def test_bench_twig_stack_optimal(benchmark):
    t = xmark_like(300, seed=2)
    benchmark.pedantic(twig_stack_optimal, args=(PATTERN, t), rounds=3, iterations=1)


@pytest.mark.benchmark(group="twig")
def test_bench_twig_stack(benchmark):
    t = xmark_like(300, seed=2)
    benchmark.pedantic(twig_stack, args=(PATTERN, t), rounds=3, iterations=1)


@pytest.mark.benchmark(group="twig")
def test_bench_arc_consistency(benchmark):
    t = xmark_like(300, seed=2)
    benchmark.pedantic(
        holistic_via_arc_consistency, args=(PATTERN, t), rounds=3, iterations=1
    )


@pytest.mark.benchmark(group="twig")
def test_bench_binary_plan(benchmark):
    t = xmark_like(300, seed=2)
    benchmark.pedantic(binary_join_plan, args=(PATTERN, t), rounds=3, iterations=1)
