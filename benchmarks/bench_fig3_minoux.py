"""E3 — Figure 3: Minoux' linear-time Horn-SAT vs naive fixpoint.

The workload is chain-heavy (long unit-derivation chains): the naive
algorithm re-scans the whole clause list once per derived atom —
quadratic — while Minoux' queue touches each body occurrence once.
"""

import pytest

from repro.complexity import ScalingPoint, classify_growth, fit_loglog_slope
from repro.hornsat import naive_fixpoint
from repro.hornsat.minoux import minoux
from repro.workloads import random_horn_program

from _benchutil import report, sizes, timed


def test_scaling_shapes():
    minoux_points, naive_points, rows = [], [], []
    for n in sizes((400, 800, 1_600, 3_200), (200, 400, 800)):
        program = random_horn_program(n, n * 2, chain_fraction=0.8, seed=1)
        tm = timed(minoux, program)
        tn = timed(naive_fixpoint, program)
        minoux_points.append(ScalingPoint(n, tm))
        naive_points.append(ScalingPoint(n, tn))
        rows.append([n, tm, tn, f"{tn / max(tm, 1e-9):.1f}x"])
    m_slope = fit_loglog_slope(minoux_points)
    n_slope = fit_loglog_slope(naive_points)
    report(
        "E3/Fig3: Horn-SAT on chain-heavy programs",
        ["atoms", "minoux", "naive fixpoint", "speedup"],
        rows,
    )
    # minoux near-linear; naive pays a large and growing absolute cost
    # (slope comparisons at sub-millisecond scales are too noisy to
    # assert — the constant-factor gap is the robust signal)
    assert m_slope < 1.6, f"minoux slope {m_slope}"
    assert all(n.seconds > 5 * m.seconds for m, n in zip(minoux_points, naive_points))
    assert (naive_points[-1].seconds - minoux_points[-1].seconds) > (
        naive_points[0].seconds - minoux_points[0].seconds
    )


def test_work_bound_is_linear():
    from repro.hornsat import MinouxTrace

    for n in sizes((500, 1_000, 2_000), (250, 500, 1_000)):
        program = random_horn_program(n, n * 3, seed=2)
        trace = MinouxTrace()
        minoux(program, trace=trace)
        assert trace.decrements <= program.size()


@pytest.mark.benchmark(group="fig3")
def test_bench_minoux(benchmark):
    program = random_horn_program(5_000, 10_000, chain_fraction=0.8, seed=3)
    benchmark(minoux, program)


@pytest.mark.benchmark(group="fig3")
def test_bench_naive_fixpoint(benchmark):
    program = random_horn_program(1_000, 2_000, chain_fraction=0.8, seed=3)
    benchmark(naive_fixpoint, program)
