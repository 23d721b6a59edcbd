"""E5 — Definition 3.4: TMNF normalization is linear-size and
semantics-preserving; TMNF evaluation is linear.
"""

import pytest

from repro.datalog import is_tmnf, parse_program, to_tmnf
from repro.datalog.evaluate import evaluate
from repro.trees import random_tree
from repro.trees.axes import Axis

from _benchutil import report, sizes, timed


def _axis_program(axes: list[str]) -> str:
    rules = [f"Q{i}(x) :- {axis}(y, x), Lab:a(y)." for i, axis in enumerate(axes)]
    return "\n".join(rules) + "% query: Q0"


def test_translation_size_is_linear():
    axes = [
        Axis.CHILD.value,
        Axis.CHILD_PLUS.value,
        Axis.FOLLOWING.value,
        Axis.NEXT_SIBLING_PLUS.value,
    ]
    rows = []
    for k in (1, 2, 4, 8):
        prog = parse_program(_axis_program((axes * k)[: 4 * k]))
        out = to_tmnf(prog)
        assert is_tmnf(out)
        rows.append([prog.size(), out.size(), f"{out.size() / prog.size():.1f}x"])
    report(
        "E5/Def3.4: TMNF translation size",
        ["|P| in", "|P| out", "blowup"],
        rows,
    )
    # output is O(|P|): the blowup factor shrinks as the program grows
    # (shared marking predicates are memoized across rules)
    assert float(rows[-1][2][:-1]) <= float(rows[0][2][:-1])
    # and per-rule cost is bounded: doubling |P| at most roughly doubles out
    assert rows[-1][1] <= 2 * rows[-2][1]


def test_translation_preserves_semantics():
    prog = parse_program(_axis_program([Axis.FOLLOWING.value, Axis.CHILD_PLUS.value]))
    out = to_tmnf(prog)
    for seed in range(3):
        t = random_tree(150, seed=seed)
        assert evaluate(prog, t) == evaluate(out, t, normalize=False)


def test_tmnf_evaluation_linear():
    from repro.complexity import ScalingPoint, fit_loglog_slope

    prog = to_tmnf(parse_program(_axis_program([Axis.FOLLOWING.value])))
    samples = []
    for n in sizes((1_000, 2_000, 4_000, 8_000), (500, 1_000, 2_000)):
        t = random_tree(n, seed=5)
        samples.append((n, timed(evaluate, prog, t, normalize=False, repeats=5)))
    report(
        "E5/Def3.4: TMNF evaluation scaling",
        ["n", "seconds"],
        [[n, sample] for n, sample in samples],
    )
    # the gate fits each size's best run: a stall of the machine slows
    # a run down, never speeds one up
    slope = fit_loglog_slope([ScalingPoint(n, sample.min) for n, sample in samples])
    assert slope < 1.5


@pytest.mark.benchmark(group="def34")
def test_bench_to_tmnf(benchmark):
    prog = parse_program(
        _axis_program(
            [Axis.FOLLOWING.value, Axis.CHILD_PLUS.value, Axis.PRECEDING.value] * 5
        )
    )
    benchmark(to_tmnf, prog)
