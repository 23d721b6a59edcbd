"""Shared helpers for the benchmark suite (imported by every bench_*).

Every ``bench_*.py`` regenerates one table/figure-equivalent of the
paper (see the experiment index in DESIGN.md).  Timing claims are about
*shape* — linear vs quadratic vs exponential, who wins where — so the
assertions use generous factors to stay robust on noisy machines, and
each module prints a small report table (visible with ``-s`` or in
bench_output.txt).

Since the telemetry PR the same rows also feed the process-wide
:data:`repro.perf.RECORDER`: :func:`timed` returns a
:class:`~repro.perf.Sample` (a float carrying min/median/IQR/repeats),
and :func:`report` both prints the table and records it — deriving
size-sweep series with fitted growth classes — so the text report and
the ``BENCH_<n>.json`` written by ``repro bench run`` can never
disagree.  Pass *raw* values (ints, floats, Samples) in report rows;
formatting happens here.
"""

from __future__ import annotations

import gc
import os
import time

from repro.perf import RECORDER, Sample

collect_ignore: list[str] = []

#: CI smoke mode: REPRO_BENCH_FAST=1 shrinks instance sizes so a bench
#: module finishes in seconds (shape assertions still run).
FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def sizes(full, fast):
    """The full size ladder, or the reduced one under REPRO_BENCH_FAST."""
    return fast if FAST else full


def timed(fn, *args, repeats: int = 3, warmup: "int | None" = None, **kwargs) -> Sample:
    """Wall-clock :class:`Sample` (median seconds, float-compatible) of
    ``fn(*args)``.

    A warmup pass runs first when repeating (defaults: 1 warmup if
    ``repeats > 1``, else 0 — single-shot timings are reserved for
    expensive baselines where doubling the cost is worse than the
    cold-start noise).
    """
    if warmup is None:
        warmup = 1 if repeats > 1 else 0
    for _ in range(warmup):
        fn(*args, **kwargs)
    samples = []
    for _ in range(repeats):
        # start every window with no collection pending: otherwise a
        # gen-2 pause owed to earlier allocations (another size, another
        # module) can land inside one short window and bend a fitted slope
        gc.collect()
        start = time.perf_counter()
        fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
    return Sample.from_times(samples)


def _format_cell(cell) -> str:
    if isinstance(cell, float):  # Sample included — seconds-scale values
        return f"{float(cell):.5f}"
    return str(cell)


def report(title: str, headers, rows) -> None:
    """Print one report table and record it into the telemetry sink.

    Rows should carry raw values; any column of Samples (seconds) or
    ints (deterministic counts) under a numeric first column (the sweep
    size) becomes a recorded series, whose fitted slope and growth
    class are printed under the table.
    """
    from repro.complexity import format_table

    rows = [list(r) for r in rows]
    derived = RECORDER.record_table(title, headers, rows)
    print(f"\n=== {title} ===")
    print(format_table(headers, [[_format_cell(c) for c in row] for row in rows]))
    for series in derived:
        slope, growth = series.slope(), series.growth()
        if slope is not None:
            print(f"  ~ {series.name}: slope {slope:.2f} ({growth})")


def record_series(name: str, points, unit: str = "s") -> None:
    """Record an explicit size sweep (``(size, value)`` pairs or
    ScalingPoints) under the current bench module."""
    RECORDER.record_series(name, points, unit=unit)


def record_metrics_snapshot(counters) -> None:
    """Fold an explicit :data:`repro.obs.METRICS` counter snapshot into
    the current module's telemetry (for benches that reset the registry
    themselves)."""
    RECORDER.record_counters(counters)
