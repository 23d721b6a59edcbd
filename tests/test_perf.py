"""Tests for the benchmark telemetry stack (repro.perf): samples and
series, the recorder's table→series derivation, the BENCH_<n>.json
store, the noise-aware comparator, the OpenMetrics export, and the
subprocess runner end-to-end on a miniature bench suite.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.perf import (
    BenchRecorder,
    SCHEMA,
    Sample,
    compare_runs,
    environment_fingerprint,
    latest_runs,
    list_runs,
    load_run,
    render_bench_openmetrics,
    run_benchmarks,
    validate_payload,
    write_run,
)
from repro.perf.record import NOISE_FLOOR_S, slugify

# ---------------------------------------------------------------------------
# Sample
# ---------------------------------------------------------------------------


def test_sample_is_a_float_carrying_spread():
    s = Sample(0.8, 1.0, 0.2, 5)
    assert s == 1.0  # the float value is the median
    assert s.min == 0.8 and s.iqr == pytest.approx(0.2) and s.repeats == 5
    assert s.median == 1.0
    assert s.rel_iqr == pytest.approx(0.2)
    # the idioms benchmark code relies on keep working
    assert f"{s:.5f}" == "1.00000"
    assert s * 2 == 2.0 and s < 1.5


def test_sample_from_times_uses_median_and_iqr():
    s = Sample.from_times([0.4, 0.1, 0.2])
    assert s.min == pytest.approx(0.1)
    assert s.median == pytest.approx(0.2)
    assert s.repeats == 3
    assert s.iqr > 0.0
    with pytest.raises(ValueError):
        Sample.from_times([])


def test_sample_from_value_has_no_spread():
    s = Sample.from_value(42)
    assert s == 42.0 and s.min == 42.0 and s.iqr == 0.0 and s.repeats == 1


def test_slugify():
    assert slugify("E3/Fig3: Horn-SAT (chain-heavy)") == "e3-fig3-horn-sat-chain-heavy"
    assert slugify("") == "metric"


# ---------------------------------------------------------------------------
# recorder: tables -> series
# ---------------------------------------------------------------------------


def _timing(size: int, seconds: float) -> Sample:
    return Sample(seconds * 0.9, seconds, seconds * 0.05, 3)


def test_record_table_derives_timing_and_count_series():
    rec = BenchRecorder()
    derived = rec.record_table(
        "sweep", ["n", "seconds", "peak"],
        [[n, _timing(n, n * 1e-5), n * 3] for n in (100, 200, 400)],
        module="m",
    )
    assert sorted(s.unit for s in derived) == ["n", "s"]
    payload = rec.as_dict()["m"]
    timing = payload["series"]["sweep/seconds"]
    counts = payload["series"]["sweep/peak"]
    assert timing["unit"] == "s" and counts["unit"] == "n"
    assert timing["slope"] == pytest.approx(1.0, abs=0.05)
    assert timing["growth"] == "linear"
    assert counts["growth"] == "linear" and counts["confident"] is True
    # the printed table and the JSON rows come from the same cells
    assert payload["tables"][0]["rows"][0] == [100, pytest.approx(1e-3), 300]


def test_record_table_skips_non_numeric_sweeps_and_mixed_columns():
    rec = BenchRecorder()
    assert rec.record_table(
        "named rows", ["metric", "value"],
        [["output size", 10], ["pushes", 20]], module="m",
    ) == []
    assert rec.record_table(
        "mixed column", ["n", "value"],
        [[100, 10], [200, "20x"]], module="m",
    ) == []
    assert rec.record_table(
        "single row", ["n", "seconds"], [[100, _timing(100, 0.1)]], module="m",
    ) == []


def test_record_table_deduplicates_series_names():
    rec = BenchRecorder()
    rows = [[n, n * 2] for n in (1, 2, 3)]
    rec.record_table("same title", ["n", "v"], rows, module="m")
    rec.record_table("same title", ["n", "v"], rows, module="m")
    names = set(rec.as_dict()["m"]["series"])
    assert names == {"same-title/v", "same-title/v-2"}


def test_series_confidence_gating():
    rec = BenchRecorder()
    # two points: never confident
    two = rec.record_series(
        "short", [(100, _timing(100, 0.1)), (200, _timing(200, 0.2))], module="m"
    )
    assert two.confident is False
    # three points but sub-noise-floor medians: not confident either
    noisy = rec.record_series(
        "noise", [(n, Sample.from_times([NOISE_FLOOR_S / 10])) for n in (1, 2, 3)],
        module="m",
    )
    assert noisy.confident is False
    # counts are deterministic: three points suffice
    counts = rec.record_series("counts", [(1, 5), (2, 10), (3, 20)], unit="n",
                               module="m")
    assert counts.confident is True


def test_record_series_accepts_scaling_points():
    from repro.complexity import ScalingPoint

    rec = BenchRecorder()
    series = rec.record_series(
        "sp", [ScalingPoint(100, 0.01), ScalingPoint(200, 0.02)], module="m"
    )
    assert [size for size, _ in series.points] == [100.0, 200.0]


def test_module_lifecycle_folds_metrics_delta():
    from repro.obs import METRICS

    rec = BenchRecorder()
    METRICS.reset()
    try:
        METRICS.merge({"warmup.noise": 7})
        rec.begin_module("m")
        METRICS.merge({"sj.pairs": 4})
        METRICS.observe_duration("query.xpath", 0.25)
        rec.end_module("m")
    finally:
        METRICS.reset()
    record = rec.as_dict()["m"]
    assert record["counters"] == {"sj.pairs": 4}  # delta, not the total
    assert record["durations"]["query.xpath"]["count"] == 1
    assert record["durations"]["query.xpath"]["sum"] == pytest.approx(0.25)


def test_mark_failed_sets_module_status():
    rec = BenchRecorder()
    rec.mark_failed("m", "bench_x.py::test_y")
    record = rec.as_dict()["m"]
    assert record["status"] == "failed"
    assert record["failures"] == ["bench_x.py::test_y"]


# ---------------------------------------------------------------------------
# store: BENCH_<n>.json
# ---------------------------------------------------------------------------


def _modules_payload(seconds_by_size, unit="s", confident=True):
    rec = BenchRecorder()
    points = [
        (size, _timing(size, s) if unit == "s" else int(s))
        for size, s in seconds_by_size
    ]
    rec.record_series("metric", points, unit=unit, module="bench_m")
    return rec.as_dict()


def test_write_load_roundtrip_and_numbering(tmp_path):
    root = str(tmp_path)
    modules = _modules_payload([(100, 0.01), (200, 0.02), (400, 0.04)])
    first = write_run(modules, root=root, fast_mode=True)
    second = write_run(modules, root=root)
    assert first.endswith("BENCH_0001.json")
    assert second.endswith("BENCH_0002.json")
    assert list_runs(root) == [first, second]
    assert latest_runs(root, 2) == [first, second]
    payload = load_run(first)
    assert payload["schema"] == SCHEMA
    assert payload["run"] == 1 and payload["fast_mode"] is True
    assert payload["environment"] == environment_fingerprint()
    assert "bench_m" in payload["modules"]


def test_load_run_rejects_malformed_files(tmp_path):
    bad = tmp_path / "BENCH_0001.json"
    bad.write_text(json.dumps({"schema": "nope", "modules": {}}))
    with pytest.raises(ValueError):
        load_run(str(bad))


def test_validate_payload_reports_structural_problems():
    assert validate_payload([]) == ["payload is not an object"]
    errors = validate_payload({"schema": SCHEMA, "run": 1, "environment": {},
                               "modules": {"m": {"series": {"s": {}}}}})
    assert any("missing 'status'" in e or "missing" in e for e in errors)
    assert any("has no points" in e for e in errors)


# ---------------------------------------------------------------------------
# comparator
# ---------------------------------------------------------------------------


def _run_payload(run, seconds_by_size, unit="s"):
    modules = _modules_payload(seconds_by_size, unit=unit)
    return {
        "schema": SCHEMA,
        "run": run,
        "fast_mode": False,
        "environment": environment_fingerprint(),
        "pytest_exit": 0,
        "modules": modules,
    }


LINEAR = [(100, 0.1), (200, 0.2), (400, 0.4)]
QUADRATIC = [(100, 0.1), (200, 0.4), (400, 1.6)]


def test_identical_runs_compare_clean():
    report = compare_runs(_run_payload(1, LINEAR), _run_payload(2, LINEAR))
    assert report.ok and report.exit_code == 0
    assert report.series_compared == 1
    assert "verdict: ok" in report.render()


def test_confident_growth_class_flip_fails():
    report = compare_runs(_run_payload(1, LINEAR), _run_payload(2, QUADRATIC))
    assert not report.ok and report.exit_code == 1
    (finding,) = report.failures
    assert "growth class changed" in finding.message
    assert "linear -> quadratic" in finding.message


def test_boundary_jitter_class_flip_only_warns():
    # slopes 1.47 vs 1.53 land in different buckets but are the same shape
    just_under = [(100, 0.1), (200, 0.1 * 2**1.47), (400, 0.1 * 4**1.47)]
    just_over = [(100, 0.1), (200, 0.1 * 2**1.53), (400, 0.1 * 4**1.53)]
    report = compare_runs(_run_payload(1, just_under), _run_payload(2, just_over))
    assert report.ok
    assert any("boundary jitter" in f.message for f in report.findings)


def test_low_confidence_class_flip_only_warns():
    # two-point sweeps are never confident, whatever the slopes say
    # (timings here stay inside the ratio band so only the class flips)
    report = compare_runs(
        _run_payload(1, LINEAR[:2]),
        _run_payload(2, [(100, 0.1), (200, 0.1 * 2**1.6)]),
    )
    assert report.ok
    assert any("low confidence" in f.message for f in report.findings)


def test_timing_band_breach_fails_and_warn_only_downgrades():
    slower = [(size, s * 5) for size, s in LINEAR]
    report = compare_runs(_run_payload(1, LINEAR), _run_payload(2, slower))
    assert not report.ok
    assert any("regressed x" in f.message for f in report.failures)
    relaxed = compare_runs(
        _run_payload(1, LINEAR), _run_payload(2, slower), timing_fail=False
    )
    assert relaxed.ok
    assert any("regressed x" in f.message for f in relaxed.findings)


def test_count_drift_fails_even_in_timing_warn_only_mode():
    counts = [(100, 100), (200, 200), (400, 400)]
    tripled = [(size, v * 3) for size, v in counts]
    report = compare_runs(
        _run_payload(1, counts, unit="n"),
        _run_payload(2, tripled, unit="n"),
        timing_fail=False,
    )
    assert not report.ok


def test_sub_noise_floor_timings_are_skipped():
    tiny = [(100, 1e-5), (200, 2e-5), (400, 1e-4)]
    jittery = [(size, s * 10) for size, s in tiny]  # still under the floor
    report = compare_runs(_run_payload(1, tiny), _run_payload(2, jittery))
    assert not any("regressed" in f.message for f in report.findings)


def test_missing_module_and_series_warn():
    old = _run_payload(1, LINEAR)
    new = _run_payload(2, LINEAR)
    new["modules"] = {}
    report = compare_runs(old, new)
    assert report.ok  # coverage loss is a warning, not a failure
    assert any("module missing" in f.message for f in report.findings)


def test_failed_module_fails_comparison():
    old = _run_payload(1, LINEAR)
    new = _run_payload(2, LINEAR)
    record = next(iter(new["modules"].values()))
    record["status"] = "failed"
    record["failures"] = ["bench_m.py::test_x"]
    report = compare_runs(old, new)
    assert not report.ok
    assert any("module failed" in f.message for f in report.failures)


def test_fast_mode_mismatch_warns():
    old, new = _run_payload(1, LINEAR), _run_payload(2, LINEAR)
    new["fast_mode"] = True
    report = compare_runs(old, new)
    assert any("fast_mode differs" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# OpenMetrics export
# ---------------------------------------------------------------------------


def test_render_bench_openmetrics():
    text = render_bench_openmetrics(_run_payload(3, LINEAR))
    assert text.endswith("# EOF\n")
    assert 'repro_bench_run_info{run="3"' in text
    assert 'repro_bench_median{module="bench_m",series="metric",unit="s",size="100"}' in text
    assert 'repro_bench_slope{module="bench_m",series="metric",unit="s"}' in text


def test_committed_bench_run_exports_lint_clean():
    """Every family of a real run's export is one contiguous block."""
    from pathlib import Path

    from repro.obs import lint_openmetrics

    path = Path(__file__).resolve().parents[1] / "BENCH_0002.json"
    assert lint_openmetrics(render_bench_openmetrics(load_run(str(path)))) == []


# ---------------------------------------------------------------------------
# runner end-to-end on a miniature suite
# ---------------------------------------------------------------------------


def test_run_benchmarks_end_to_end(tmp_path):
    suite = tmp_path / "benchmarks"
    suite.mkdir()
    (suite / "pytest.ini").write_text("[pytest]\npython_files = bench_*.py\n")
    (suite / "conftest.py").write_text(
        "from repro.perf.hooks import (  # noqa: F401\n"
        "    _bench_telemetry_module,\n"
        "    pytest_runtest_logreport,\n"
        "    pytest_sessionfinish,\n"
        ")\n"
    )
    (suite / "bench_mini.py").write_text(textwrap.dedent(
        """
        from repro.perf import RECORDER, Sample

        def test_tiny_sweep():
            RECORDER.record_series(
                "mini", [(n, Sample.from_value(n * 1e-3)) for n in (1, 2, 4)]
            )
        """
    ))
    out = tmp_path / "out"
    out.mkdir()
    outcome = run_benchmarks(benchmarks_dir=str(suite), out_dir=str(out))
    assert outcome.pytest_exit == 0
    assert outcome.path is not None and outcome.path.endswith("BENCH_0001.json")
    payload = load_run(outcome.path)
    assert validate_payload(payload) == []
    assert payload["modules"]["bench_mini"]["status"] == "passed"
    assert "mini" in payload["modules"]["bench_mini"]["series"]
