"""Performance observability: benchmark telemetry, baselines, and
regression tracking.

The bench suite (``benchmarks/bench_*.py``) measures the paper's
complexity claims; this package makes those measurements durable and
comparable:

- :class:`~repro.perf.record.BenchRecorder` (via the process-wide
  :data:`RECORDER`) collects per-module report tables, size-sweep
  series with min/median/IQR samples, fitted log-log slopes and growth
  classes, and the :data:`repro.obs.METRICS` counter/duration deltas;
- :mod:`repro.perf.store` writes/reads the numbered ``BENCH_<n>.json``
  run files at the repository root (schema ``repro.perf.bench/1`` with
  an environment fingerprint);
- :func:`~repro.perf.compare.compare_runs` diffs a run against a
  baseline with noise-aware ratio bands — growth-class changes are
  always failures;
- :func:`~repro.perf.runner.run_benchmarks` drives the whole sweep
  (the engine behind ``repro bench run``);
- :func:`render_bench_openmetrics` (re-exported from
  :mod:`repro.obs.export`, whose one writer also renders ``/metrics``)
  turns a run into OpenMetrics text for ``repro bench export``.

See the "Benchmark telemetry" section of docs/OBSERVABILITY.md.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.obs.export": ["render_bench_openmetrics"],
    ".compare": ["ComparisonReport", "Finding", "compare_runs"],
    ".record": ["RECORDER", "BenchRecorder", "BenchSeries", "Sample"],
    ".runner": ["RunOutcome", "run_benchmarks"],
    ".store": [
        "SCHEMA", "environment_fingerprint", "latest_runs", "list_runs", "load_run",
        "validate_payload", "write_run",
    ],
})
