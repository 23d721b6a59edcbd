"""Benchmark telemetry recording: samples, series, and the recorder.

The bench suite's measurements flow through three layers:

- :class:`Sample` — one timed measurement: median wall-clock seconds
  (the value, ``Sample`` *is* a float) plus the spread that makes the
  number interpretable later (min, interquartile range, repeat count).
- :class:`BenchSeries` — one metric swept over sizes, with the fitted
  log-log slope and growth class from :mod:`repro.complexity`.
- :class:`BenchRecorder` — the process-wide sink every
  ``benchmarks/bench_*.py`` reports into (via ``_benchutil.report`` /
  ``record_series``), grouped per bench module, with the
  :data:`repro.obs.METRICS` counter/duration deltas captured per
  module.

The recorder's :meth:`~BenchRecorder.as_dict` payload is what
:mod:`repro.perf.store` wraps into a ``BENCH_<n>.json`` run file and
what :mod:`repro.perf.compare` diffs between runs.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["Sample", "BenchSeries", "BenchRecorder", "RECORDER", "slugify"]

#: medians below this (seconds) are treated as timer noise by the
#: comparator and by the series confidence flag
NOISE_FLOOR_S = 2e-3


class Sample(float):
    """One timed measurement; the float value is the median seconds.

    Being a float subclass keeps every existing benchmark idiom working
    (ratios, comparisons, ``f"{t:.5f}"``) while carrying the spread the
    telemetry needs: ``Sample(min, median, iqr, repeats)``.
    """

    __slots__ = ("min", "iqr", "repeats")

    def __new__(cls, min: float, median: float, iqr: float = 0.0, repeats: int = 1):
        self = float.__new__(cls, median)
        self.min = float(min)
        self.iqr = float(iqr)
        self.repeats = int(repeats)
        return self

    @property
    def median(self) -> float:
        return float(self)

    @property
    def rel_iqr(self) -> float:
        """IQR relative to the median — the noise level of the sample."""
        return self.iqr / max(self.median, 1e-12)

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "Sample":
        """Summarize raw per-repeat wall-clock times."""
        ts = sorted(times)
        if not ts:
            raise ValueError("need at least one time sample")
        if len(ts) >= 2:
            q1, _, q3 = statistics.quantiles(ts, n=4, method="inclusive")
            iqr = q3 - q1
        else:
            iqr = 0.0
        return cls(ts[0], statistics.median(ts), iqr, len(ts))

    @classmethod
    def from_value(cls, value: float) -> "Sample":
        """Wrap a single deterministic value (a count, a memory peak)."""
        return cls(value, value, 0.0, 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "min": round(self.min, 9),
            "median": round(self.median, 9),
            "iqr": round(self.iqr, 9),
            "repeats": self.repeats,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sample(min={self.min:.6f}, median={self.median:.6f}, "
            f"iqr={self.iqr:.6f}, repeats={self.repeats})"
        )


def slugify(text: str, max_len: int = 64) -> str:
    """A filesystem/metric-safe slug: lowercase alnum runs joined by '-'."""
    out: list[str] = []
    word: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return "-".join(out)[:max_len].strip("-") or "metric"


class BenchSeries:
    """One metric over a size sweep, with its fitted growth shape."""

    __slots__ = ("name", "unit", "points")

    def __init__(self, name: str, unit: str = "s"):
        self.name = name
        self.unit = unit  # "s" for seconds, "n" for dimensionless counts
        self.points: list[tuple[float, Sample]] = []

    def add(self, size: float, sample: "Sample | float | int") -> None:
        if not isinstance(sample, Sample):
            sample = Sample.from_value(float(sample))
        self.points.append((float(size), sample))

    # -- derived shape -----------------------------------------------------

    def slope(self) -> "float | None":
        """Fitted log-log slope, or None with <2 distinct positive sizes."""
        from repro.complexity import ScalingPoint, fit_loglog_slope

        pts = [
            ScalingPoint(int(size), max(float(sample), 1e-9))
            for size, sample in self.points
            if size > 0
        ]
        if len({p.size for p in pts}) < 2:
            return None
        return fit_loglog_slope(pts)

    def growth(self) -> "str | None":
        from repro.complexity import growth_class_from_slope

        slope = self.slope()
        return None if slope is None else growth_class_from_slope(slope)

    @property
    def confident(self) -> bool:
        """Whether the growth class is trustworthy enough to gate on:
        at least three sweep points, and (for timings) a largest median
        above the noise floor."""
        if len(self.points) < 3:
            return False
        if self.unit == "s":
            return max(float(s) for _, s in self.points) >= NOISE_FLOOR_S
        return True

    def to_dict(self) -> dict[str, Any]:
        slope = self.slope()
        return {
            "unit": self.unit,
            "points": [
                {"size": size, **sample.to_dict()} for size, sample in self.points
            ],
            "slope": None if slope is None else round(slope, 4),
            "growth": self.growth(),
            "confident": self.confident,
        }


def _json_safe(cell: Any) -> Any:
    if isinstance(cell, Sample):
        return round(float(cell), 9)
    if isinstance(cell, bool) or cell is None:
        return cell
    if isinstance(cell, (int, float, str)):
        return cell
    return str(cell)


class BenchRecorder:
    """The process-wide telemetry sink of the benchmark suite.

    ``begin_module``/``end_module`` bracket one ``bench_*`` module
    (driven by the autouse fixture in :mod:`repro.perf.hooks`);
    ``record_table`` keeps the printed report rows *and* derives size
    series from them, so the text table and the JSON telemetry can never
    disagree; ``record_series`` is the explicit route for modules that
    build their sweeps directly.
    """

    #: module bucket used when recording happens outside pytest
    ADHOC = "adhoc"

    def __init__(self):
        self._modules: dict[str, dict[str, Any]] = {}
        self._active: "str | None" = None
        self._metrics_base: dict[str, Any] = {}

    # -- module lifecycle --------------------------------------------------

    def _module(self, name: "str | None" = None) -> dict[str, Any]:
        key = name or self._active or self.ADHOC
        if key not in self._modules:
            self._modules[key] = {
                "status": "passed",
                "failures": [],
                "tables": [],
                "series": {},
                "counters": {},
                "durations": {},
            }
        return self._modules[key]

    def begin_module(self, name: str) -> None:
        from repro.obs import METRICS

        self._module(name)
        self._active = name
        self._metrics_base = {
            "counters": METRICS.snapshot(),
            "durations": {
                key: (hist["count"], hist["sum"])
                for key, hist in METRICS.durations().items()
            },
        }

    def end_module(self, name: str) -> None:
        """Close a module: fold in the METRICS delta since ``begin``."""
        from repro.obs import METRICS

        record = self._module(name)
        base_counters = self._metrics_base.get("counters", {})
        for key, total in METRICS.snapshot().items():
            delta = total - base_counters.get(key, 0)
            if delta:
                record["counters"][key] = record["counters"].get(key, 0) + delta
        base_durations = self._metrics_base.get("durations", {})
        for key, hist in METRICS.durations().items():
            count0, sum0 = base_durations.get(key, (0, 0.0))
            dcount = hist["count"] - count0
            if dcount <= 0:
                continue
            entry = dict(hist)
            entry["count"] = dcount
            entry["sum"] = round(hist["sum"] - sum0, 9)
            if count0:  # percentiles describe the whole histogram only
                for quantile in ("p50", "p90", "p99", "min", "max"):
                    entry.pop(quantile, None)
            record["durations"][key] = entry
        if self._active == name:
            self._active = None
        self._metrics_base = {}

    def mark_failed(self, name: str, nodeid: str) -> None:
        record = self._module(name)
        record["status"] = "failed"
        record["failures"].append(nodeid)

    # -- recording ---------------------------------------------------------

    def record_table(
        self,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[Any]],
        module: "str | None" = None,
    ) -> list[BenchSeries]:
        """Keep one report table and derive size series from it.

        A column becomes a series when the first column is numeric in
        every row (the sweep size) and the column holds :class:`Sample`
        values (seconds) or plain ints (deterministic counts) in every
        row.  The derived series are returned so the caller can print
        the fitted shapes next to the table.
        """
        record = self._module(module)
        rows = [list(r) for r in rows]
        record["tables"].append(
            {
                "title": title,
                "headers": [str(h) for h in headers],
                "rows": [[_json_safe(c) for c in row] for row in rows],
            }
        )
        derived = self._derive_series(title, headers, rows)
        for series in derived:
            self._store_series(record, series)
        return derived

    def _derive_series(
        self, title: str, headers: Sequence[str], rows: list[list[Any]]
    ) -> list[BenchSeries]:
        if len(rows) < 2:
            return []
        widths = {len(r) for r in rows}
        if widths != {len(headers)}:
            return []

        def numeric(cell: Any) -> bool:
            return isinstance(cell, (int, float)) and not isinstance(cell, bool)

        if not all(numeric(r[0]) for r in rows):
            return []
        table_slug = slugify(title)
        out: list[BenchSeries] = []
        for j in range(1, len(headers)):
            column = [r[j] for r in rows]
            if all(isinstance(c, Sample) for c in column):
                unit = "s"
            elif all(isinstance(c, int) and not isinstance(c, bool) for c in column):
                unit = "n"
            else:
                continue
            series = BenchSeries(f"{table_slug}/{slugify(str(headers[j]))}", unit)
            for row, cell in zip(rows, column):
                series.add(float(row[0]), cell)
            out.append(series)
        return out

    def record_series(
        self,
        name: str,
        points: Iterable[Any],
        unit: str = "s",
        module: "str | None" = None,
    ) -> BenchSeries:
        """Record an explicit sweep: points are ``(size, value)`` pairs
        or objects with ``size``/``seconds`` attributes
        (:class:`~repro.complexity.ScalingPoint` included)."""
        series = BenchSeries(slugify(name, max_len=96), unit)
        for point in points:
            if hasattr(point, "size") and hasattr(point, "seconds"):
                series.add(point.size, point.seconds)
            else:
                size, value = point
                series.add(size, value)
        self._store_series(self._module(module), series)
        return series

    def _store_series(self, record: dict[str, Any], series: BenchSeries) -> None:
        name, k = series.name, 2
        while name in record["series"]:
            name = f"{series.name}-{k}"
            k += 1
        series.name = name
        record["series"][name] = series

    def record_counters(
        self, counters: Mapping[str, int], module: "str | None" = None
    ) -> None:
        """Explicitly fold a counter snapshot into the current module
        (for benches that reset :data:`repro.obs.METRICS` themselves)."""
        record = self._module(module)
        for key, value in counters.items():
            record["counters"][key] = record["counters"].get(key, 0) + value

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """The ``modules`` payload of a ``BENCH_<n>.json`` run file."""
        out: dict[str, Any] = {}
        for name in sorted(self._modules):
            record = self._modules[name]
            out[name] = {
                "status": record["status"],
                "failures": list(record["failures"]),
                "tables": record["tables"],
                "series": {
                    key: series.to_dict()
                    for key, series in sorted(record["series"].items())
                },
                "counters": dict(sorted(record["counters"].items())),
                "durations": dict(sorted(record["durations"].items())),
            }
        return out

    def reset(self) -> None:
        self._modules.clear()
        self._active = None
        self._metrics_base = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BenchRecorder({len(self._modules)} modules, active={self._active!r})"


#: the process-wide recorder the bench suite reports into
RECORDER = BenchRecorder()
