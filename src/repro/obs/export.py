"""Trace and metrics export: JSON documents, pretty text, OpenMetrics.

The span-tree functions operate on the :class:`~repro.obs.tracer.Span`
tree carried by ``ExecutionStats.trace``.  The JSON form is what the
CLI's ``--trace FILE`` writes (and what CI uploads as a build
artifact); the pretty form is what ``--trace`` without a file prints to
stderr.  :func:`render_openmetrics` exposes a
:class:`~repro.obs.metrics.MetricsRegistry` — counters and duration
histograms — in the OpenMetrics text format, for scraping long-lived
processes; :func:`render_bench_openmetrics` does the same for one
benchmark run.  Both go through the one family writer,
``_render_families``, which :func:`lint_openmetrics` checks.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span

__all__ = [
    "trace_to_dict",
    "trace_json",
    "span_from_dict",
    "write_trace",
    "render_pretty",
    "render_openmetrics",
    "render_bench_openmetrics",
    "lint_openmetrics",
]


def trace_to_dict(span: Span) -> dict[str, Any]:
    """The JSON-serializable view of a span tree."""
    return span.to_dict()


def span_from_dict(payload: "dict[str, Any]") -> Span:
    """Rebuild a span tree from its :meth:`Span.to_dict` form.

    The JSON form keeps only durations, not absolute clock readings, so
    the rebuilt tree is anchored at zero (``start_s=0``, ``end_s`` the
    recorded duration) — exactly enough for :func:`render_pretty`
    waterfalls and counter inspection, which is what ``repro trace
    show`` and ``GET /debug/traces/<id>`` need.
    """
    if not isinstance(payload, dict) or "name" not in payload:
        raise ValueError(f"not a span document: {payload!r}")
    span = Span(str(payload["name"]), dict(payload.get("meta") or {}))
    span.start_s = 0.0
    span.end_s = float(payload.get("duration_ms", 0.0)) / 1e3
    span.counters = {
        str(k): int(v) for k, v in (payload.get("counters") or {}).items()
    }
    span.children = [span_from_dict(c) for c in payload.get("children") or []]
    return span


def trace_json(span: Span, indent: "int | None" = 2) -> str:
    return json.dumps(trace_to_dict(span), indent=indent, sort_keys=False)


def write_trace(span: Span, path: str) -> None:
    """Write one span tree as a JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_json(span))
        fh.write("\n")


def render_pretty(span: Span) -> str:
    """An indented one-span-per-line rendering with times and counters::

        query:xpath                          1.42 ms
          plan                               0.08 ms
          execute:structural-join            1.02 ms  sj.frontier=4 ...
    """
    lines: list[str] = []

    def visit(s: Span, depth: int) -> None:
        counters = " ".join(
            f"{k}={v}" for k, v in sorted(s.counters.items())
        )
        meta = " ".join(f"{k}={v}" for k, v in s.meta.items())
        label = "  " * depth + s.name
        tail = " ".join(part for part in (meta, counters) if part)
        lines.append(
            f"{label:<44s} {s.duration_ms:>9.3f} ms" + (f"  {tail}" if tail else "")
        )
        for child in s.children:
            visit(child, depth + 1)

    visit(span, 0)
    return "\n".join(lines)


def _om_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _om_labels(labels: "dict[str, Any]") -> str:
    """``{k="v",...}`` with OpenMetrics escaping; a label whose value is
    empty is left out (OpenMetrics reads it as absent)."""
    inner = ",".join(
        f'{key}="{_om_escape(str(value))}"'
        for key, value in labels.items() if value != ""
    )
    return "{" + inner + "}" if inner else ""


def _render_families(families: "list[tuple[str, str, list]]") -> str:
    """The one OpenMetrics writer: every exposition goes through it.

    Each family is ``(name, type, samples)`` and is written as its
    ``# TYPE`` line followed by all of its samples, so a family's block
    is contiguous by construction; ``# EOF`` ends the text.  A sample
    is ``(suffix, labels, value)``: its name is the family name plus
    ``suffix`` (``""``, ``"_total"``, ``"_bucket"``, ...), ``labels`` is
    a dict, and ``value`` is written as given (the caller formats
    floats).
    """
    lines: list[str] = []
    for name, kind, samples in families:
        lines.append(f"# TYPE {name} {kind}")
        for suffix, labels, value in samples:
            lines.append(f"{name}{suffix}{_om_labels(labels)} {value}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(registry: MetricsRegistry) -> str:
    """The registry in OpenMetrics text format (``GET /metrics``).

    Counters become ``repro_counter_total{name="..."}`` samples.
    Duration histograms are exposed twice:

    - ``repro_duration_seconds`` — a native **histogram** family with
      cumulative ``_bucket{...,le="..."}`` samples (terminated by the
      mandatory ``le="+Inf"`` bucket) plus ``_count``/``_sum``, so
      external scrapers can aggregate latency distributions across
      processes (bucket counts add; pre-computed quantiles don't).
    - ``repro_duration_quantiles`` — the process-local p50/p90/p99
      estimates as a **summary** family, for humans reading the page.
    """
    queries = registry.queries_observed
    counters = [
        ("_total", {"name": name}, total)
        for name, total in registry.snapshot().items()
    ]
    histogram, quantiles = [], []
    for name, summary in registry.durations().items():
        hist = registry.duration(name)
        buckets = hist.buckets() if hist is not None else []
        if not buckets or not math.isinf(buckets[-1][0]):
            buckets.append((math.inf, summary["count"]))
        for bound, cumulative in buckets:
            le = "+Inf" if math.isinf(bound) else f"{bound:.9g}"
            histogram.append(("_bucket", {"name": name, "le": le}, cumulative))
        histogram.append(("_count", {"name": name}, summary["count"]))
        histogram.append(("_sum", {"name": name}, f"{summary['sum']:.9g}"))
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            quantiles.append(
                ("", {"name": name, "quantile": quantile}, f"{summary[key]:.9g}")
            )
    return _render_families([
        ("repro_queries_observed", "counter", [("_total", {}, queries)]),
        ("repro_counter", "counter", counters),
        ("repro_duration_seconds", "histogram", histogram),
        ("repro_duration_quantiles", "summary", quantiles),
    ])


def render_bench_openmetrics(payload: "dict[str, Any]") -> str:
    """One benchmark run (a ``BENCH_<n>.json`` payload, see
    :mod:`repro.perf.store`) in OpenMetrics text format — what ``repro
    bench export`` prints: a run-info gauge, median/min/IQR gauges per
    sweep point, a gauge per fitted slope, and a counter per recorded
    engine counter, all labelled by bench module and series."""
    env = payload.get("environment", {})
    info = {
        "run": payload.get("run", 0),
        "schema": payload.get("schema", ""),
        "python": env.get("python", ""),
        "platform": env.get("platform", ""),
        "fast_mode": str(bool(payload.get("fast_mode"))).lower(),
    }
    points: "dict[str, list]" = {"median": [], "min": [], "iqr": []}
    slopes, counters = [], []
    for module, record in sorted(payload.get("modules", {}).items()):
        for name, series in sorted(record.get("series", {}).items()):
            base = {"module": module, "series": name,
                    "unit": series.get("unit", "s")}
            for point in series.get("points", []):
                labels = {**base, "size": f"{point['size']:g}"}
                for stat, value in (("median", point["median"]),
                                    ("min", point["min"]),
                                    ("iqr", point.get("iqr", 0))):
                    points[stat].append(("", labels, f"{value:.9g}"))
            if series.get("slope") is not None:
                slopes.append(("", base, f"{series['slope']:.4g}"))
        for counter, total in sorted(record.get("counters", {}).items()):
            counters.append(("_total", {"module": module, "name": counter}, total))
    return _render_families([
        ("repro_bench_run_info", "gauge", [("", info, 1)]),
        *((f"repro_bench_{stat}", "gauge", samples)
          for stat, samples in points.items()),
        ("repro_bench_slope", "gauge", slopes),
        ("repro_bench_counter", "counter", counters),
    ])


# one sample line: name, optional {labels}, a float value (no timestamp
# — the exposition never emits one), nothing trailing
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)
# the sample-name suffixes OpenMetrics allows after a family name
_FAMILY_SUFFIXES = ("", "_total", "_created", "_bucket", "_count", "_sum",
                    "_gcount", "_gsum", "_info")
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"'
)


def _parse_labels(raw: str) -> "dict[str, str] | None":
    """Label pairs from the text between braces; None when malformed
    (unescaped quote, bad key, stray characters)."""
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL_RE.match(raw, pos)
        if match is None:
            return None
        labels[match.group("key")] = match.group("value")
        pos = match.end()
        if pos < len(raw):
            if raw[pos] != ",":
                return None
            pos += 1
    return labels


def lint_openmetrics(text: str) -> "list[str]":
    """Problems found in an OpenMetrics exposition; empty means clean.

    The checks a scraper would trip on first: a missing (or
    non-terminal) ``# EOF``, malformed sample lines, broken label
    escaping, unparseable values, a sample outside the block of the
    family the latest ``# TYPE`` declared, a family declared twice,
    histogram bucket counts that are not monotone in ``le`` order, and
    a final ``+Inf`` bucket disagreeing with the series ``_count``.
    This is what the CI scrape-lint steps (and ``tests/test_tracing.py``)
    run against ``GET /metrics`` and ``repro bench export``.
    """
    problems: list[str] = []
    if not text.endswith("# EOF\n"):
        problems.append("exposition does not end with '# EOF\\n'")
    lines = text.splitlines()
    if "# EOF" in lines[:-1]:
        problems.append("'# EOF' appears before the final line")
    # (series name, frozenset of non-le labels) -> [(le, count), ...]
    buckets: dict[tuple, list[tuple[float, int]]] = {}
    counts: dict[tuple, float] = {}
    family: "str | None" = None  # the one the latest "# TYPE" declared
    declared: set[str] = set()
    for n, line in enumerate(lines, 1):
        if line.startswith("# TYPE "):
            family = line[len("# TYPE "):].split(" ", 1)[0]
            if family in declared:
                problems.append(f"line {n}: family {family!r} declared twice")
            declared.add(family)
            continue
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {n}: malformed sample {line!r}")
            continue
        name = match.group("name")
        if family is None or not any(
            name == family + suffix for suffix in _FAMILY_SUFFIXES
        ):
            problems.append(
                f"line {n}: sample {name!r} outside its family's block "
                f"(latest # TYPE: {family!r})"
            )
        labels_raw = match.group("labels")
        labels = _parse_labels(labels_raw) if labels_raw is not None else {}
        if labels is None:
            problems.append(f"line {n}: malformed labels {labels_raw!r}")
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {n}: unparseable value {match.group('value')!r}"
            )
            continue
        series = frozenset(
            (k, v) for k, v in labels.items() if k != "le"
        )
        if name.endswith("_bucket") and "le" in labels:
            le_raw = labels["le"]
            le = math.inf if le_raw == "+Inf" else None
            if le is None:
                try:
                    le = float(le_raw)
                except ValueError:
                    problems.append(f"line {n}: unparseable le {le_raw!r}")
                    continue
            buckets.setdefault((name[: -len("_bucket")], series), []).append(
                (le, int(value))
            )
        elif name.endswith("_count"):
            counts[(name[: -len("_count")], series)] = value
    for (family, series), pairs in buckets.items():
        label_text = ",".join(f"{k}={v}" for k, v in sorted(series))
        in_order = sorted(pairs)  # judge monotonicity in le order
        cumulative = [c for _, c in in_order]
        if any(prev > nxt for prev, nxt in zip(cumulative, cumulative[1:])):
            problems.append(
                f"{family}{{{label_text}}}: bucket counts not monotone: "
                f"{cumulative}"
            )
        if not in_order or not math.isinf(in_order[-1][0]):
            problems.append(f"{family}{{{label_text}}}: no le=\"+Inf\" bucket")
        else:
            total = counts.get((family, series))
            if total is not None and in_order[-1][1] != total:
                problems.append(
                    f"{family}{{{label_text}}}: +Inf bucket "
                    f"{in_order[-1][1]} != _count {total:g}"
                )
    return problems
