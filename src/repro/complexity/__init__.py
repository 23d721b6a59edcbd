"""Empirical scaling-law harness (methodology for Section 7 / Figure 7).

The paper's claims are asymptotic; the benchmarks validate *shapes*:
linear vs quadratic vs exponential growth, and who wins where.  This
package provides timing sweeps, log-log slope fits, and a growth-class
classifier shared by every ``benchmarks/bench_*.py``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".scaling": [
        "ScalingPoint", "measure_scaling", "fit_loglog_slope", "classify_growth",
        "growth_class_from_slope", "format_table", "ratio_test",
    ],
})
