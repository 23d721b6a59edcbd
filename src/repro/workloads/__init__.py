"""Workload generators: documents and queries for tests and benchmarks."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".documents": ["xmark_like", "dblp_like", "deep_sections", "deep_tree", "wide_tree"],
    ".queries": [
        "random_cq", "random_twig", "random_xpath", "random_horn_program",
        "hard_instance_mixed_axes",
    ],
})
