"""Tests for the workload generators and the scaling harness."""

import pytest

from repro.complexity import (
    classify_growth,
    fit_loglog_slope,
    format_table,
    measure_scaling,
)
from repro.complexity.scaling import ScalingPoint, ratio_test
from repro.consistency import classify_signature
from repro.cq import is_acyclic
from repro.hornsat import naive_fixpoint
from repro.hornsat.minoux import minoux
from repro.workloads import (
    dblp_like,
    deep_sections,
    hard_instance_mixed_axes,
    random_cq,
    random_horn_program,
    random_twig,
    random_xpath,
    xmark_like,
)
from repro.xpath import parse_xpath


class TestDocuments:
    def test_xmark_schema_labels(self):
        t = xmark_like(30, seed=1)
        labels = t.alphabet()
        assert {"site", "regions", "item", "people", "closed_auctions"} <= labels
        assert t.label[0] == "site"

    def test_xmark_deterministic(self):
        assert xmark_like(20, seed=5) == xmark_like(20, seed=5)
        assert xmark_like(20, seed=5) != xmark_like(20, seed=6)

    def test_dblp_flat(self):
        t = dblp_like(50, seed=2)
        assert t.height() == 2
        assert t.label[0] == "dblp"

    def test_deep_sections_depth(self):
        t = deep_sections(25)
        assert t.height() >= 25
        assert "section" in t.alphabet()


class TestQueries:
    def test_random_cq_valid_and_deterministic(self):
        for seed in range(30):
            q = random_cq(4, 3, seed=seed)
            q.validate()
            assert q == random_cq(4, 3, seed=seed)

    def test_random_cq_connected(self):
        for seed in range(20):
            assert random_cq(5, 4, seed=seed, connected=True).is_connected()

    def test_random_twig_parses(self):
        for seed in range(30):
            pattern = random_twig(5, seed=seed)
            assert 1 <= len(pattern) <= 5
            pattern.to_cq().validate()

    def test_random_xpath_parses(self):
        for seed in range(30):
            parse_xpath(random_xpath(3, seed=seed))

    def test_random_horn_runs(self):
        p = random_horn_program(50, 120, seed=3)
        m1, _ = minoux(p)
        m2, _ = naive_fixpoint(p)
        assert m1 == m2

    def test_hard_instance_signature_is_np_complete(self):
        q = hard_instance_mixed_axes(6)
        assert classify_signature(q.signature())[0] == "NP-complete"
        assert is_acyclic(q)  # hardness comes from the signature, not shape


class TestScalingHarness:
    def test_linear_classified(self):
        pts = [ScalingPoint(n, n * 1e-6) for n in (100, 200, 400, 800)]
        assert classify_growth(pts) == "linear"
        assert abs(fit_loglog_slope(pts) - 1.0) < 1e-9

    def test_quadratic_classified(self):
        pts = [ScalingPoint(n, n * n * 1e-9) for n in (100, 200, 400, 800)]
        assert classify_growth(pts) == "quadratic"

    def test_measure_scaling_runs(self):
        pts = measure_scaling(
            lambda n: list(range(n)), sum, [500, 1000, 2000], repeats=2
        )
        assert [p.size for p in pts] == [500, 1000, 2000]
        assert all(p.seconds >= 0 for p in pts)

    def test_slope_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([ScalingPoint(10, 1.0)])

    def test_ratio_test(self):
        pts = [ScalingPoint(n, 2.0 ** n) for n in (1, 2, 3)]
        assert all(r == 2.0 for r in ratio_test(pts))

    def test_format_table(self):
        text = format_table(["n", "time"], [[10, 0.5], [20, 1.0]])
        assert "n" in text and "20" in text
