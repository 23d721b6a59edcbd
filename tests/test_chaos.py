"""The chaos differential harness: under any single injected fault the
library returns the clean answer or a typed ReproError — never a wrong
answer, never a foreign exception (docs/ROBUSTNESS.md)."""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosScenario,
    chaos_sweep,
    default_documents,
    default_queries,
    fallback_demos,
    generate_scenarios,
    run_scenario,
)
from repro.errors import QueryError
from repro.faults import registered_sites


@pytest.fixture(scope="module")
def full_report():
    return chaos_sweep(seed=0)


class TestSweepContract:
    def test_sweep_is_large_and_covers_every_site(self, full_report):
        assert len(full_report.outcomes) >= 150
        assert full_report.uncovered_sites() == set()
        assert full_report.tripped_sites() == set(registered_sites())

    def test_no_wrong_answers_and_no_foreign_errors(self, full_report):
        assert full_report.violations() == []
        assert full_report.ok
        assert "OK" in full_report.summary()

    def test_recoveries_and_typed_errors_both_exercised(self, full_report):
        counts = full_report.by_status()
        assert counts.get("recovered", 0) > 0
        assert counts.get("typed-error", 0) > 0

    def test_sweep_is_seed_deterministic(self):
        first = chaos_sweep(seed=3, fast=True)
        second = chaos_sweep(seed=3, fast=True)
        assert [(o.scenario, o.status) for o in first.outcomes] == [
            (o.scenario, o.status) for o in second.outcomes
        ]

    def test_fast_sweep_still_touches_every_site(self):
        report = chaos_sweep(seed=0, fast=True)
        assert report.ok
        assert report.uncovered_sites() == set()
        assert len(report.outcomes) < 100  # genuinely trimmed


class TestScenarioGeneration:
    def test_matrix_spans_documents_queries_and_kinds(self):
        scenarios = generate_scenarios(seed=0)
        docs = {s.doc for s in scenarios}
        kinds = {s.kind for s in scenarios}
        fault_kinds = {s.spec.split(":")[1].split("@")[0] for s in scenarios}
        assert docs == set(default_documents())
        assert kinds == {"xpath", "twig", "cq", "datalog", "ingest",
                         "service", "corpus", "corpus-kill"}
        assert fault_kinds == {"error", "transient", "latency", "corrupt",
                               "kill"}

    def test_every_registered_site_has_scenarios(self):
        scenarios = generate_scenarios(seed=0)
        assert {s.site for s in scenarios} == set(registered_sites())

    def test_sites_filter_restricts_the_matrix(self):
        scenarios = generate_scenarios(seed=0, sites=["index.build"])
        assert {s.site for s in scenarios} == {"index.build"}

    def test_sites_filter_expands_globs_against_the_registry(self):
        scenarios = generate_scenarios(seed=0, sites=["strategy.*"])
        swept = {s.site for s in scenarios}
        assert swept == {
            s for s in registered_sites() if s.startswith("strategy.")
        }
        # and the scenarios carry the concrete strategy, never the glob
        assert all(s.strategy != "*" for s in scenarios)
        report = chaos_sweep(seed=0, sites=["strategy.*"], fast=True)
        assert report.ok and not report.violations()
        assert report.tripped_sites() == swept
        # coverage is held against the targeted subset, not the registry
        assert report.uncovered_sites() == set()

    def test_sites_filter_rejects_unknown_site(self):
        with pytest.raises(QueryError, match="unknown fault site"):
            generate_scenarios(seed=0, sites=["no.such.site"])

    def test_max_scenarios_caps_the_sweep(self):
        report = chaos_sweep(seed=0, max_scenarios=10)
        assert len(report.outcomes) == 10


class TestCoverageBar:
    """A swept site that never trips fails the sweep: the report is not
    ``ok`` and ``repro chaos`` exits 1."""

    SITE = "chaos.unreached"

    @pytest.fixture
    def unreached_site(self):
        from repro import faults

        # no _FAMILIES row, so it is driven as an engine site, and no
        # code path ever reaches it
        faults.register_site(self.SITE, "a site no code path reaches")
        try:
            yield self.SITE
        finally:
            faults._SITES.pop(self.SITE, None)

    def test_uncovered_site_fails_the_report(self, unreached_site):
        report = chaos_sweep(seed=0, sites=[unreached_site], fast=True)
        assert report.violations() == []
        assert report.uncovered_sites() == {unreached_site}
        assert not report.ok
        assert f"UNCOVERED site {unreached_site!r}" in report.summary()

    def test_uncovered_site_fails_the_cli(self, unreached_site, capsys):
        from repro.cli import main

        assert main(["chaos", "--sites", unreached_site]) == 1
        assert "UNCOVERED" in capsys.readouterr().out


class TestSingleScenarios:
    def test_engine_error_scenario_recovers_or_types(self):
        outcome = run_scenario(
            ChaosScenario(
                "strategy.linear",
                "strategy.linear:error@nth=1",
                "tiny", "xpath", default_queries()[0][1], 0, "linear",
            )
        )
        assert outcome.status == "typed-error"
        assert outcome.tripped

    def test_auto_engine_recovers_from_chosen_strategy_fault(self):
        from repro.engine import Database

        doc = default_documents()["tiny"]
        chosen = Database.from_xml(doc).plan("xpath", "Child+[lab() = b]").strategy
        outcome = run_scenario(
            ChaosScenario(
                f"strategy.{chosen}",
                f"strategy.{chosen}:error@nth=1",
                "tiny", "xpath", "Child+[lab() = b]", 0,
            )
        )
        assert outcome.status == "recovered"
        assert outcome.stats is not None
        assert len(outcome.stats.attempts) >= 2

    def test_ingestion_corrupt_scenarios_degrade_or_type(self):
        for site in ("xml.parse", "disk.read", "stream.events"):
            outcome = run_scenario(
                ChaosScenario(site, f"{site}:corrupt@nth=1", "wide", "ingest", site, 0)
            )
            assert outcome.status in ("typed-error", "degraded", "recovered"), (
                site, outcome.status, outcome.detail,
            )
            assert outcome.tripped, site

    def test_truncation_to_nothing_degrades_to_the_placeholder_root(self):
        # seed 2 cuts "tiny" before its first element: recovery keeps
        # only the #document placeholder root, which has no XML spelling
        outcome = run_scenario(
            ChaosScenario(
                "xml.parse", "xml.parse:corrupt@nth=1", "tiny", "ingest",
                "xml.parse", 2,
            )
        )
        assert outcome.status == "degraded", outcome.detail
        assert outcome.tripped

    def test_seed_2_full_sweep_is_ok(self):
        report = chaos_sweep(seed=2)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("site", ["disk.read", "disk.write"])
    def test_disk_oracles_compare_label_sets(self, site, monkeypatch):
        """A stored tree that comes back with an extra label is a wrong
        answer even though every primary label and parent matches."""
        from repro.storage import diskstore
        from repro.trees.tree import Tree

        real_load = diskstore.load_tree

        def load_with_extra_label(path):
            tree = real_load(path)
            labels = list(tree.labels)
            labels[-1] = labels[-1] | {"extra"}
            return Tree(tree.label, labels, tree.parent, tree.children)

        monkeypatch.setattr(diskstore, "load_tree", load_with_extra_label)
        outcome = run_scenario(
            ChaosScenario(
                site, f"{site}:latency@nth=1", "tiny", "ingest", site, 0,
            )
        )
        assert outcome.status == "wrong-answer", outcome.detail

    def test_latency_scenarios_still_answer_correctly(self):
        outcome = run_scenario(
            ChaosScenario(
                "index.build", "index.build:latency@nth=1",
                "tiny", "xpath", "Child+[lab() = b]", 0,
            )
        )
        assert outcome.status == "recovered"


class TestFallbackDemos:
    @pytest.fixture(scope="class")
    def demos(self):
        return fallback_demos(seed=0)

    def test_every_engine_site_has_a_recovery_demo(self, demos):
        # ingestion, HTTP-boundary, telemetry and corpus sites have no
        # engine attempt chain; the sweep covers them through dedicated
        # drivers
        engine_sites = {
            s for s in registered_sites()
            if s not in ("xml.parse", "stream.events", "disk.read",
                         "disk.write", "disk.verify",
                         "service.decode", "service.handler",
                         "service.admission", "service.breaker",
                         "service.drain", "obs.sample", "obs.eventlog")
            and not s.startswith("corpus.")
        }
        assert set(demos) == engine_sites

    def test_demos_carry_attempt_chains_and_fault_sites(self, demos):
        for site, stats in demos.items():
            assert len(stats.attempts) >= 2, site
            assert stats.attempts[-1].outcome == "ok", site
            assert site in stats.faults, site

    def test_true_fallback_demo_exists_for_planner_choices(self, demos):
        # at least one demo shows the paper's redundancy: the chosen
        # strategy dies and a DIFFERENT one answers
        assert any(
            stats.fallback_from for stats in demos.values()
        ), "no demo fell back to a different strategy"


class TestColumnsChaos:
    """Single faults in the index build and the structural joins (the
    semi-join and pruning kernels) never yield wrong answers — the chaos
    contract extended to those sites."""

    COLUMN_SITES = ("index.build", "join.merge")

    def test_new_sites_are_registered(self):
        for site in self.COLUMN_SITES:
            assert site in registered_sites(), site

    def test_full_sweep_trips_column_sites_without_violations(self, full_report):
        for site in self.COLUMN_SITES:
            assert site in full_report.tripped_sites(), site
        assert not [
            o for o in full_report.violations()
            if o.scenario.site in self.COLUMN_SITES
        ]

    @pytest.mark.parametrize("site", COLUMN_SITES)
    def test_transient_fault_recovers_with_clean_answer(self, site):
        outcome = run_scenario(
            ChaosScenario(
                site, f"{site}:transient@nth=1",
                "tiny", "xpath", "Child+[lab() = b]", 0, "auto",
            )
        )
        assert outcome.status == "recovered", (site, outcome.detail)
        assert outcome.tripped

    @pytest.mark.parametrize("site", COLUMN_SITES)
    def test_error_fault_never_wrong_answer(self, site):
        outcome = run_scenario(
            ChaosScenario(
                site, f"{site}:error@nth=1",
                "wide", "twig", "//item[keyword]", 0, "auto",
            )
        )
        assert outcome.status in ("recovered", "typed-error", "match"), (
            site, outcome.status, outcome.detail,
        )

    def test_column_sites_have_fallback_demos(self):
        demos = fallback_demos(seed=0)
        for site in ("index.build", "join.merge"):
            stats = demos[site]
            assert len(stats.attempts) >= 2, site
            assert stats.attempts[-1].outcome == "ok", site
            assert site in stats.faults, site


@pytest.mark.service
class TestServiceChaos:
    """The chaos contract extended over the HTTP boundary: a fault in
    the request path yields a typed error response or the clean answer.
    Request-path scenarios share one live server per sweep
    (``ServiceHarness``); ``service.drain`` boots its own per scenario
    (docs/SERVICE.md)."""

    SERVICE_SITES = (
        "service.decode", "service.handler",
        "service.admission", "service.breaker",
    )

    def test_new_sites_are_registered(self):
        for site in self.SERVICE_SITES:
            assert site in registered_sites(), site

    def test_full_sweep_trips_service_sites_without_violations(self, full_report):
        for site in self.SERVICE_SITES:
            assert site in full_report.tripped_sites(), site
        assert not [
            o for o in full_report.violations()
            if o.scenario.site in self.SERVICE_SITES
        ]

    @pytest.mark.parametrize("site", SERVICE_SITES)
    def test_error_fault_becomes_typed_http_error(self, site):
        outcome = run_scenario(
            ChaosScenario(
                site, f"{site}:error@nth=1",
                "tiny", "service", site, 0,
            )
        )
        assert outcome.status == "typed-error", (site, outcome.detail)
        assert outcome.tripped
        assert "injected-fault" in outcome.detail

    @pytest.mark.parametrize("site", SERVICE_SITES)
    def test_transient_fault_recovers_via_client_retry(self, site):
        outcome = run_scenario(
            ChaosScenario(
                site, f"{site}:transient@nth=1",
                "tiny", "service", site, 0,
            )
        )
        assert outcome.status == "recovered", (site, outcome.detail)
        assert outcome.tripped

    def test_corrupt_body_never_silently_wrong(self):
        outcome = run_scenario(
            ChaosScenario(
                "service.decode", "service.decode:corrupt@nth=1",
                "tiny", "service", "service.decode", 0,
            )
        )
        assert outcome.status in ("recovered", "typed-error"), outcome.detail
        assert outcome.tripped

    def test_scenarios_share_one_harness(self):
        """A shared harness serves several scenarios back to back with
        no state bleed: each still recovers or types independently."""
        from repro.chaos import ServiceHarness

        harness = ServiceHarness()
        try:
            for site in self.SERVICE_SITES:
                for kind in ("error", "transient"):
                    outcome = run_scenario(
                        ChaosScenario(
                            site, f"{site}:{kind}@nth=1",
                            "tiny", "service", site, 0,
                        ),
                        harness=harness,
                    )
                    expected = (
                        "typed-error" if kind == "error" else "recovered"
                    )
                    assert outcome.status == expected, (
                        site, kind, outcome.detail,
                    )
                    assert outcome.tripped, (site, kind)
        finally:
            harness.close()


@pytest.mark.service
class TestDrainChaos:
    """``service.drain`` faults degrade to an immediate close — never a
    hang, never an untyped escape — and stragglers always get the typed
    503 ``draining`` refusal."""

    def test_drain_fault_degrades(self):
        outcome = run_scenario(
            ChaosScenario(
                "service.drain", "service.drain:error@nth=1",
                "tiny", "service", "service.drain", 0,
            )
        )
        assert outcome.status == "degraded", outcome.detail
        assert outcome.tripped

    def test_drain_latency_still_clean(self):
        outcome = run_scenario(
            ChaosScenario(
                "service.drain", "service.drain:latency@nth=1",
                "tiny", "service", "service.drain", 0,
            )
        )
        assert outcome.status == "recovered", outcome.detail
        assert outcome.tripped


class TestDiskCrashSafety:
    """``disk.write`` / ``disk.verify`` chaos: a faulted write leaves
    the previous version loadable; a corrupted verify raises the typed
    checksum error — the crash-safety differential."""

    def test_write_fault_preserves_previous_version(self):
        for kind in ("error", "corrupt"):
            outcome = run_scenario(
                ChaosScenario(
                    "disk.write", f"disk.write:{kind}@nth=1",
                    "tiny", "ingest", "disk.write", 0,
                )
            )
            assert outcome.status == "typed-error", (kind, outcome.detail)
            assert outcome.tripped, kind

    def test_write_transient_retries_to_new_version(self):
        outcome = run_scenario(
            ChaosScenario(
                "disk.write", "disk.write:transient@nth=1",
                "tiny", "ingest", "disk.write", 0,
            )
        )
        assert outcome.status == "recovered", outcome.detail
        assert outcome.tripped

    def test_verify_corruption_is_typed(self):
        outcome = run_scenario(
            ChaosScenario(
                "disk.verify", "disk.verify:corrupt@nth=1",
                "tiny", "ingest", "disk.verify", 0,
            )
        )
        assert outcome.status == "typed-error", outcome.detail
        assert outcome.tripped


@pytest.mark.service
class TestThreadLeakCheck:
    def test_sweep_reports_no_leaked_threads(self):
        report = chaos_sweep(seed=0, sites=["service.*"], fast=True)
        assert report.ok
        assert report.leaked_threads == []
