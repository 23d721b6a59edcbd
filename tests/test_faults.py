"""Tests for repro.faults: the site registry, the spec grammar, plan
determinism and scoping, and trip recording (docs/ROBUSTNESS.md)."""

from __future__ import annotations

import json
import re

import pytest

import repro.faults
from repro.engine.strategies import STRATEGIES
from repro.errors import InjectedFault, QueryError, TransientError
from repro.faults import (
    FaultPlan,
    FaultRule,
    active_plan,
    faultpoint,
    register_site,
    registered_sites,
)
from repro.obs.metrics import METRICS

# importing the engine and the ingestion modules registers every site
import repro.chaos  # noqa: F401

from conftest import SRC, run_fresh


@pytest.fixture
def site_registry(monkeypatch):
    """Let a test register sites of its own: the registry is restored
    in teardown, so later sweeps never meet them."""
    monkeypatch.setattr(repro.faults, "_SITES", dict(repro.faults._SITES))


class TestRegistry:
    def test_register_is_idempotent_and_returns_name(self, site_registry):
        assert register_site("test.site.a", "first doc") == "test.site.a"
        register_site("test.site.a", "second doc ignored")
        assert registered_sites()["test.site.a"] == "first doc"

    def test_importing_chaos_registers_every_site(self):
        """Every ``register_site("...")`` literal under ``src/repro``
        and every strategy's site is registered once ``repro.chaos`` is
        imported, whatever else was imported."""
        literal = re.compile(r'register_site\(\s*"([^"]+)"')
        sites = {
            name
            for path in (SRC / "repro").rglob("*.py")
            for name in literal.findall(path.read_text(encoding="utf-8"))
        }
        sites |= {f"strategy.{name}" for by_name in STRATEGIES.values() for name in by_name}
        registered = run_fresh(
            "import json, repro.chaos\n"
            "print(json.dumps(sorted(repro.faults.registered_sites())))\n"
        )
        assert set(json.loads(registered)) == sites

    def test_all_contractual_sites_registered(self):
        sites = registered_sites()
        for expected in (
            "index.build",
            "planner.plan",
            "query.parse",
            "join.merge",
            "xml.parse",
            "stream.events",
            "disk.read",
            "strategy.linear",
            "strategy.twigstack",
            "strategy.yannakakis",
            "strategy.minoux",
        ):
            assert expected in sites, expected

    def test_faultpoint_is_identity_with_no_plan(self):
        assert active_plan() is None
        assert faultpoint("index.build") is None
        payload = object()
        assert faultpoint("index.build", payload) is payload


class TestSpecGrammar:
    def test_minimal_spec_defaults_to_nth_1(self):
        rule = FaultRule.parse("index.build:error")
        assert rule.site == "index.build"
        assert rule.kind == "error"
        assert rule.nth == 1 and rule.every is None and rule.p is None

    @pytest.mark.parametrize(
        "spec, attr, value",
        [
            ("a.b:transient@nth=3", "nth", 3),
            ("a.b:error@every=4", "every", 4),
            ("a.b:error@p=0.25", "p", 0.25),
            ("strategy.*:latency:0.005", "latency_s", 0.005),
        ],
    )
    def test_trigger_and_arg_parsing(self, spec, attr, value):
        assert getattr(FaultRule.parse(spec), attr) == value

    @pytest.mark.parametrize(
        "bad",
        [
            "no-colon",
            ":error",
            "site:bogus-kind",
            "site:error:0.5",  # only latency takes an argument
            "site:latency:abc",
            "site:error@nth=0",
            "site:error@p=1.5",
            "site:error@sometimes",
            "site:error@nth=x",
        ],
    )
    def test_malformed_specs_raise_query_error(self, bad):
        with pytest.raises(QueryError):
            FaultRule.parse(bad)

    def test_spec_round_trips(self):
        for spec in (
            "a.b:error@nth=1",
            "a.b:transient@every=2",
            "a.b:latency:0.002@nth=5",
            "strategy.*:error@p=0.5",
        ):
            assert FaultRule.parse(spec).spec() == spec

    def test_glob_site_matching(self):
        rule = FaultRule.parse("strategy.*:error")
        assert rule.matches("strategy.linear")
        assert rule.matches("strategy.structural-join")
        assert not rule.matches("index.build")


class TestPlanBehaviour:
    def test_error_kind_raises_injected_fault_with_site(self):
        with FaultPlan(["site.x:error"]):
            with pytest.raises(InjectedFault) as exc_info:
                faultpoint("site.x")
        assert exc_info.value.site == "site.x"

    def test_transient_kind_raises_transient_error(self):
        with FaultPlan(["site.x:transient"]):
            with pytest.raises(TransientError):
                faultpoint("site.x")

    def test_nth_trigger_trips_exactly_once(self):
        with FaultPlan(["site.x:error@nth=2"]) as plan:
            faultpoint("site.x")  # call 1: no trip
            with pytest.raises(InjectedFault):
                faultpoint("site.x")  # call 2: trip
            faultpoint("site.x")  # call 3: no trip
        assert [t.call_index for t in plan.trips] == [2]

    def test_every_trigger_trips_periodically(self):
        tripped = []
        with FaultPlan(["site.x:error@every=3"]) as plan:
            for i in range(1, 10):
                try:
                    faultpoint("site.x")
                except InjectedFault:
                    tripped.append(i)
        assert tripped == [3, 6, 9]
        assert plan.calls["site.x"] == 9

    def test_probability_trigger_is_seed_deterministic(self):
        def trips(seed):
            out = []
            with FaultPlan(["site.x:error@p=0.5"], seed=seed):
                for i in range(20):
                    try:
                        faultpoint("site.x")
                    except InjectedFault:
                        out.append(i)
            return out

        assert trips(7) == trips(7)
        assert 0 < len(trips(7)) < 20  # actually probabilistic
        assert trips(7) != trips(8)  # seed matters

    def test_latency_kind_sleeps_and_passes_payload_through(self):
        slept = []
        with FaultPlan(["site.x:latency:0.25"]) as plan:
            plan._sleep = slept.append
            assert faultpoint("site.x", "payload") == "payload"
        assert slept == [0.25]
        assert plan.trips[0].kind == "latency"

    def test_corrupt_kind_uses_the_site_mutator(self):
        with FaultPlan(["site.x:corrupt"], seed=3):
            out = faultpoint(
                "site.x", "abcdefgh", mutator=lambda s, rng: s[: rng.randrange(1, 4)]
            )
        assert out in ("a", "ab", "abc")

    def test_corrupt_without_mutator_degrades_to_injected_fault(self):
        with FaultPlan(["site.x:corrupt"]):
            with pytest.raises(InjectedFault):
                faultpoint("site.x")

    def test_plan_scoping_restores_previous_plan(self):
        assert active_plan() is None
        with FaultPlan(["a:error@nth=99"]) as outer:
            assert active_plan() is outer
            with FaultPlan(["b:error@nth=99"]) as inner:
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_plan_restored_even_when_fault_escapes(self):
        with pytest.raises(InjectedFault):
            with FaultPlan(["site.x:error"]):
                faultpoint("site.x")
        assert active_plan() is None

    def test_same_rules_and_seed_trip_identically(self):
        def run():
            trips = []
            with FaultPlan(["site.x:error@p=0.3"], seed=11) as plan:
                for _ in range(15):
                    try:
                        faultpoint("site.x")
                    except InjectedFault:
                        pass
                trips = [(t.site, t.kind, t.call_index) for t in plan.trips]
            return trips

        assert run() == run()

    def test_trips_recorded_into_metrics(self):
        before_total = METRICS.snapshot().get("fault.trips", 0)
        before_site = METRICS.snapshot().get("fault.site.metrics-test", 0)
        with FaultPlan(["site.metrics-test:error"]):
            with pytest.raises(InjectedFault):
                faultpoint("site.metrics-test")
        snap = METRICS.snapshot()
        assert snap["fault.trips"] == before_total + 1
        assert snap["fault.site.metrics-test"] == before_site + 1

    def test_tripped_sites_in_first_trip_order(self):
        with FaultPlan(["b.site:error@every=1", "a.site:error@every=1"]) as plan:
            for site in ("b.site", "a.site", "b.site"):
                with pytest.raises(InjectedFault):
                    faultpoint(site)
        assert plan.tripped_sites() == ["b.site", "a.site"]

    def test_rules_accept_prebuilt_fault_rules(self):
        rule = FaultRule("site.x", "error", nth=1)
        with FaultPlan([rule]):
            with pytest.raises(InjectedFault):
                faultpoint("site.x")
