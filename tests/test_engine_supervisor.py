"""Tests for the engine supervisor: retry policy, strategy blacklist
and fallback, degradation policies, and attempt accounting
(docs/ROBUSTNESS.md)."""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.errors import (
    AllStrategiesFailedError,
    InjectedFault,
    QueryError,
    TransientError,
)
from repro.faults import FaultPlan

DOC = "<a><b><c/></b><b/><d/></a>"
QUERY = "Child+[lab() = b]"


@pytest.fixture
def db() -> Database:
    return Database.from_xml(DOC)


def clean_answer() -> set:
    return Database.from_xml(DOC).xpath(QUERY).answer


class TestRetryPolicy:
    def test_transient_is_retried_and_succeeds(self, db):
        with FaultPlan(["strategy.*:transient@nth=1"]) as plan:
            result = db.xpath(QUERY, retries=1)
        assert result.answer == clean_answer()
        assert plan.trips
        outcomes = [a.outcome for a in result.stats.attempts]
        assert outcomes == ["transient", "ok"]
        # the retry re-ran the SAME strategy, not a fallback
        assert (
            result.stats.attempts[0].strategy == result.stats.attempts[1].strategy
        )
        assert result.stats.retry_count == 1
        assert not result.stats.fallback_from

    def test_transient_without_retries_raises(self, db):
        with FaultPlan(["strategy.*:transient@nth=1"]):
            with pytest.raises(TransientError):
                db.xpath(QUERY, trace=True)  # supervised path, retries=0

    def test_retries_bound_is_respected(self, db):
        # transient on every call: 2 retries -> 3 attempts, then raise
        with FaultPlan(["strategy.*:transient@every=1"]):
            with pytest.raises(TransientError):
                db.xpath(QUERY, retries=2)

    def test_setup_transients_are_retried_too(self, db):
        for site in ("query.parse", "index.build", "planner.plan"):
            fresh = Database.from_xml(DOC)
            with FaultPlan([f"{site}:transient@nth=1"]) as plan:
                result = fresh.xpath(QUERY, retries=1)
            assert result.answer == clean_answer(), site
            assert plan.tripped_sites() == [site]
            assert result.stats.attempts[0].strategy == "(setup)"
            assert result.stats.attempts[0].outcome == "transient"
            assert site in result.stats.faults

    def test_fast_path_does_not_retry(self, db):
        with FaultPlan(["strategy.*:transient@nth=1"]):
            with pytest.raises(TransientError):
                db.xpath(QUERY)  # no supervision kwargs: fast path


class TestFallbackPolicy:
    def test_failed_strategy_is_blacklisted_and_next_one_answers(self, db):
        chosen = db.plan("xpath", QUERY).strategy
        with FaultPlan([f"strategy.{chosen}:error@nth=1"]) as plan:
            result = db.xpath(QUERY, on_error="fallback")
        assert result.answer == clean_answer()
        assert plan.trips
        assert result.stats.strategy != chosen
        assert chosen in result.stats.fallback_from
        outcomes = [a.outcome for a in result.stats.attempts]
        assert outcomes == ["error", "ok"]
        assert f"strategy.{chosen}" in result.stats.faults

    def test_all_strategies_failed_carries_attempt_chain(self, db):
        with FaultPlan(["strategy.*:error@every=1"]):
            with pytest.raises(AllStrategiesFailedError) as exc_info:
                db.xpath(QUERY, on_error="fallback")
        err = exc_info.value
        assert err.kind == "xpath"
        assert err.query == QUERY
        assert len(err.attempts) >= 2  # several strategies were tried
        assert all(a.outcome == "error" for a in err.attempts)
        assert err.causes and all(
            isinstance(c, InjectedFault) for c in err.causes
        )
        # the chain is human-readable in the message
        assert "injected fault" in str(err)

    def test_explicit_strategy_with_fallback_has_no_alternatives(self, db):
        with FaultPlan(["strategy.linear:error@nth=1"]):
            with pytest.raises(AllStrategiesFailedError) as exc_info:
                db.xpath(QUERY, strategy="linear", on_error="fallback")
        assert len(exc_info.value.attempts) == 1

    def test_retries_compose_with_fallback(self, db):
        chosen = db.plan("xpath", QUERY).strategy
        # the chosen strategy is permanently transient; with fallback the
        # supervisor exhausts its retries there, blacklists it, moves on
        with FaultPlan([f"strategy.{chosen}:transient@every=1"]):
            result = db.xpath(QUERY, retries=1, on_error="fallback")
        assert result.answer == clean_answer()
        outcomes = [a.outcome for a in result.stats.attempts]
        assert outcomes == ["transient", "transient", "ok"]
        assert chosen in result.stats.fallback_from

    def test_error_in_raise_mode_propagates(self, db):
        chosen = db.plan("xpath", QUERY).strategy
        with FaultPlan([f"strategy.{chosen}:error@nth=1"]):
            with pytest.raises(InjectedFault):
                db.xpath(QUERY, trace=True)  # supervised, on_error="raise"


class TestPartialPolicy:
    def test_partial_degrades_to_empty_answer(self, db):
        with FaultPlan(["strategy.*:error@every=1"]) as plan:
            result = db.xpath(QUERY, on_error="partial")
        assert plan.trips
        assert result.answer == set()
        assert result.stats.degraded
        assert result.stats.strategy == "(degraded)"
        assert "DEGRADED" in result.stats.summary()

    def test_partial_setup_failure_degrades(self):
        db = Database.from_xml(DOC)
        with FaultPlan(["query.parse:error@every=1"]):
            result = db.xpath(QUERY, on_error="partial")
        assert result.answer == set()
        assert result.stats.degraded
        assert result.stats.attempts[0].strategy == "(setup)"

    def test_partial_without_faults_is_a_normal_answer(self, db):
        result = db.xpath(QUERY, on_error="partial")
        assert result.answer == clean_answer()
        assert not result.stats.degraded

    def test_user_errors_propagate_even_under_partial(self, db):
        with pytest.raises(QueryError):
            db.xpath("Child+[lab() = b]", strategy="no-such", on_error="partial")


class TestSupervisionArguments:
    def test_unknown_on_error_policy_rejected(self, db):
        with pytest.raises(QueryError):
            db.xpath(QUERY, on_error="retry-forever")

    def test_negative_retries_rejected(self, db):
        with pytest.raises(QueryError):
            db.xpath(QUERY, retries=-1)

    def test_every_entry_point_accepts_supervision_kwargs(self):
        db = Database.from_xml("<a><b/><c/></a>")
        assert db.xpath("Child[lab() = b]", retries=1, on_error="fallback")
        assert db.twig("//a/b", retries=1, on_error="fallback")
        db.cq("ans() :- Child(x, y), Lab:b(y)", retries=1, on_error="fallback")
        db.datalog(
            "Q(x) :- Lab:b(x).\n% query: Q", retries=1, on_error="fallback"
        )
        db.query("Child[lab() = b]", retries=1, on_error="fallback")
        results = db.cross_check(
            "xpath", "Child[lab() = b]", retries=1, on_error="fallback"
        )
        assert results

    def test_supervised_stats_preserve_index_accounting(self):
        db = Database.from_xml(DOC)
        first = db.xpath(QUERY, retries=1)
        again = db.xpath(QUERY, retries=1)
        assert first.stats.index_built
        assert not again.stats.index_built

    def test_successful_supervised_call_has_single_ok_attempt(self, db):
        result = db.xpath(QUERY, retries=3, on_error="fallback")
        assert [a.outcome for a in result.stats.attempts] == ["ok"]
        assert result.stats.attempts[0].elapsed_s >= 0
        assert result.stats.faults == ()

    def test_budget_fallback_semantics_unchanged_in_raise_mode(self, db):
        # max_visited=0 forces every strategy over budget: auto falls
        # back through the ranked list then raises the last budget error
        from repro.errors import ResourceBudgetExceeded

        with pytest.raises(ResourceBudgetExceeded):
            db.xpath(QUERY, max_visited=0)

    def test_budget_exhaustion_in_fallback_mode_wraps(self, db):
        with pytest.raises(AllStrategiesFailedError):
            db.xpath(QUERY, max_visited=0, on_error="fallback")

    def test_budget_exhaustion_in_partial_mode_degrades(self, db):
        result = db.xpath(QUERY, max_visited=0, on_error="partial")
        assert result.answer == set()
        assert result.stats.degraded
        assert all(a.outcome == "budget" for a in result.stats.attempts)


class TestFromFileHardening:
    def test_missing_file_is_storage_error_with_path(self, tmp_path):
        from repro.errors import StorageError

        missing = str(tmp_path / "nope.xml")
        with pytest.raises(StorageError, match="nope.xml"):
            Database.from_file(missing)

    def test_undecodable_file_is_parse_error_with_path(self, tmp_path):
        from repro.errors import ParseError

        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<a>\xff\xfe\x00\x80</a>")
        with pytest.raises(ParseError, match="bad.xml"):
            Database.from_file(str(bad))

    def test_recover_passthrough(self, tmp_path):
        doc = tmp_path / "broken.xml"
        doc.write_text("<a><b><c></b></a>")
        with pytest.raises(Exception):
            Database.from_file(str(doc))
        db = Database.from_file(str(doc), recover=True)
        assert db.tree.n >= 1

    def test_disk_read_fault_site_covers_xml_loads(self, tmp_path):
        from repro.errors import ReproError

        doc = tmp_path / "ok.xml"
        doc.write_text(DOC)
        with FaultPlan(["disk.read:transient@nth=1"]):
            with pytest.raises(ReproError):
                Database.from_file(str(doc))
        assert Database.from_file(str(doc)).tree.n == 5


class TestPlanCache:
    """The query cache's plans: hits on repeats, kept across edits,
    bounded LRU eviction, and clean interaction with the supervisor's
    fallback blacklist."""

    def test_repeated_query_hits(self, db):
        first = db.xpath(QUERY)
        assert db.plan_cache.misses == 1
        assert db.plan_cache.hits == 0
        second = db.xpath(QUERY)
        assert db.plan_cache.hits == 1
        assert db.plan_cache.misses == 1
        assert second.answer == first.answer
        assert second.stats.strategy == first.stats.strategy
        assert second.stats.reason == first.stats.reason

    def test_distinct_queries_miss_separately(self, db):
        db.xpath(QUERY)
        db.xpath("Child[lab() = d]")
        assert db.plan_cache.misses == 2
        assert db.plan_cache.currsize == 2

    def test_edit_reuses_the_cached_plan(self, db):
        first = db.xpath(QUERY)
        db.insert_leaf(db.tree.root, 0, "b")
        result = db.xpath(QUERY)
        # same query text, new document: the plan reads only the query,
        # so it hits; the rebuilt index answers from the edited document
        assert db.plan_cache.hits == 1
        assert db.plan_cache.misses == 1
        assert result.stats.index_built
        assert result.stats.strategy == first.stats.strategy
        assert len(result.answer) == len(clean_answer()) + 1

    def test_lru_eviction_is_bounded(self):
        db = Database(Database.from_xml(DOC).tree, plan_cache=2)
        queries = ["Child[lab() = b]", "Child[lab() = d]", "Child+[lab() = c]"]
        for q in queries:
            db.xpath(q)
        assert db.plan_cache.currsize == 2
        # the evicted (oldest) entry misses again; the newest still hits
        db.xpath(queries[-1])
        assert db.plan_cache.hits == 1
        db.xpath(queries[0])
        assert db.plan_cache.misses == 4
        assert db.plan_cache.currsize == 2

    def test_zero_capacity_disables_caching(self):
        db = Database.from_xml(DOC, plan_cache=0)
        db.xpath(QUERY)
        db.xpath(QUERY)
        assert db.plan_cache.hits == 0
        assert db.plan_cache.misses == 2  # each call parses and plans
        assert db.plan_cache.currsize == 0

    def test_cached_plan_respects_fallback_blacklist(self, db):
        # warm the cache with the planner's normal choice
        clean = db.xpath(QUERY)
        chosen = clean.stats.strategy
        # poison the chosen strategy: the supervisor must blacklist it
        # and fall back, even though the cache keeps serving its plan
        with FaultPlan([f"strategy.{chosen}:error@nth=1"]) as plan:
            result = db.xpath(QUERY, on_error="fallback")
        assert plan.trips
        assert result.answer == clean.answer
        assert result.stats.strategy != chosen
        assert chosen in result.stats.fallback_from
        # the blacklist was per-call: the next clean call returns to the
        # cached plan and the original strategy
        after = db.xpath(QUERY)
        assert after.stats.strategy == chosen
        assert after.answer == clean.answer
        assert db.plan_cache.hits >= 2


class TestParseCache:
    """Parsed queries are cached per Database in the one bounded query
    cache, beside their plans, so a served store's memory cannot grow
    with the number of distinct query texts it has seen."""

    @pytest.fixture
    def parses(self, monkeypatch) -> list:
        import repro.xpath.parser as parser

        calls = []
        real = parser.parse_xpath

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(parser, "parse_xpath", counting)
        return calls

    def test_distinct_queries_stay_within_capacity(self, db, parses):
        for i in range(1000):
            db.xpath(f"Child[lab() = x{i}]")
        assert len(parses) == 1000
        assert db.plan_cache.currsize <= db.plan_cache.maxsize
        # the oldest text was evicted, the newest is still cached
        db.xpath("Child[lab() = x999]")
        db.xpath("Child[lab() = x0]")
        assert parses[1000:] == ["Child[lab() = x0]"]

    def test_repeated_query_skips_the_parser(self, db, parses):
        first = db.xpath(QUERY)
        second = db.xpath(QUERY)
        assert parses == [QUERY]
        assert second.answer == first.answer

    def test_zero_capacity_parses_every_call(self, parses):
        db = Database.from_xml(DOC, plan_cache=0)
        db.xpath(QUERY)
        db.xpath(QUERY)
        assert parses == [QUERY, QUERY]
