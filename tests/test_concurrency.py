"""The concurrency battery: shared-Database thread safety.

The service serves one :class:`~repro.engine.Database` to many request
threads, so PR 7 pins down three properties:

- **Differential**: N threads hammering mixed-language queries get
  byte-identical answers (canonical JSON encoding) to serial execution
  — unobserved and supervised (whose Observation context is a
  ContextVar: one request's budget must never be charged by another
  thread).
- **The query cache under contention**: the LRU's counters stay
  coherent when 16 threads race lookups, stores and evictions.
- **Lazy shared state under contention**: the index and the Tree's
  derived columns are built once and shared without corruption.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Database
from repro.service.protocol import encode_answer
from repro.workloads import xmark_like

N_THREADS = 8
REPS = 10  # x len(MIX) tasks >= 100 mixed-language executions

#: the mixed-language query list replayed by every differential test
MIX = [
    ("xpath", "Child*[lab() = item]"),
    ("xpath", "Child*[lab() = item]/Child[lab() = name]"),
    ("xpath", "Child+[lab() = person][Child[lab() = profile]]"),
    ("xpath", "Child*[lab() = parlist]/Child[lab() = listitem]"),
    ("xpath", "Child*[lab() = keyword]"),
    ("twig", "//item/name"),
    ("twig", "//item[payment]//keyword"),
    ("twig", "//person/profile"),
    ("cq", "ans(y) :- Child(x, y), Lab:item(x), Lab:name(y)"),
    ("cq", "ans(x, y) :- Child+(x, y), Lab:person(x), Lab:profile(y)"),
    ("datalog", "Q(x) :- Lab:keyword(x).\n% query: Q"),
    ("datalog", "Q(x) :- Lab:person(x).\n% query: Q"),
    # sibling axes: the first of these derives the Tree's sibling columns
    ("xpath", "Child*[lab() = item]/NextSibling+[lab() = item]"),
    ("datalog", "M(x) :- Lab:name(x).\nQ(y) :- NextSibling(x, y), M(x).\n% query: Q"),
]

#: the columns a Tree derives on their first read
DERIVED = ("next_sibling", "prev_sibling", "sibling_index", "bflr")


def canonical(answer) -> str:
    """The byte form compared across threads: canonical JSON."""
    return json.dumps(encode_answer(answer), sort_keys=True)


def doc():
    return xmark_like(40, seed=3)


@pytest.fixture(params=["off", "on"], ids=["columns-off", "columns-on"])
def shared_db(request):
    """One Database shared by every thread of a test.

    ``columns-off`` leaves the index and the Tree's derived columns
    (sibling links, sibling indexes, <bflr) unbuilt, so the threads race
    their lazy construction; ``columns-on`` materializes them all before
    the threads start, so the threads only read shared, already-built
    state.
    """
    db = Database(doc())
    if request.param == "on":
        db.index
        for name in DERIVED:
            getattr(db.tree, name)
    return db


class TestThreadedDifferential:
    def test_concurrent_equals_serial(self, shared_db):
        """8 threads x 120 mixed queries == serial answers, byte for byte."""
        serial = {
            (kind, q): canonical(Database(doc()).run(kind, q).answer)
            for kind, q in MIX
        }
        tasks = [pair for pair in MIX for _ in range(REPS)]
        random.Random(7).shuffle(tasks)
        assert len(tasks) >= 100

        def work(pair):
            kind, q = pair
            return pair, canonical(shared_db.run(kind, q).answer)

        # switch threads often, so a lost update of the shared
        # queries_served counter would show in the count below
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                for pair, encoded in pool.map(work, tasks):
                    assert encoded == serial[pair], f"{pair} diverged under threads"
        finally:
            sys.setswitchinterval(interval)
        assert shared_db.queries_served == len(tasks)

    def test_concurrent_supervised_equals_serial(self, shared_db):
        """The supervised path (per-thread Observation, budgets, retry
        bookkeeping) stays differential under contention."""
        serial = {
            (kind, q): canonical(Database(doc()).run(kind, q).answer)
            for kind, q in MIX
        }
        tasks = [pair for pair in MIX for _ in range(REPS)]
        random.Random(11).shuffle(tasks)

        def work(pair):
            kind, q = pair
            result = shared_db.run(
                kind, q, retries=1, on_error="fallback", deadline=60.0
            )
            assert not result.stats.degraded
            return pair, canonical(result.answer)

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            for pair, encoded in pool.map(work, tasks):
                assert encoded == serial[pair], f"{pair} diverged (supervised)"

    def test_racing_first_reads_derive_each_column_once(self, shared_db):
        """Every thread racing the first read of a derived column sees
        the same column, equal to the one a fresh Tree derives."""
        tree = shared_db.tree
        barrier = threading.Barrier(N_THREADS)
        seen = []

        def work():
            barrier.wait()
            seen.append([getattr(tree, name) for name in DERIVED])

        threads = [threading.Thread(target=work) for _ in range(N_THREADS)]
        # switch threads often, so a second derivation would show below
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == N_THREADS
        fresh = doc()
        for i, name in enumerate(DERIVED):
            assert len({id(columns[i]) for columns in seen}) == 1, name
            assert seen[0][i] == getattr(fresh, name), name

    def test_racing_first_query_builds_one_index(self, shared_db):
        """Every thread racing the lazy index build sees the same object."""
        barrier = threading.Barrier(N_THREADS)
        seen = []

        def work():
            barrier.wait()
            seen.append(shared_db.index)

        threads = [threading.Thread(target=work) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(ix) for ix in seen}) == 1


class TestPlanCacheHammer:
    def test_16_threads_cache_invariants(self):
        """Database.execute from 16 threads: the query cache's counters
        stay coherent.

        With maxsize 8 and 12 distinct queries, threads race lookups,
        stores and evictions; the invariants below hold exactly because
        every execute of a query text does one cache lookup, which
        parses and plans on a miss.
        """
        db = Database(doc(), plan_cache=8)
        db.index  # keep the hammer about the cache, not the index build
        tasks = [pair for pair in MIX for _ in range(12)]
        random.Random(5).shuffle(tasks)

        def work(pair):
            kind, q = pair
            return canonical(db.run(kind, q).answer)

        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(work, tasks))

        info = db.plan_cache
        assert info.maxsize == 8
        assert info.currsize <= info.maxsize
        assert info.hits + info.misses == len(tasks)
        assert info.hits > 0  # contention did share compiled plans

    def test_hammered_cache_still_differential(self):
        """Eviction churn under threads never serves a wrong plan."""
        serial = {
            (kind, q): canonical(Database(doc()).run(kind, q).answer)
            for kind, q in MIX
        }
        db = Database(doc(), plan_cache=2)  # maximal eviction churn
        tasks = [pair for pair in MIX for _ in range(6)]
        random.Random(13).shuffle(tasks)

        def work(pair):
            kind, q = pair
            return pair, canonical(db.run(kind, q).answer)

        with ThreadPoolExecutor(max_workers=16) as pool:
            for pair, encoded in pool.map(work, tasks):
                assert encoded == serial[pair]


class TestColumnStoreHammer:
    def test_derived_artifacts_safe_under_threads(self):
        """16 threads racing the lazy index build on nested-qualifier
        XPath and twig queries agree with serial."""
        queries = [
            ("xpath", "Child+[lab() = person][Child[lab() = profile]]"),
            ("xpath", "Child+[lab() = item][Child[lab() = payment]]"),
            ("twig", "//item/name"),
            ("twig", "//person/profile"),
        ]
        serial = {
            (kind, q): canonical(Database(doc()).run(kind, q).answer)
            for kind, q in queries
        }
        db = Database(doc())
        tasks = [pair for pair in queries for _ in range(25)]
        random.Random(17).shuffle(tasks)

        def work(pair):
            kind, q = pair
            return pair, canonical(db.run(kind, q).answer)

        with ThreadPoolExecutor(max_workers=16) as pool:
            for pair, encoded in pool.map(work, tasks):
                assert encoded == serial[pair]
