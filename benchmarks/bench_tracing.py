"""E-TRC — the request-tracing pipeline's disabled-path overhead.

The tracing contract (docs/OBSERVABILITY.md): a request the sampler
does **not** retain pays almost nothing.  Three gates make that true,
and each is pinned here as its own recorded series so a regression
shows up in ``repro bench compare``:

- **the ambient gate** — every ``Database._execute`` call reads the
  observation ContextVar and checks ``.tracer``; with no context (the
  library-user path) that is one C-level lookup plus a None test,
- **head sampling** — ``head_decision(trace_id, rate)`` is a slice of
  8 hex digits and one integer compare, deterministic per id,
- **the unsampled record** — ``TraceSampler.record`` with head rate 0
  and no tail/error policy returns False without allocating a tracer.

The macro check re-runs the warm engine workload inside an *unsampled*
ambient Observation: the gate routes through the supervised path, but
with no tracer attached the answers and the timing must match the
bare run within noise.
"""

import time

from repro.engine import Database
from repro.obs import Observation, current, head_decision, new_trace_id, observed
from repro.obs.sampling import TraceSampler
from repro.perf import Sample
from repro.workloads import xmark_like

from _benchutil import record_series, report, sizes, timed

XPATH_WORKLOAD = [
    "Child*[lab() = item]/Child[lab() = keyword]",
    "Child*[lab() = person][Child[lab() = profile]]",
    "Child*[lab() = regions]/Child+[lab() = item]",
]


def _run_workload(db: Database, stats: "list | None" = None):
    results = [db.xpath(q) for q in XPATH_WORKLOAD]
    if stats is not None:
        stats.extend(r.stats for r in results)
    return [frozenset(r.answer) for r in results]


def test_ambient_gate_cost_disabled():
    """``current()`` + the tracer check, microbenchmarked against an
    empty loop — the whole per-call cost tracing adds to an engine
    call made outside any request."""
    assert current() is None  # nothing active: the library-user path

    calls = sizes(200_000, 40_000)

    def gate_loop():
        for _ in range(calls):
            ctx = current()
            if ctx is not None and ctx.tracer is not None:
                raise AssertionError("no context should be active")

    def empty_loop():
        for _ in range(calls):
            pass

    t_gate = timed(gate_loop, repeats=3)
    t_empty = timed(empty_loop, repeats=3)
    per_call = max(float(t_gate) - float(t_empty), 0.0) / calls
    record_series("trace gate disabled per-call overhead", [(calls, per_call)])
    report(
        "E-TRC: ambient observation gate, no context active",
        ["calls", "gate loop", "empty loop", "per-call (s)"],
        [[calls, t_gate, t_empty, f"{per_call:.2e}"]],
    )
    # a ContextVar read + None check in CPython is tens of nanoseconds
    assert per_call < 5e-6


def test_head_decision_cost():
    """One sampling decision per request: 8 hex digits to an int and a
    compare.  Also pins determinism — the decision is a pure function
    of (id, rate), so replaying an id replays its fate."""
    tid = new_trace_id()
    assert head_decision(tid, 0.5) == head_decision(tid, 0.5)

    calls = sizes(200_000, 40_000)

    def decide_loop():
        for _ in range(calls):
            head_decision(tid, 0.1)

    def empty_loop():
        for _ in range(calls):
            pass

    t_decide = timed(decide_loop, repeats=3)
    t_empty = timed(empty_loop, repeats=3)
    per_call = max(float(t_decide) - float(t_empty), 0.0) / calls
    record_series("head sampling decision per-call cost", [(calls, per_call)])
    report(
        "E-TRC: head_decision(trace_id, 0.1)",
        ["calls", "decide loop", "empty loop", "per-call (s)"],
        [[calls, t_decide, t_empty, f"{per_call:.2e}"]],
    )
    assert per_call < 5e-6


def test_unsampled_record_cost():
    """``TraceSampler.record`` on a sampled-out configuration: the
    per-request cost of running the service with tracing *off* (head
    rate 0, no tail threshold, errors not kept)."""
    sampler = TraceSampler(head_rate=0.0, slow_ms=None, keep_errors=False)
    assert not sampler.enabled
    tid = new_trace_id()
    assert sampler.record(tid) is False

    calls = sizes(200_000, 40_000)

    def record_loop():
        for _ in range(calls):
            sampler.record(tid)

    def empty_loop():
        for _ in range(calls):
            pass

    t_record = timed(record_loop, repeats=3)
    t_empty = timed(empty_loop, repeats=3)
    per_call = max(float(t_record) - float(t_empty), 0.0) / calls
    record_series("unsampled TraceSampler.record per-call cost", [(calls, per_call)])
    report(
        "E-TRC: TraceSampler.record, sampling disabled",
        ["calls", "record loop", "empty loop", "per-call (s)"],
        [[calls, t_record, t_empty, f"{per_call:.2e}"]],
    )
    assert per_call < 5e-6


def test_unsampled_ambient_workload_within_noise():
    """The macro contract: a warm workload run under an unsampled
    ambient Observation (trace id issued, no tracer — exactly what the
    service middleware activates when the sampler declines) must match
    the bare run's answers and stay within noise of its time."""
    rows = []
    for n in sizes((100, 200, 400), (60, 120)):
        tree = xmark_like(n, seed=11)

        db_bare = Database(tree)
        _run_workload(db_bare)  # build the index outside the timer
        start = time.perf_counter()
        bare_answers = []
        for _ in range(3):
            bare_answers = _run_workload(db_bare)
        t_bare = time.perf_counter() - start

        db_traced = Database(tree)
        _run_workload(db_traced)
        obs = Observation(tracer=None, trace_id=new_trace_id())
        traced_stats = []
        start = time.perf_counter()
        traced_answers = []
        with observed(obs):
            for _ in range(3):
                traced_answers = _run_workload(db_traced, traced_stats)
        t_traced = time.perf_counter() - start

        assert traced_answers == bare_answers
        # the ambient id is stamped on every stats record even unsampled
        assert all(s.trace_id == obs.trace_id for s in traced_stats)
        rows.append(
            [
                tree.n,
                Sample.from_value(t_bare),
                Sample.from_value(t_traced),
                f"{t_traced / max(t_bare, 1e-9):.2f}x",
            ]
        )
    report(
        "E-TRC: 3× warm workload, bare vs unsampled ambient observation",
        ["nodes", "bare", "unsampled ambient", "ratio"],
        rows,
    )
    # within noise: generous 1.5× ceiling for shared-CI jitter
    assert rows[-1][2] <= rows[-1][1] * 1.5
