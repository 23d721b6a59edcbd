"""The corpus-layer battery: sharding, checkpoints, supervision, resume.

The contracts under test (docs/ROBUSTNESS.md, "Corpus supervision &
resume"):

- **Determinism** — serial (``workers=0``) and pool runs of any degree
  produce byte-identical output files.
- **Supervision** — a SIGKILLed or hung worker is detected, its shard
  retried on a fresh worker, and the run still converges on the serial
  answer; a poison shard exhausts its budget and is quarantined into a
  ``partial`` report, never silently dropped.
- **Resume** — after a mid-run kill, ``resume=True`` skips journaled
  shards (verified spills) and the completed output is byte-identical
  to an uninterrupted run.
- **Fork hygiene** — a forked child re-initializes ``METRICS``, any
  ``EventLogWriter``, and the armed fault plan's lock.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import zlib

import pytest

from repro.corpus import (
    CheckpointJournal,
    corpus_fingerprint,
    discover_corpus,
    run_corpus,
    spill_path,
    split_corpus,
    verify_output,
)
from repro.engine import evaluate_document
from repro.errors import CorpusError, StorageError
from repro.faults import FaultPlan
from repro.service.protocol import encode_answer
from repro.storage import read_blob, write_blob

QUERY = ("xpath", "Child+[lab() = b]")

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)


def make_corpus(root, n=10):
    os.makedirs(root, exist_ok=True)
    docs = []
    for i in range(n):
        name = f"doc{i:02d}.xml"
        body = "<b/>" * (i % 4) + "<c><b/></c>" * (i % 2)
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(f"<a><b>{body}</b><d/></a>")
        docs.append(name)
    return docs


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


class TestSharding:
    def test_discovery_sorted_and_recursive(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 3)
        (root / "sub").mkdir()
        (root / "sub" / "z.xml").write_text("<a/>")
        (root / ".hidden.xml").write_text("<a/>")
        (root / "notes.txt").write_text("skip me")
        docs = discover_corpus(str(root))
        assert docs == ["doc00.xml", "doc01.xml", "doc02.xml", "sub/z.xml"]

    def test_empty_corpus_is_typed_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CorpusError):
            discover_corpus(str(tmp_path / "empty"))
        with pytest.raises(StorageError):
            discover_corpus(str(tmp_path / "missing"))

    def test_split_is_deterministic(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 7)
        a = split_corpus(str(root), shard_size=3)
        b = split_corpus(str(root), shard_size=3)
        assert a == b
        assert [s.shard_id for s in a.shards] == [0, 1, 2]
        assert [len(s.docs) for s in a.shards] == [3, 3, 1]
        assert a.fingerprint == corpus_fingerprint(str(root), a.docs)

    def test_fingerprint_tracks_content(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 3)
        before = split_corpus(str(root)).fingerprint
        (root / "doc00.xml").write_text("<a><b/><b/><b/><b/><b/></a>")
        assert split_corpus(str(root)).fingerprint != before

    def test_bad_shard_size(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 2)
        with pytest.raises(CorpusError):
            split_corpus(str(root), shard_size=0)


# ---------------------------------------------------------------------------
# blob helpers (shared with diskstore)
# ---------------------------------------------------------------------------


class TestBlobs:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.blob")
        write_blob(path, b"payload bytes")
        assert read_blob(path) == b"payload bytes"

    def test_corruption_is_typed(self, tmp_path):
        path = str(tmp_path / "x.blob")
        write_blob(path, b"payload bytes")
        with open(path, "r+b") as fh:
            fh.seek(3)
            fh.write(b"\xff")
        with pytest.raises(StorageError):
            read_blob(path)

    def test_missing_is_typed(self, tmp_path):
        with pytest.raises(StorageError):
            read_blob(str(tmp_path / "absent.blob"))


# ---------------------------------------------------------------------------
# the checkpoint journal
# ---------------------------------------------------------------------------


HEADER = {
    "fingerprint": "f" * 64, "kind": "xpath", "query": "q",
    "query_pred": None, "shard_size": 2,
    "n_docs": 4, "n_shards": 2,
}


class TestCheckpointJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with CheckpointJournal.create(path, HEADER) as journal:
            journal.record_shard(0, ("a.xml", "b.xml"), spill_crc=7,
                                 elapsed_ms=1.5, trace_id="t0", attempts=1)
            journal.record_quarantine(1, ("c.xml",), "boom", attempts=2,
                                      trace_id="t1")
        state = CheckpointJournal.load(path)
        assert state.header["fingerprint"] == HEADER["fingerprint"]
        assert set(state.completed) == {0}
        assert state.completed[0]["docs"] == ["a.xml", "b.xml"]
        assert set(state.quarantined) == {1}
        assert state.skipped_lines == 0

    def test_completion_supersedes_quarantine(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with CheckpointJournal.create(path, HEADER) as journal:
            journal.record_quarantine(0, ("a.xml",), "boom", 2, "t0")
            journal.record_shard(0, ("a.xml",), 7, 1.0, "t1", 1)
        state = CheckpointJournal.load(path)
        assert set(state.completed) == {0}
        assert not state.quarantined

    def test_torn_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with CheckpointJournal.create(path, HEADER) as journal:
            journal.record_shard(0, ("a.xml",), 7, 1.0, "t0", 1)
            journal.record_shard(1, ("b.xml",), 9, 1.0, "t1", 1)
        # SIGKILL mid-append: the last line is torn
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 10)
        state = CheckpointJournal.load(path)
        assert set(state.completed) == {0}
        assert state.skipped_lines == 1

    def test_flipped_byte_is_skipped(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with CheckpointJournal.create(path, HEADER) as journal:
            journal.record_shard(0, ("a.xml",), 7, 1.0, "t0", 1)
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        # corrupt the shard line's docs but keep it valid JSON: only the
        # per-line CRC can catch this
        lines[1] = lines[1].replace("a.xml", "z.xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        state = CheckpointJournal.load(path)
        assert not state.completed
        assert state.skipped_lines == 1

    def test_missing_header_is_typed(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        with pytest.raises(CorpusError):
            CheckpointJournal.load(path)


# ---------------------------------------------------------------------------
# run determinism: serial oracle, pool, resume
# ---------------------------------------------------------------------------


class TestRunDeterminism:
    def test_serial_matches_per_document_oracle(self, tmp_path):
        root = tmp_path / "c"
        docs = make_corpus(root, 6)
        out = str(tmp_path / "out.json")
        kind, query = QUERY
        report = run_corpus(str(root), kind, query, out=out, workers=0,
                            shard_size=2)
        assert report.ok and report.shards_done == 3
        merged = verify_output(out)
        for rel in docs:
            oracle = evaluate_document(str(root / rel), kind, query)
            assert merged["results"][rel] == encode_answer(oracle.answer)

    @fork_only
    def test_pool_output_is_byte_identical_to_serial(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 10)
        kind, query = QUERY
        serial = str(tmp_path / "serial.json")
        run_corpus(str(root), kind, query, out=serial, workers=0,
                   shard_size=3)
        for workers in (1, 4):
            out = str(tmp_path / f"pool{workers}.json")
            report = run_corpus(str(root), kind, query, out=out,
                                workers=workers, shard_size=3)
            assert report.ok
            assert open(out, "rb").read() == open(serial, "rb").read()

    def test_resume_skips_completed_shards(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 6)
        out = str(tmp_path / "out.json")
        kind, query = QUERY
        first = run_corpus(str(root), kind, query, out=out, workers=0,
                           shard_size=2)
        assert first.shards_done == 3
        bytes_first = open(out, "rb").read()
        again = run_corpus(str(root), kind, query, out=out, workers=0,
                           shard_size=2, resume=True)
        assert again.ok
        assert again.shards_resumed == 3 and again.shards_done == 0
        assert open(out, "rb").read() == bytes_first

    def test_resume_accepts_a_header_written_by_this_version(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 6)
        out = str(tmp_path / "out.json")
        kind, query = QUERY
        run_corpus(str(root), kind, query, out=out, workers=0, shard_size=2)
        state = CheckpointJournal.load(os.path.join(out + ".work", "manifest.jsonl"))
        # the header names the corpus and the query, nothing about how
        # the engine evaluates it
        assert set(state.header) >= {
            "fingerprint", "kind", "query", "query_pred", "shard_size",
        }
        assert "columns" not in state.header
        again = run_corpus(str(root), kind, query, out=out, workers=0,
                           shard_size=2, resume=True)
        assert again.ok and again.shards_resumed == 3

    def test_resume_with_no_manifest_is_typed(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 2)
        kind, query = QUERY
        with pytest.raises(CorpusError):
            run_corpus(str(root), kind, query,
                       out=str(tmp_path / "o.json"), workers=0, resume=True)

    def test_resume_rejects_different_query(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 4)
        out = str(tmp_path / "out.json")
        kind, query = QUERY
        run_corpus(str(root), kind, query, out=out, workers=0, shard_size=2)
        with pytest.raises(CorpusError):
            run_corpus(str(root), kind, "Child[lab() = d]", out=out,
                       workers=0, shard_size=2, resume=True)

    def test_resume_recomputes_corrupted_spill(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 4)
        out = str(tmp_path / "out.json")
        workdir = out + ".work"
        kind, query = QUERY
        run_corpus(str(root), kind, query, out=out, workers=0, shard_size=2)
        bytes_first = open(out, "rb").read()
        with open(spill_path(workdir, 1), "r+b") as fh:
            fh.seek(5)
            fh.write(b"\xff\xff")
        report = run_corpus(str(root), kind, query, out=out, workers=0,
                            shard_size=2, resume=True)
        assert report.shards_resumed == 1 and report.shards_done == 1
        assert open(out, "rb").read() == bytes_first

    def test_validation_errors(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 2)
        kind, query = QUERY
        out = str(tmp_path / "o.json")
        with pytest.raises(CorpusError):
            run_corpus(str(root), kind, query, out=out, workers=-1)
        with pytest.raises(CorpusError):
            run_corpus(str(root), kind, query, out=out, retries=-1)
        with pytest.raises(CorpusError):
            run_corpus(str(root), kind, query, out=out, task_timeout_s=0)

    def test_output_crc_detects_tampering(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 2)
        kind, query = QUERY
        out = str(tmp_path / "o.json")
        run_corpus(str(root), kind, query, out=out, workers=0)
        doc = json.loads(open(out).read())
        doc["results"] = {}
        open(out, "w").write(json.dumps(doc))
        with pytest.raises(CorpusError):
            verify_output(out)


# ---------------------------------------------------------------------------
# supervision: kills, hangs, poison shards
# ---------------------------------------------------------------------------


class TestSupervision:
    @fork_only
    def test_sigkilled_worker_is_retried_to_identical_output(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 8)
        kind, query = QUERY
        serial = str(tmp_path / "serial.json")
        run_corpus(str(root), kind, query, out=serial, workers=0,
                   shard_size=2)
        killed = []
        # the first worker forks under a latency hold, so it is still
        # mid-shard when the kill lands; the hook disarms it first
        hold = contextlib.ExitStack()

        def kill_first(shard_id, pid):
            if not killed:
                killed.append(pid)
                hold.close()
                os.kill(pid, signal.SIGKILL)

        out = str(tmp_path / "killed.json")
        with hold:
            hold.enter_context(FaultPlan(["corpus.task:latency:10@nth=1"]))
            report = run_corpus(str(root), kind, query, out=out, workers=2,
                                shard_size=2, retries=1,
                                on_worker_spawn=kill_first)
        assert killed
        assert report.ok
        assert report.worker_deaths >= 1 and report.retries >= 1
        assert open(out, "rb").read() == open(serial, "rb").read()

    @fork_only
    def test_hung_worker_times_out_into_quarantine(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 2)
        kind, query = QUERY
        out = str(tmp_path / "out.json")
        # the latency fault outlives the heartbeat budget in every fresh
        # fork (children inherit the armed plan snapshot), so both
        # attempts hang and the shard is quarantined
        with FaultPlan(["corpus.task:latency:30@nth=1"]) as plan:
            report = run_corpus(str(root), kind, query, out=out, workers=1,
                                shard_size=2, retries=1, task_timeout_s=0.5)
        assert not plan.trips  # the parent never trips it — children do
        assert report.status == "partial"
        assert report.timeouts >= 2  # both attempts timed out
        assert report.shards_quarantined == 1
        doc = verify_output(out)
        assert doc["status"] == "partial"
        assert doc["quarantined"][0]["shard"] == 0

    @fork_only
    def test_poison_shard_exhausts_budget_and_is_quarantined(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 4)
        kind, query = QUERY
        out = str(tmp_path / "out.json")
        # every=1 on the first doc of shard 0: every fresh worker that
        # picks the shard up fails — the definition of a poison shard
        with FaultPlan(["corpus.task:error@every=1"]):
            report = run_corpus(str(root), kind, query, out=out, workers=1,
                                shard_size=4, retries=2)
        assert report.status == "partial"
        quarantined = [s for s in report.shards if s.status == "quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0].attempts == 3  # 1 + retries
        assert "InjectedFault" in quarantined[0].error
        doc = verify_output(out)
        assert doc["status"] == "partial" and doc["results"] == {}
        # the manifest records the quarantine too
        state = CheckpointJournal.load(
            os.path.join(out + ".work", "manifest.jsonl"))
        assert set(state.quarantined) == {0}

    @fork_only
    def test_worker_failure_report_is_typed_not_raised(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 2)
        # one bad document: a worker reports the failure and exits
        # cleanly; the shard quarantines without touching other shards
        (root / "doc00.xml").write_text("<a><unclosed>")
        kind, query = QUERY
        out = str(tmp_path / "out.json")
        report = run_corpus(str(root), kind, query, out=out, workers=1,
                            shard_size=1, retries=0)
        assert report.status == "partial"
        assert report.worker_deaths == 0  # a report, not a crash
        statuses = {s.shard_id: s.status for s in report.shards}
        assert statuses[0] == "quarantined" and statuses[1] == "done"

    @fork_only
    def test_per_shard_trace_ids_are_distinct(self, tmp_path):
        root = tmp_path / "c"
        make_corpus(root, 6)
        kind, query = QUERY
        out = str(tmp_path / "out.json")
        run_corpus(str(root), kind, query, out=out, workers=2, shard_size=2)
        state = CheckpointJournal.load(
            os.path.join(out + ".work", "manifest.jsonl"))
        trace_ids = [r["trace_id"] for r in state.completed.values()]
        assert len(trace_ids) == 3 and len(set(trace_ids)) == 3


# ---------------------------------------------------------------------------
# crash mid-run, then resume: the headline differential
# ---------------------------------------------------------------------------


class TestCrashResume:
    @pytest.mark.slow
    def test_sigkill_mid_run_then_resume_is_byte_identical(self, tmp_path):
        """A subprocess corpus run is SIGKILLed after two shard
        checkpoints; ``resume=True`` must skip the journaled shards and
        finish with output byte-identical to an uninterrupted serial
        run."""
        root = tmp_path / "c"
        make_corpus(root, 8)
        kind, query = QUERY
        serial = str(tmp_path / "serial.json")
        run_corpus(str(root), kind, query, out=serial, workers=0,
                   shard_size=2)

        out = str(tmp_path / "crashed.json")
        script = textwrap.dedent(
            """
            import os, signal, sys
            from repro.corpus import checkpoint, run_corpus

            root, out = sys.argv[1], sys.argv[2]
            appended = []
            original = checkpoint.CheckpointJournal.append
            def dying_append(self, record):
                original(self, record)
                if record.get("type") == "shard":
                    appended.append(record)
                    if len(appended) == 2:
                        os.kill(os.getpid(), signal.SIGKILL)
            checkpoint.CheckpointJournal.append = dying_append
            run_corpus(root, "xpath", "Child+[lab() = b]", out=out,
                       workers=0, shard_size=2)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(root), out],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == -9, proc.stderr.decode()
        assert not os.path.exists(out)  # died before the merge

        report = run_corpus(str(root), kind, query, out=out, workers=0,
                            shard_size=2, resume=True)
        assert report.ok
        assert report.shards_resumed == 2  # the journaled ones
        assert report.shards_done == 2  # the rest
        assert open(out, "rb").read() == open(serial, "rb").read()


# ---------------------------------------------------------------------------
# fork hygiene (the satellite fix)
# ---------------------------------------------------------------------------


class TestForkGuards:
    @fork_only
    def test_forked_child_event_log_writer_works(self, tmp_path):
        from repro.obs.events import EventLogWriter

        ctx = multiprocessing.get_context("fork")
        path = str(tmp_path / "events.jsonl")
        writer = EventLogWriter(path, queue_size=8)
        try:
            writer.submit({"trace_id": "parent", "route": "/q"})
            assert writer.flush()

            def child_writes():
                # the inherited writer must have been re-initialized:
                # fresh queue, fresh lock, and a live drain thread
                ok = writer.submit({"trace_id": "child", "route": "/q"})
                flushed = writer.flush()
                os._exit(0 if (ok and flushed) else 13)

            proc = ctx.Process(target=child_writes)
            proc.start()
            proc.join(30)
            assert proc.exitcode == 0
        finally:
            writer.close()
        trace_ids = {
            json.loads(line)["trace_id"]
            for line in open(path, encoding="utf-8")
        }
        assert trace_ids == {"parent", "child"}

    @fork_only
    def test_forked_child_metrics_are_isolated(self):
        from repro.obs.metrics import METRICS

        ctx = multiprocessing.get_context("fork")
        METRICS.add("fork.test.parent", 41)

        def child_checks():
            # the child's registry must start empty (no inherited
            # totals) and must be usable (fresh lock)
            inherited = METRICS.get("fork.test.parent")
            METRICS.add("fork.test.child")
            os._exit(0 if inherited == 0 else 13)

        proc = ctx.Process(target=child_checks)
        proc.start()
        proc.join(30)
        assert proc.exitcode == 0
        # and the child's activity never leaks back into the parent
        assert METRICS.get("fork.test.child") == 0
        assert METRICS.get("fork.test.parent") == 41

    @fork_only
    def test_forked_child_fault_plan_lock_is_fresh(self):
        ctx = multiprocessing.get_context("fork")
        with FaultPlan(["corpus.task:error@nth=3"]) as plan:
            plan._lock.acquire()  # simulate mid-hit fork
            try:
                def child_hits():
                    from repro.faults import faultpoint
                    # would deadlock on the inherited held lock without
                    # the at-fork re-init
                    faultpoint("corpus.task", None)
                    os._exit(0)

                proc = ctx.Process(target=child_hits)
                proc.start()
                proc.join(30)
                assert proc.exitcode == 0
            finally:
                plan._lock.release()


# ---------------------------------------------------------------------------
# chaos integration
# ---------------------------------------------------------------------------


class TestCorpusChaos:
    @pytest.mark.slow
    def test_corpus_prefix_sweep_is_green_and_trips_all_sites(self):
        from repro.chaos import chaos_sweep

        report = chaos_sweep(seed=3, sites=["corpus"])
        assert report.ok, report.summary()
        assert report.tripped_sites() == {
            "corpus.split", "corpus.worker", "corpus.task",
            "corpus.merge", "corpus.checkpoint",
        }
        # the kill differential ran and recovered
        kills = [o for o in report.outcomes
                 if o.scenario.kind == "corpus-kill"]
        assert len(kills) == 1 and kills[0].status == "recovered"

    @fork_only
    def test_kill_lands_mid_shard_despite_a_late_spawn_hook(
        self, monkeypatch
    ):
        """A spawn hook that runs 0.5 s late gives an unheld worker time
        to finish its two tiny documents before the SIGKILL lands; the
        scenario's latency hold must keep it mid-shard so the death is
        counted."""
        import time

        import repro.corpus
        from repro.chaos import generate_scenarios, run_scenario

        real_run = repro.corpus.run_corpus

        def run_with_late_hook(*args, on_worker_spawn=None, **kwargs):
            def late_hook(shard_id, pid):
                time.sleep(0.5)
                on_worker_spawn(shard_id, pid)

            if on_worker_spawn is not None:
                kwargs["on_worker_spawn"] = late_hook
            return real_run(*args, **kwargs)

        monkeypatch.setattr(repro.corpus, "run_corpus", run_with_late_hook)
        [kill] = [s for s in generate_scenarios(sites=["corpus.worker"])
                  if s.kind == "corpus-kill"]
        outcome = run_scenario(kill)
        assert outcome.status == "recovered", outcome.detail

    def test_prefix_must_match_something(self):
        from repro.chaos import generate_scenarios
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            generate_scenarios(sites=["corpuz"])

    def test_glob_and_exact_still_work(self):
        from repro.chaos import generate_scenarios

        exact = generate_scenarios(sites=["corpus.merge"])
        assert {s.site for s in exact} == {"corpus.merge"}
        glob = generate_scenarios(sites=["corpus.*"])
        assert {s.site for s in glob} == {
            "corpus.split", "corpus.worker", "corpus.task",
            "corpus.merge", "corpus.checkpoint",
        }


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCorpusCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_run_status_verify_roundtrip(self, tmp_path, capsys):
        root = tmp_path / "c"
        make_corpus(root, 4)
        out = str(tmp_path / "out.json")
        code = self.run_cli(
            "corpus", "run", str(root), "--query", QUERY[1], "--out", out,
            "--workers", "0", "--shard-size", "2",
        )
        assert code == 0
        assert "corpus complete" in capsys.readouterr().out
        assert self.run_cli("corpus", "status", out + ".work") == 0
        assert "status: complete" in capsys.readouterr().out
        assert self.run_cli("corpus", "verify", out) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_partial_run_exits_one(self, tmp_path, capsys):
        root = tmp_path / "c"
        make_corpus(root, 2)
        (root / "doc00.xml").write_text("<a><unclosed>")
        out = str(tmp_path / "out.json")
        code = self.run_cli(
            "corpus", "run", str(root), "--query", QUERY[1], "--out", out,
            "--workers", "0", "--shard-size", "1", "--retries", "0",
        )
        assert code == 1
        assert "quarantined" in capsys.readouterr().out
        assert self.run_cli("corpus", "status", out + ".work") == 1

    def test_resume_without_manifest_exits_two(self, tmp_path, capsys):
        root = tmp_path / "c"
        make_corpus(root, 2)
        code = self.run_cli(
            "corpus", "run", str(root), "--query", QUERY[1],
            "--out", str(tmp_path / "o.json"), "--workers", "0", "--resume",
        )
        assert code == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_verify_flags_corrupted_spill(self, tmp_path, capsys):
        root = tmp_path / "c"
        make_corpus(root, 4)
        out = str(tmp_path / "out.json")
        assert self.run_cli(
            "corpus", "run", str(root), "--query", QUERY[1], "--out", out,
            "--workers", "0", "--shard-size", "2",
        ) == 0
        capsys.readouterr()
        with open(spill_path(out + ".work", 0), "r+b") as fh:
            fh.seek(4)
            fh.write(b"\xff")
        assert self.run_cli("corpus", "verify", out) == 1
        assert "FAIL" in capsys.readouterr().out


class TestStoreVerifyDirectory:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def make_store(self, path, text="<a><b/></a>"):
        from repro.storage import dump_tree
        from repro.trees.xmlio import parse_xml

        dump_tree(parse_xml(text), str(path))

    def test_directory_expands_recursively(self, tmp_path, capsys):
        self.make_store(tmp_path / "one.rtre")
        (tmp_path / "sub").mkdir()
        self.make_store(tmp_path / "sub" / "two.rtre")
        assert self.run_cli("store", "verify", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2 and "two.rtre" in out

    def test_directory_names_each_failure(self, tmp_path, capsys):
        self.make_store(tmp_path / "good.rtre")
        self.make_store(tmp_path / "bad.rtre")
        with open(tmp_path / "bad.rtre", "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff\xff")
        assert self.run_cli("store", "verify", str(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bad.rtre" in out and "OK" in out

    def test_empty_directory_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert self.run_cli("store", "verify", str(tmp_path / "empty")) == 1
        assert "no .rtre files" in capsys.readouterr().out
