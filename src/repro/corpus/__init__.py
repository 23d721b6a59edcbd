"""Sharded corpus evaluation: split → supervised fan-out → merge.

One query over a *directory* of documents, evaluated per document (the
unit of parallelism the Gottlob–Koch–Schulz complexity maps justify:
answers over disjoint trees are independent) across a supervised
``multiprocessing`` worker pool, with crash-safe resumable checkpoints
and a deterministic merge — parallel degree never changes the output
bytes.  See docs/ROBUSTNESS.md ("Corpus supervision & resume") and
``repro corpus run/status/verify`` on the CLI.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".checkpoint": ["MANIFEST_SCHEMA", "CheckpointJournal", "ManifestState", "spill_path"],
    ".runner": ["RESULT_SCHEMA", "CorpusReport", "ShardStatus", "run_corpus", "verify_output"],
    ".sharding": [
        "CORPUS_SUFFIXES", "Shard", "ShardPlan", "corpus_fingerprint",
        "discover_corpus", "split_corpus",
    ],
    ".worker": ["SPILL_SCHEMA", "ShardOutcome", "ShardTask", "evaluate_shard"],
})
