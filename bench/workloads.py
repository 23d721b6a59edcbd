"""The four workloads: documents, stores and request sequences.

A workload's traffic is a sequence of *rounds*.  A round holds every
query of the mix as often as its weight says (shuffled), or, for
``ingest``, one session: a PUT followed by three queries on the new store.
Runs always stop on a round boundary, so every run sees the mix in
exactly its stated proportions and the percentiles do not drift with
the length of the run.  Each run starts with one untimed warm-up round,
which touches every code path of the workload.  The traced run plays
*cycles* of ``cycle_rounds`` rounds.

Everything is a pure function of the seed: the documents (:mod:`gen`)
and the order of the requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import gen

__all__ = ["Op", "WORKLOADS", "Workload"]


class Op(NamedTuple):
    """One HTTP request of a workload."""

    method: str  # "POST" (query) or "PUT" (ingest)
    path: str
    body: bytes
    store: str
    doc: str  # id of the document the request reads or installs
    kind: str  # xpath / twig / cq / datalog, or "put"
    query: str = ""
    pred: "str | None" = None

    @property
    def key(self) -> str:
        """The answer key: one expected answer per (document, query)."""
        return "\t".join((self.doc, self.kind, self.query, self.pred or ""))


def _query(store: str, doc: str, kind: str, text: str, pred: "str | None" = None) -> Op:
    body = {"kind": kind, "query": text}
    if pred is not None:
        body["query_pred"] = pred
    return Op(
        "POST", f"/stores/{store}/query",
        json.dumps(body, sort_keys=True).encode("utf-8"),
        store, doc, kind, text, pred,
    )


# (document size arguments at full size, at --smoke size)
_SIZES = {
    "xmark": ({"n_items": 2000}, {"n_items": 80}),
    "wide": ({"n_children": 100_000, "block": 1000}, {"n_children": 3000, "block": 100}),
    "deep": ({"depth": 20_000, "block": 1000}, {"depth": 600, "block": 50}),
    "dblp": ({"n_pubs": 1000}, {"n_pubs": 40}),
}

INGEST_DOCS = 16


def _document(doc: str, seed: int, smoke: bool) -> str:
    family = doc.rstrip("0123456789")
    make = getattr(gen, family)
    return make(random.Random(f"{seed}:{doc}"), **_SIZES[family][smoke])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    connections: int
    cycle_rounds: int
    docs: "tuple[str, ...]"  # document ids
    preload: "dict[str, str]"  # store name -> document id, loaded at boot
    rounds: "Callable[[random.Random, dict[str, str]], Iterator[list[Op]]]"

    def documents(self, seed: int, smoke: bool = False) -> "dict[str, str]":
        """Document id → XML text."""
        return {doc: _document(doc, seed, smoke) for doc in self.docs}

    def stream(
        self, seed: int, conn: int, texts: "dict[str, str]"
    ) -> "Iterator[list[Op]]":
        """The endless round sequence of connection ``conn``."""
        rng = random.Random(f"{seed}:{self.name}:conn{conn}")
        return self.rounds(rng, texts)


def _mix_rounds(mix: "list[tuple[Op, int]]"):
    """Rounds of a fixed weighted query mix, each round shuffled."""
    base = [op for op, weight in mix for _ in range(weight)]

    def rounds(rng: random.Random, _texts) -> "Iterator[list[Op]]":
        while True:
            ops = list(base)
            rng.shuffle(ops)
            yield ops

    return rounds


XMARK_POINT = [
    (_query("xmark", "xmark", "xpath", "Child+[lab() = item]/Child[lab() = name]"), 1),
    (_query("xmark", "xmark", "xpath",
            "Child+[lab() = person]/Child[lab() = emailaddress]"), 1),
    (_query("xmark", "xmark", "xpath",
            "Child+[lab() = closed_auction]/Child[lab() = price]"), 1),
    (_query("xmark", "xmark", "xpath",
            "Child+[lab() = europe]/Child[lab() = item]/Child[lab() = payment]"), 1),
    (_query("xmark", "xmark", "twig", "//profile/interest"), 1),
    (_query("xmark", "xmark", "twig", "//closed_auction/annotation"), 1),
]

XMARK_TWIG = [
    (_query("xmark", "xmark", "xpath",
            "Child+[lab() = item][Child[lab() = shipping]]/Child[lab() = name]"), 1),
    (_query("xmark", "xmark", "xpath",
            "Child+[lab() = person][not(Child[lab() = profile])]/Child[lab() = name]"), 1),
    (_query("xmark", "xmark", "twig", "//parlist//keyword"), 1),
    (_query("xmark", "xmark", "twig", "//item[shipping]/description//keyword"), 1),
    (_query("xmark", "xmark", "twig", "//person[profile/interest]/name"), 1),
]

TREE_JOIN = [
    (_query("wide", "wide", "cq", "ans(y) :- Child(x, y), Lab:hit(y)"), 1),
    (_query("deep", "deep", "cq", "ans(x) :- Child(x, y), Lab:mark(y)"), 1),
    (_query("deep", "deep", "cq", "ans(y) :- NextSibling(x, y), Lab:mark(x)"), 1),
    (_query("wide", "wide", "datalog", "Q(x) :- Lab:hit(x).", "Q"), 2),
    (_query("deep", "deep", "datalog", "Q(x) :- Child(x, y), Lab:mark(y).", "Q"), 1),
    # recursive: marks, then everything that follows a marked sibling
    (_query("deep", "deep", "datalog",
            "M(x) :- Lab:mark(x).\nM(y) :- NextSibling(x, y), M(x).\n"
            "Q(x) :- M(x), Lab:section(x).", "Q"), 1),
]

INGEST_QUERIES = [
    ("xpath", "Child+[lab() = article]/Child[lab() = author]"),
    ("twig", "//inproceedings/booktitle"),
    ("cq", "ans(y) :- Child(x, y), Lab:journal(y)"),
]


def _ingest_rounds(rng: random.Random, texts: "dict[str, str]") -> "Iterator[list[Op]]":
    """One session per round: PUT a dblp document into a fresh store,
    then query it; documents cycle in a seeded order."""
    docs = sorted(texts)
    while True:
        order = list(range(len(docs)))
        rng.shuffle(order)
        for k in order:
            doc, store = docs[k], f"ing{k}"
            put = Op(
                "PUT", f"/stores/{store}?warm=1", texts[doc].encode("utf-8"),
                store, doc, "put",
            )
            yield [put] + [_query(store, doc, kind, text) for kind, text in INGEST_QUERIES]


WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            "xmark-point",
            "cheap label-path queries on keep-alive connections, so HTTP, "
            "protocol and middleware dominate",
            connections=2, cycle_rounds=10, docs=("xmark",),
            preload={"xmark": "xmark"}, rounds=_mix_rounds(XMARK_POINT),
        ),
        Workload(
            "xmark-twig",
            "qualifier XPath and branching twigs, so planner choice and the "
            "XPath/twig kernels dominate",
            connections=1, cycle_rounds=4, docs=("xmark",),
            preload={"xmark": "xmark"}, rounds=_mix_rounds(XMARK_TWIG),
        ),
        Workload(
            "tree-join",
            "CQs and monadic datalog on a wide and a deep tree, so Yannakakis "
            "materialization and datalog grounding dominate",
            connections=1, cycle_rounds=2, docs=("wide", "deep"),
            preload={"wide": "wide", "deep": "deep"}, rounds=_mix_rounds(TREE_JOIN),
        ),
        Workload(
            "ingest",
            "PUT a fresh document then query it, so XML parsing, index build "
            "and cold caches are on the path",
            connections=1, cycle_rounds=INGEST_DOCS,
            docs=tuple(f"dblp{k:02d}" for k in range(INGEST_DOCS)),
            preload={}, rounds=_ingest_rounds,
        ),
    )
}
