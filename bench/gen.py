"""Seeded document generators for the served-query benchmark.

Each generator writes XML text straight from a ``random.Random``; this
module imports nothing from ``repro``, so a change to the program's own
workload generators or serializers cannot change the benchmark's inputs.
The same seed always yields byte-identical text.

Shapes:

- :func:`xmark` — an XMark-style auction site: regions of items with
  recursive ``parlist`` pockets, people with optional profiles, closed
  auctions.  2,000 items give about 30k nodes.
- :func:`wide` — one root with 100k children; one child per block of
  1,000 is a ``hit``.
- :func:`deep` — a 20k-level spine; one spine node per block of 1,000
  levels carries a ``mark`` leaf.  20k stays well below the parser's
  default ``max_depth`` of 50,000 (a deeper document makes
  ``repro serve --store`` exit at boot).
- :func:`dblp` — a flat bibliography, about 6.2k nodes and 85 KB per
  document.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["deep", "dblp", "sha256", "wide", "xmark"]

_REGIONS = ("africa", "asia", "europe", "namerica")
_WORDS = (
    "tree", "query", "join", "index", "stream", "path", "twig", "node",
    "label", "datalog", "automaton", "horn", "acyclic", "width", "axis",
)


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def xmark(rng: random.Random, n_items: int = 2000) -> str:
    """An XMark-style auction document with ``n_items`` items."""
    out = ["<site><regions>"]
    per_region = max(1, n_items // len(_REGIONS))
    serial = 0
    for region in _REGIONS:
        out.append(f"<{region}>")
        for _ in range(per_region):
            serial += 1
            out.append(f"<item><name>item{serial}</name><description><text>")
            depth = rng.randint(0, 3)
            out.append("<parlist><listitem>" * depth)
            out.append(f"<keyword>{_word(rng)}</keyword>")
            out.append("</listitem></parlist>" * depth)
            out.append("</text></description>")
            if rng.random() < 0.5:
                out.append("<payment>cash</payment>")
            if rng.random() < 0.3:
                out.append("<shipping>intl</shipping>")
            out.append("</item>")
        out.append(f"</{region}>")
    out.append("</regions><people>")
    for i in range(n_items):
        out.append(f"<person><name>p{i}</name>")
        if rng.random() < 0.6:
            out.append("<emailaddress>a@b</emailaddress>")
        if rng.random() < 0.4:
            out.append(f"<profile><interest>{_word(rng)}</interest>")
            if rng.random() < 0.5:
                out.append("<education>phd</education>")
            out.append("</profile>")
        out.append("</person>")
    out.append("</people><closed_auctions>")
    for _ in range(n_items // 2):
        out.append("<closed_auction><buyer/><itemref/>")
        out.append(f"<price>{rng.randint(1, 999)}</price>")
        if rng.random() < 0.5:
            out.append("<annotation><description/></annotation>")
        out.append("</closed_auction>")
    out.append("</closed_auctions></site>")
    return "".join(out)


def wide(rng: random.Random, n_children: int = 100_000, block: int = 1000) -> str:
    """One ``collection`` root with ``n_children`` children; exactly one
    child per ``block`` (at a seeded offset) is a ``hit``."""
    labels = ("item", "entry", "record")
    out = ["<collection>"]
    for start in range(0, n_children, block):
        size = min(block, n_children - start)
        hit = rng.randrange(size)
        for i in range(size):
            out.append("<hit/>" if i == hit else f"<{labels[rng.randrange(3)]}/>")
    out.append("</collection>")
    return "".join(out)


def deep(rng: random.Random, depth: int = 20_000, block: int = 1000) -> str:
    """A ``depth``-level spine of ``section``/``div`` nodes; one spine
    node per ``block`` levels (at a seeded offset) has a ``mark`` child,
    and the deepest node has a ``target`` child."""
    spine = [rng.choice(("section", "div")) for _ in range(depth)]
    marked = set()
    for start in range(0, depth, block):
        marked.add(start + rng.randrange(min(block, depth - start)))
    out = ["<doc>"]
    for level, label in enumerate(spine):
        out.append(f"<{label}>")
        if level in marked:
            out.append("<mark/>")
    out.append("<target/>")
    out.extend(f"</{label}>" for label in reversed(spine))
    out.append("</doc>")
    return "".join(out)


def dblp(rng: random.Random, n_pubs: int = 1000) -> str:
    """A flat ``dblp`` bibliography of ``n_pubs`` publications."""
    out = ["<dblp>"]
    for _ in range(n_pubs):
        kind = rng.choice(("article", "inproceedings", "book"))
        out.append(f"<{kind}>")
        for _ in range(rng.randint(1, 4)):
            out.append("<author/>")
        out.append(f"<title>{_word(rng)}</title>")
        out.append(f"<year>{rng.randint(1990, 2006)}</year>")
        if kind == "article":
            out.append("<journal/>")
        elif kind == "inproceedings":
            out.append("<booktitle/>")
        out.append(f"</{kind}>")
    out.append("</dblp>")
    return "".join(out)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
