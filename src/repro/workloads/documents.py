"""Synthetic document generators.

The paper motivates with Web/XML data management; since the original
XMark/DBLP corpora are not shipped here, these generators produce
documents with the same *shape characteristics* (schema-like label
structure, heavy fan-out at collection elements, shallow depth with
recursive pockets) — see the substitution note in DESIGN.md.
"""

from __future__ import annotations

import random

from repro.trees.node import Node
from repro.trees.tree import Tree

__all__ = ["xmark_like", "dblp_like", "deep_sections", "deep_tree", "wide_tree"]


def xmark_like(n_items: int = 50, seed: int = 0) -> Tree:
    """An auction-site document in the style of XMark.

    ``site`` has ``regions`` (items with descriptions, sometimes nested
    parlists), ``people`` (persons with optional profiles), and
    ``closed_auctions`` referencing buyers and items.
    """
    rng = random.Random(seed)
    site = Node("site")
    regions = site.add(Node("regions"))
    for region_name in ("africa", "asia", "europe", "namerica"):
        region = regions.add(Node(region_name))
        for _ in range(max(1, n_items // 4)):
            item = region.add(Node("item"))
            item.add(Node("name"))
            desc = item.add(Node("description"))
            text = desc.add(Node("text"))
            # recursive parlist pockets (the deep part of XMark)
            depth = rng.randint(0, 3)
            cursor = text
            for _ in range(depth):
                parlist = cursor.add(Node("parlist"))
                listitem = parlist.add(Node("listitem"))
                cursor = listitem
            cursor.add(Node("keyword"))
            if rng.random() < 0.5:
                item.add(Node("payment"))
            if rng.random() < 0.3:
                item.add(Node("shipping"))
    people = site.add(Node("people"))
    for _ in range(n_items):
        person = people.add(Node("person"))
        person.add(Node("name"))
        if rng.random() < 0.6:
            person.add(Node("emailaddress"))
        if rng.random() < 0.4:
            profile = person.add(Node("profile"))
            profile.add(Node("interest"))
            if rng.random() < 0.5:
                profile.add(Node("education"))
    auctions = site.add(Node("closed_auctions"))
    for _ in range(n_items // 2):
        auction = auctions.add(Node("closed_auction"))
        auction.add(Node("buyer"))
        auction.add(Node("itemref"))
        auction.add(Node("price"))
        if rng.random() < 0.5:
            annotation = auction.add(Node("annotation"))
            annotation.add(Node("description"))
    return Tree.build(site)


def dblp_like(n_pubs: int = 100, seed: int = 0) -> Tree:
    """A bibliography document: flat, wide, and regular."""
    rng = random.Random(seed)
    dblp = Node("dblp")
    for _ in range(n_pubs):
        kind = rng.choice(("article", "inproceedings", "book"))
        pub = dblp.add(Node(kind))
        for _ in range(rng.randint(1, 4)):
            pub.add(Node("author"))
        pub.add(Node("title"))
        pub.add(Node("year"))
        if kind == "article":
            pub.add(Node("journal"))
        elif kind == "inproceedings":
            pub.add(Node("booktitle"))
    return Tree.build(dblp)


def deep_tree(depth: int, mark_every: int = 1000, seed: int = 0) -> Tree:
    """A deep tree: a single spine ``depth`` levels tall.

    The spine alternates ``section``/``div`` labels; every
    ``mark_every`` levels the spine node gets a ``mark`` leaf child and
    the deepest node a single ``target`` leaf — so label-selective
    queries (``linear``'s seeded semi-join steps) touch a small, fixed
    fraction of an arbitrarily deep document.  Everything is built
    iteratively; no recursion limit applies at any ``depth``.
    """
    rng = random.Random(seed)
    root = Node("doc")
    cursor = root
    for level in range(depth):
        spine = Node("section" if level % 2 == 0 else "div")
        cursor.add(spine)
        if mark_every and level % mark_every == 0 and rng.random() < 0.9:
            spine.add(Node("mark"))
        cursor = spine
    cursor.add(Node("target"))
    return Tree.build(root)


def wide_tree(n_siblings: int, hit_every: int = 1000, seed: int = 0) -> Tree:
    """A wide tree: one collection with ``n_siblings`` direct children.

    Children cycle through ``item``/``entry``/``record`` labels; every
    ``hit_every``-th child is labeled ``hit`` instead, keeping a sparse
    target partition for selective queries over an arbitrarily wide
    sibling list.
    """
    rng = random.Random(seed)
    cycle = ("item", "entry", "record")
    root = Node("collection")
    for i in range(n_siblings):
        if hit_every and i % hit_every == hit_every - 1:
            root.add(Node("hit"))
        else:
            root.add(Node(cycle[rng.randrange(3)]))
    return Tree.build(root)


def deep_sections(depth: int, width: int = 2, seed: int = 0) -> Tree:
    """A document-structure tree of nested sections — the deep workload
    for the streaming-memory experiment E15."""
    rng = random.Random(seed)
    book = Node("book")
    cursor = book
    for level in range(depth):
        section = Node("section")
        cursor.add(section)
        section.add(Node("title"))
        for _ in range(width - 1):
            para = section.add(Node("para"))
            if rng.random() < 0.2:
                para.add(Node("emph"))
        cursor = section
    cursor.add(Node("para"))
    return Tree.build(book)
