"""The reference XML parser for the parser differential.

This is ``repro.trees.xmlio`` as it was before it read the text in
batches: one regex match per token, resumed through a generator, and one
builder call per tag, with the open-tag position of every open element
kept by depth.  Its token regex carries the two fixes the batched parser
made at the same time: ``:`` is a name character and a name must end at
whitespace, ``/`` or ``>``, and quoted attribute values are read whole,
so a ``>`` inside one does not end the tag.

``tests/test_trees_xmlio.py::TestDifferential`` requires ``parse_xml``
and ``iter_xml_events`` to agree with :func:`parse_xml` and
:func:`iter_xml_events` here on every input: the same Tree, the same
``ParseError`` message and position, the same warnings, the same events.
It searches each comment, PI and CDATA section for its terminator to the
end of the text, so recovering from many unterminated openers takes
quadratic time here; keep its inputs small.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.trees.tree import Tree
from repro.trees.xmlio import DEFAULT_MAX_DEPTH, ParseWarning

_NAME = r"[A-Za-z_:][\w.\-:]*"
_TOKEN = re.compile(
    r"<\?.*?\?>"                # processing instruction / prolog
    r"|<!--.*?-->"              # comment
    r"|<!\[CDATA\[.*?\]\]>"     # CDATA (skipped)
    r"|<!DOCTYPE[^>]*>"         # doctype
    rf"|<\s*(?P<close>/)?\s*(?P<name>{_NAME})(?=[\s/>])"
    r"""(?P<attrs>(?:[^<>"']|"[^<"]*"|'[^<']*')*?)(?P<selfclose>/)?\s*>"""
    r"|(?P<text>[^<]+)",
    re.DOTALL,
)
_ATTR = re.compile(rf"({_NAME})\s*=\s*(\"[^\"]*\"|'[^']*')")
_TEXT_GROUP = _TOKEN.groupindex["text"]


class _Builder:
    """One call per opening and per closing tag, into plain lists."""

    def __init__(self) -> None:
        self.label: list = []
        self.labels: list = []
        self.parent: list = []
        self.children: list = []
        self.top = -1

    def __len__(self) -> int:
        return len(self.parent)

    def open(self, tag, labels=None) -> None:
        v = len(self.parent)
        self.parent.append(self.top)
        self.label.append(tag)
        self.labels.append(frozenset((tag,) if labels is None else labels))
        self.children.append([])
        if self.top >= 0:
            self.children[self.top].append(v)
        self.top = v

    def close(self) -> None:
        self.top = self.parent[self.top]

    def finish(self) -> Tree:
        return Tree(self.label, self.labels, self.parent, self.children)


def _attributes(attrs: str) -> "dict[str, str]":
    return dict((key, value[1:-1]) for key, value in _ATTR.findall(attrs))


def _scan(text: str, recover: bool = False, warnings=None):
    pos = 0
    length = len(text)
    match_token = _TOKEN.match
    while pos < length:
        match = match_token(text, pos)
        if match is None:
            if not recover:
                raise ParseError("malformed XML", position=pos)
            if warnings is not None:
                warnings.append(
                    ParseWarning(
                        "garbage", "skipped unscannable input", position=pos
                    )
                )
            # resynchronize at the next tag opener
            nxt = text.find("<", pos + 1)
            pos = length if nxt < 0 else nxt
            continue
        pos = match.end()
        if match.lastindex is not None and match.lastindex < _TEXT_GROUP:
            yield match


def iter_xml_events(text: str, recover: bool = False, warnings=None):
    for match in _scan(text, recover=recover, warnings=warnings):
        close, name, attrs, selfclose = match.group(1, 2, 3, 4)
        if close:
            yield ("end", name)
            continue
        yield ("start", name, _attributes(attrs))
        if selfclose:
            yield ("end", name)


def parse_xml(
    text: str,
    attributes_as_labels: bool = False,
    *,
    recover: bool = False,
    max_depth: "int | None" = None,
    warnings: "list[ParseWarning] | None" = None,
) -> Tree:
    if max_depth is None:
        max_depth = DEFAULT_MAX_DEPTH
    warns = warnings if warnings is not None else []

    def warn(code: str, message: str, position: "int | None" = None) -> None:
        warns.append(ParseWarning(code, message, position))

    builder = _Builder()
    open_node = builder.open
    close_node = builder.close
    tag, parent = builder.label, builder.parent
    starts = [0]  # the open-tag position of every open element, by depth
    depth = 0  # number of open elements
    skip_depth = 0  # >0 while inside a dropped (too-deep / extra-root) element
    for match in _scan(text, recover=recover, warnings=warns):
        close, name, attrs, selfclose = match.group(1, 2, 3, 4)
        if not close:
            position = match.start()
            if skip_depth:
                skip_depth += 1
            elif depth >= max_depth:
                if not recover:
                    raise ParseError(
                        f"document nests deeper than max_depth={max_depth}",
                        position=position,
                    )
                warn(
                    "max-depth",
                    f"dropped <{name}> nested deeper than {max_depth}",
                    position,
                )
                skip_depth = 1
            elif not depth and len(builder):
                if not recover:
                    raise ParseError("multiple root elements", position=position)
                warn(
                    "multiple-roots",
                    f"dropped extra root element <{name}>",
                    position,
                )
                skip_depth = 1
            else:
                if attributes_as_labels:
                    labels = [name]
                    for key, value in _attributes(attrs).items():
                        labels.append(f"@{key}")
                        labels.append(f"@{key}={value}")
                    open_node(name, labels)
                else:
                    open_node(name)
                if depth == len(starts):
                    starts.extend(starts)
                starts[depth] = position
                depth += 1
            if not selfclose:
                continue
        # a closing tag, or the end of a self-closing one
        if skip_depth:
            skip_depth -= 1
            continue
        if not depth:
            position = match.start()
            if not recover:
                raise ParseError(
                    f"unmatched closing tag </{name}>", position=position
                )
            warn(
                "unmatched-close",
                f"dropped closing tag </{name}> with no open element",
                position,
            )
            continue
        top = builder.top
        if tag[top] != name:
            position = match.start()
            if not recover:
                raise ParseError(
                    f"mismatched closing tag </{name}> for <{tag[top]}>",
                    position=position,
                )
            warn(
                "mismatched-close",
                f"closing tag </{name}> does not match open <{tag[top]}>",
                position,
            )
            opener = parent[top]
            while opener >= 0 and tag[opener] != name:
                opener = parent[opener]
            if opener >= 0:
                # auto-close intervening elements up to the match
                while builder.top != opener:
                    warn("unclosed", f"auto-closed <{tag[builder.top]}>", position)
                    close_node()
                    depth -= 1
                close_node()
                depth -= 1
            # else: stray close for something never opened — drop it
            continue
        close_node()
        depth -= 1
    if depth:
        if not recover:
            raise ParseError(
                f"unclosed element <{tag[builder.top]}>", position=starts[depth - 1]
            )
        for depth in range(depth - 1, -1, -1):
            warn("unclosed", f"auto-closed <{tag[builder.top]}> at EOF", starts[depth])
            close_node()
    if not len(builder):
        if not recover:
            raise ParseError("empty document", position=0)
        warn("empty", "no element survived; synthesized placeholder root")
        open_node("#document")
        close_node()
    return builder.finish()
