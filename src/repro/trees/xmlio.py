"""Parser and serializer for the XML subset the paper's data model uses.

The paper studies "the bare tree structures of the parse trees of XML
documents" (Section 2): element nesting and tag names only.  The parser
here accepts well-formed element-only XML — open tags (optionally with
attributes, which are preserved as extra labels of the form ``@name``),
close tags, self-closing tags, comments, processing instructions, and a
prolog.  Character data is skipped, matching the navigational model.

The parser is a hand-rolled single-pass scanner (no recursion, no
external dependencies) so that arbitrarily deep documents parse fine —
bounded only by the explicit ``max_depth`` ceiling, which protects a
long-running service from pathological nesting.  It builds no node
objects: each tag goes straight into the Tree's arrays through
:class:`~repro.trees.tree.TreeBuilder`.

Two failure modes (docs/ROBUSTNESS.md):

- **strict** (default): any malformation raises
  :class:`~repro.errors.ParseError` carrying the offending position,
- **recover=True**: the parser never raises on malformed input — it
  skips garbage, drops unmatched close tags, auto-closes unclosed
  elements, ignores extra roots — and reports everything it repaired as
  :class:`ParseWarning` records (the error taxonomy) through the
  ``warnings`` list the caller may pass in.  What it keeps round-trips:
  the recovered tree serializes back to well-formed XML.

``parse_xml`` is also a fault-injection site (``xml.parse``): an armed
:class:`repro.faults.FaultPlan` can fail it, delay it, or truncate the
document text before scanning (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass

from repro.errors import ParseError
from repro.faults import faultpoint, register_site
from repro.trees.tree import Tree, TreeBuilder

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "ParseWarning",
    "parse_xml",
    "to_xml",
    "iter_xml_events",
]

#: default document depth ceiling: far beyond any real document, small
#: enough to bound memory against adversarial nesting
DEFAULT_MAX_DEPTH = 50_000

register_site("xml.parse", "XML text -> Tree parsing")

_NAME = r"[A-Za-z_][\w.\-]*"
_TOKEN = re.compile(
    r"<\?.*?\?>"                # processing instruction / prolog
    r"|<!--.*?-->"              # comment
    r"|<!\[CDATA\[.*?\]\]>"     # CDATA (skipped)
    r"|<!DOCTYPE[^>]*>"         # doctype
    rf"|<\s*(?P<close>/)?\s*(?P<name>{_NAME})(?P<attrs>[^<>]*?)(?P<selfclose>/)?\s*>"
    r"|(?P<text>[^<]+)",
    re.DOTALL,
)
_ATTR = re.compile(rf"({_NAME})\s*=\s*(\"[^\"]*\"|'[^']*')")
#: the tag alternative's groups all precede ``text``, and comments, PIs,
#: CDATA and doctypes match no group, so a match is a tag exactly when
#: its last matched group comes before this one
_TEXT_GROUP = _TOKEN.groupindex["text"]


@dataclass(frozen=True)
class ParseWarning:
    """One repair the recovering parser performed.

    ``code`` is the taxonomy entry: ``garbage`` (unscannable bytes
    skipped), ``unmatched-close`` (close tag with no open element),
    ``mismatched-close`` (close tag not matching the innermost open
    element), ``unclosed`` (element auto-closed at a repair point or
    EOF), ``multiple-roots`` (extra root element dropped),
    ``max-depth`` (element deeper than the ceiling dropped), ``empty``
    (no element survived; placeholder root synthesized).
    """

    code: str
    message: str
    position: "int | None" = None


def _truncate_text(text: str, rng) -> str:
    """Corruption mutator for the ``xml.parse`` site: keep a seeded
    prefix of the document, which typically leaves elements unclosed."""
    if len(text) < 2:
        return ""
    return text[: rng.randrange(1, len(text))]


def iter_xml_events(text: str, recover: bool = False, warnings=None):
    """Yield SAX-like events ``("start", name, attrs)``, ``("end", name)``.

    Used by the streaming evaluators of :mod:`repro.streaming`, which
    consume documents without ever materializing the tree.  With
    ``recover`` set, unscannable input is skipped (reported into
    ``warnings``) instead of raising.
    """
    for match in _scan(text, recover=recover, warnings=warnings):
        close, name, attrs, selfclose = match.group(1, 2, 3, 4)
        if close:
            yield ("end", name)
            continue
        yield ("start", name, _attributes(attrs))
        if selfclose:
            yield ("end", name)


def _attributes(attrs: str) -> "dict[str, str]":
    return dict((key, value[1:-1]) for key, value in _ATTR.findall(attrs))


def _scan(text: str, recover: bool = False, warnings=None):
    """The scanner behind :func:`iter_xml_events` and :func:`parse_xml`:
    yields the match of every tag (groups ``close``, ``name``, ``attrs``,
    ``selfclose``), skipping text, comments, PIs, CDATA and doctypes."""
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


def parse_xml(
    text: str,
    attributes_as_labels: bool = False,
    *,
    recover: bool = False,
    max_depth: "int | None" = None,
    warnings: "list[ParseWarning] | None" = None,
) -> Tree:
    """Parse an element-only XML document into a :class:`Tree`.

    The scan fills the Tree's arrays as it goes (Section 2: opening tags
    come in pre-order, closing tags in post-order), through the one
    :class:`~repro.trees.tree.TreeBuilder` every Tree is derived with.

    Parameters
    ----------
    text:
        The document.  Must contain exactly one root element (strict
        mode).
    attributes_as_labels:
        When true, an attribute ``id="x7"`` adds the extra labels
        ``@id`` and ``@id=x7`` to the node, so that label predicates can
        select on attribute presence or value.
    recover:
        Never raise on malformed input — skip/repair and record what
        happened into ``warnings``.  The returned tree contains exactly
        the elements that survived.
    max_depth:
        Document depth ceiling (default :data:`DEFAULT_MAX_DEPTH`).
        Strict mode raises when exceeded; recovery drops the too-deep
        subtrees with a ``max-depth`` warning.
    warnings:
        Optional list the recovering parser appends
        :class:`ParseWarning` records to.
    """
    text = faultpoint("xml.parse", text, mutator=_truncate_text)
    if max_depth is None:
        max_depth = DEFAULT_MAX_DEPTH
    warns = warnings if warnings is not None else []

    def warn(code: str, message: str, position: "int | None" = None) -> None:
        warns.append(ParseWarning(code, message, position))

    builder = TreeBuilder()
    open_node = builder.open
    close_node = builder.close
    # the builder's parent column is the stack of open elements and its
    # label column their tags: the innermost open tag is tag[builder.top]
    tag, parent = builder.tree.label, builder.tree.parent
    # the open-tag position of every open element by depth, so that
    # unclosed-at-EOF errors point back at the open tag; positions are
    # unboxed in an array grown by doubling, so deep documents hold no
    # object per open element and pay no reallocation per level
    starts = array("q", [0])
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
    del starts  # free before finish(), the parse's peak
    if not len(builder):
        if not recover:
            raise ParseError("empty document", position=0)
        warn("empty", "no element survived; synthesized placeholder root")
        open_node("#document")
        close_node()
    return builder.finish()


def to_xml(tree: Tree, indent: int | None = None) -> str:
    """Serialize a :class:`Tree` back to element-only XML.

    Only primary labels are emitted (extra labels have no XML syntax).
    With ``indent`` set, pretty-prints with that many spaces per level.
    """
    out: list[str] = []
    # Iterative traversal emitting open tags on entry, close tags on exit.
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        v, closing = stack.pop()
        pad = "" if indent is None else " " * (indent * tree.depth[v])
        newline = "" if indent is None else "\n"
        if closing:
            out.append(f"{pad}</{tree.label[v]}>{newline}")
            continue
        if tree.is_leaf(v):
            out.append(f"{pad}<{tree.label[v]}/>{newline}")
            continue
        out.append(f"{pad}<{tree.label[v]}>{newline}")
        stack.append((v, True))
        for child in reversed(tree.children[v]):
            stack.append((child, False))
    return "".join(out)
