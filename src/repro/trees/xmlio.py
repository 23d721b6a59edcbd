"""Parser and serializer for the XML subset the paper's data model uses.

The paper studies "the bare tree structures of the parse trees of XML
documents" (Section 2): element nesting and tag names only.  The parser
here accepts well-formed element-only XML — open tags (optionally with
attributes, which are preserved as extra labels of the form ``@name``),
close tags, self-closing tags, comments, processing instructions, and a
prolog.  Character data is skipped, matching the navigational model.

The parser reads the text in batches, with no recursion and no external
dependencies, so arbitrarily deep documents parse fine — bounded only by
the explicit ``max_depth`` ceiling, which protects a long-running
service from pathological nesting.  One token regex folds the text
before each tag into the tag's token, so one ``findall`` call turns a
batch of text into a list of tag tuples with no Python work per token,
and :meth:`~repro.trees.tree.TreeBuilder.feed` writes a batch into the
Tree's columns in one loop.  It builds no node objects.  Where the
builder stops at a tag it cannot apply, the parser applies its policy
and resumes.

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
document text before scanning (see docs/ROBUSTNESS.md).  A budget on the
active :class:`~repro.obs.context.Observation` (a service request's
deadline) is charged once per batch.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import ParseError
from repro.faults import faultpoint, register_site
from repro.obs.context import current as _obs_current
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

#: XML 1.0 allows ``:`` in names; a name must end at whitespace, ``/``
#: or ``>``
_NAME = r"[A-Za-z_:][\w.\-:]*"
#: what follows a tag's name: single characters and whole quoted values,
#: so a ``>`` inside a value does not end the tag (a value may not hold
#: ``<``)
_ATTRS = r"""(?:[^<>"']|"[^<"]*"|'[^<']*')*?"""
#: one token per tag, comment, PI, CDATA section or doctype, each with
#: the text before it; its groups are the tag tuple the builder reads
#: (close, name, attributes, selfclose, garbage).  The '<' after the text
#: is a literal, so text that no '<' follows fails at once, and the last
#: alternative matches it whole.
_TOKEN = re.compile(
    r"[^<]*<(?:"                # the text before the token (skipped)
    r"\?.*?\?>"                 # processing instruction / prolog
    r"|!--.*?-->"               # comment
    r"|!\[CDATA\[.*?\]\]>"      # CDATA (skipped)
    r"|!DOCTYPE[^>]*>"          # doctype
    rf"|\s*(/?)\s*({_NAME})(?=[\s/>])({_ATTRS})(/?)\s*>"
    r"|(?<=(<))"                # garbage: a '<' that starts no token
    r")|[^<]+\Z",               # the text after the last token
    re.DOTALL,
)
_ATTR = re.compile(rf"({_NAME})\s*=\s*(\"[^\"]*\"|'[^']*')")

#: a batch is at least this many characters (it ends where a token starts)
_BATCH = 4096
#: the openers of the tokens that may span a '<', each with its
#: terminator and the offset where the search for the terminator starts
_SPANS = {
    "<?": ("?>", 2),
    "<!--": ("-->", 4),
    "<![CDATA[": ("]]>", 9),
    "<!DOCTYPE": (">", 9),
}
_OPENER = re.compile("|".join(re.escape(opener) for opener in _SPANS))


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


def _batches(text: str):
    """Split ``text`` into ranges ``(lo, hi)`` that each start where a
    token of the whole text starts, so ``_TOKEN.findall(text, lo, hi)``
    yields exactly the whole text's tokens in that range.

    A ``<`` starts a token unless a comment, PI, CDATA section or
    doctype spans it.  The scan finds each of those from its opener,
    moving only forward.  An opener whose terminator never follows is
    garbage; its batch ends right after its ``<``, so the regex does not
    search the rest of the text for the terminator, and the last
    terminator of each kind, found once, tells which openers have one.
    """
    n = len(text)
    last = {closer: text.rfind(closer) for closer, _ in _SPANS.values()}
    search = _OPENER.search
    lo = scan = 0  # no token spans ``scan``
    opener = search(text)
    while lo < n:
        while True:
            start = n if opener is None else opener.start()
            hi = text.find("<", max(lo + _BATCH, scan))
            if hi < 0:
                hi = n
            if hi <= start:
                break
            closer, skip = _SPANS[opener.group()]
            if last[closer] < start + skip:
                scan = hi = start + 1
                opener = search(text, scan)
                break
            scan = text.find(closer, start + skip) + len(closer)
            opener = search(text, scan)
        yield lo, hi
        lo = hi


def _token_positions(text: str, lo: int, hi: int) -> "list[int]":
    """The position of each token's ``<`` in the batch ``(lo, hi)``."""
    find = text.find
    return [find("<", match.start()) for match in _TOKEN.finditer(text, lo, hi)]


def iter_xml_events(text: str, recover: bool = False, warnings=None):
    """Yield SAX-like events ``("start", name, attrs)``, ``("end", name)``.

    Used by the streaming evaluators of :mod:`repro.streaming`, which
    consume documents without ever materializing the tree.  With
    ``recover`` set, unscannable input is skipped (reported into
    ``warnings``) instead of raising.
    """
    for lo, hi in _batches(text):
        positions = None
        for i, (close, name, attrs, selfclose, garbage) in enumerate(
            _TOKEN.findall(text, lo, hi)
        ):
            if name:
                if close:
                    yield ("end", name)
                    continue
                yield ("start", name, _attributes(attrs))
                if selfclose:
                    yield ("end", name)
            elif garbage:
                if positions is None:
                    positions = _token_positions(text, lo, hi)
                _garbage(recover, warnings, positions[i])


def _attributes(attrs: str) -> "dict[str, str]":
    return dict((key, value[1:-1]) for key, value in _ATTR.findall(attrs))


def _attribute_labels(name: str, attrs: str) -> "list[str]":
    """A tag's labels with ``attributes_as_labels``: the tag, and
    ``@key`` and ``@key=value`` per attribute."""
    labels = [name]
    for key, value in _attributes(attrs).items():
        labels.append(f"@{key}")
        labels.append(f"@{key}={value}")
    return labels


def _garbage(recover: bool, warnings, position: int) -> None:
    if not recover:
        raise ParseError("malformed XML", position=position)
    if warnings is not None:
        warnings.append(
            ParseWarning("garbage", "skipped unscannable input", position=position)
        )


def _skip(tokens: "list[tuple]", i: int, level: int) -> "tuple[int, int, int]":
    """Pass over the tags of dropped elements from ``tokens[i]``, with
    ``level`` of them open.  Returns the index to resume at, the level
    there, and the number of opening tags passed.  It stops after the
    tag that closes the last dropped element, or at garbage."""
    opened = 0
    for j in range(i, len(tokens)):
        close, name, _, selfclose, garbage = tokens[j]
        if garbage:
            return j, level, opened
        if not name:
            continue
        if not close:
            level += 1
            opened += 1
        if close or selfclose:
            level -= 1
            if not level:
                return j + 1, 0, opened
    return len(tokens), level, opened


def _open_tag_positions(text: str, ordinals: "list[int]") -> "dict[int, int]":
    """The position of the ``k``-th opening tag of ``text``, counting
    from 0, for each ``k`` in ``ordinals``."""
    wanted = set(ordinals)
    found: dict[int, int] = {}
    k = 0
    for lo, hi in _batches(text):
        for match in _TOKEN.finditer(text, lo, hi):
            close, name = match.group(1, 2)
            if name and not close:
                if k in wanted:
                    found[k] = text.find("<", match.start())
                    if len(found) == len(wanted):
                        return found
                k += 1
    return found


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

    obs = _obs_current()
    charge = None if obs is None or obs.budget is None else obs.tick
    labels = _attribute_labels if attributes_as_labels else None
    builder = TreeBuilder()
    feed = builder.feed
    # the builder's parent column is the stack of open elements and its
    # label column their tags: the innermost open tag is tag[builder.top]
    tag, parent, depth = builder.tree.label, builder.tree.parent, builder.tree.depth
    dropping = 0  # open elements of a dropped (too-deep / extra-root) subtree
    # the opening tags dropped so far, at each node count: node v opened
    # at opening tag v + dropped[k], k the last entry with dropped_at <= v
    dropped, dropped_at = [0], [0]

    def drop(tokens: "list[tuple]", i: int, level: int) -> "tuple[int, int]":
        i, level, opened = _skip(tokens, i, level)
        if opened:
            dropped.append(dropped[-1] + opened)
            dropped_at.append(len(builder))
        return i, level

    for lo, hi in _batches(text):
        tokens = _TOKEN.findall(text, lo, hi)
        if charge is not None:
            charge(len(tokens))
        positions = None
        i, n = 0, len(tokens)
        while i < n:
            if dropping:
                i, dropping = drop(tokens, i, dropping)
                if not dropping or i == n:
                    continue
            else:
                i = feed(tokens, i, max_depth, labels)
                if i == n:
                    break
            # tokens[i] is garbage or a tag the builder cannot apply
            close, name, _, _, garbage = tokens[i]
            if positions is None:
                positions = _token_positions(text, lo, hi)
            position = positions[i]
            top = builder.top
            if garbage:
                _garbage(recover, warns, position)
                i += 1
            elif not close:
                # a second root, or a node as deep as the ceiling
                if (depth[top] + 1 if top >= 0 else 0) >= max_depth:
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
                else:
                    if not recover:
                        raise ParseError("multiple root elements", position=position)
                    warn(
                        "multiple-roots",
                        f"dropped extra root element <{name}>",
                        position,
                    )
                i, dropping = drop(tokens, i, 0)
            elif top < 0:
                if not recover:
                    raise ParseError(
                        f"unmatched closing tag </{name}>", position=position
                    )
                warn(
                    "unmatched-close",
                    f"dropped closing tag </{name}> with no open element",
                    position,
                )
                i += 1
            else:
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
                    closing = []
                    v = top
                    while v != opener:
                        warn("unclosed", f"auto-closed <{tag[v]}>", position)
                        closing.append(("/", tag[v], "", "", ""))
                        v = parent[v]
                    closing.append(("/", name, "", "", ""))
                    feed(closing)
                # else: stray close for something never opened — drop it
                i += 1
    if builder.top >= 0:
        chain = []
        v = builder.top
        while v >= 0:
            chain.append(v)
            v = parent[v]
        if not recover:
            chain = chain[:1]
        ordinals = [v + dropped[bisect_right(dropped_at, v) - 1] for v in chain]
        starts = _open_tag_positions(text, ordinals)
        if not recover:
            raise ParseError(
                f"unclosed element <{tag[chain[0]]}>", position=starts[ordinals[0]]
            )
        for v, k in zip(chain, ordinals):
            warn("unclosed", f"auto-closed <{tag[v]}> at EOF", starts[k])
        feed([("/", tag[v], "", "", "") for v in chain])
    if not len(builder):
        if not recover:
            raise ParseError("empty document", position=0)
        warn("empty", "no element survived; synthesized placeholder root")
        feed([("", "#document", "", "/", "")])
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
