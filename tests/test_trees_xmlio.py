"""Tests for the XML-subset parser/serializer."""

import gc
import time
import tracemalloc
from array import array
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.index import DocumentIndex
from repro.errors import ParseError
from repro.storage.diskstore import dump_tree, load_tree
from repro.trees import Tree, edit, parse_xml, to_xml, xmlio
from repro.trees.generate import tree_from_parents
from repro.trees.xmlio import iter_xml_events
from repro.workloads.documents import dblp_like, deep_tree, wide_tree, xmark_like

import xml_reference
from conftest import trees

#: every array a Tree carries; ``Tree.__eq__`` compares only three
TREE_FIELDS = (
    "n", "label", "labels", "parent", "children", "post", "bflr", "depth",
    "sibling_index", "next_sibling", "prev_sibling", "subtree_end",
)


def _assert_arrays_match_definitions(t: Tree) -> None:
    """Recompute every derived array of ``t`` from ``parent``/``children``
    by its textbook definition and compare."""
    n = t.n
    assert n >= 1
    for field in TREE_FIELDS[1:]:
        assert len(getattr(t, field)) == n, field
    assert t.parent[0] == -1
    for v in range(1, n):
        assert v in t.children[t.parent[v]]
    assert sum(len(kids) for kids in t.children) == n - 1
    # ids are pre-order positions; post is the order nodes are left in
    pre, left = [], []
    stack = [(0, False)]
    while stack:
        v, leaving = stack.pop()
        if leaving:
            left.append(v)
            continue
        pre.append(v)
        stack.append((v, True))
        stack.extend((c, False) for c in reversed(t.children[v]))
    assert pre == list(range(n))
    assert [t.post[v] for v in left] == list(range(n))
    # bflr: breadth-first, children left to right
    visited, queue = [], deque([0])
    while queue:
        v = queue.popleft()
        visited.append(v)
        queue.extend(t.children[v])
    assert [t.bflr[v] for v in visited] == list(range(n))
    depth, size = [0] * n, [1] * n
    for v in range(1, n):
        depth[v] = depth[t.parent[v]] + 1
    for v in range(n - 1, 0, -1):
        size[t.parent[v]] += size[v]
    assert t.depth.tolist() == depth
    assert t.subtree_end.tolist() == [v + size[v] for v in range(n)]
    sibling_index, next_sibling, prev_sibling = [0] * n, [-1] * n, [-1] * n
    for kids in t.children:
        for i, c in enumerate(kids):
            sibling_index[c] = i
            next_sibling[c] = kids[i + 1] if i + 1 < len(kids) else -1
            prev_sibling[c] = kids[i - 1] if i else -1
    assert t.sibling_index.tolist() == sibling_index
    assert t.next_sibling.tolist() == next_sibling
    assert t.prev_sibling.tolist() == prev_sibling
    for v in range(n):
        assert t.label[v] in t.labels[v]


def _assert_label_sets_shared(t: Tree) -> None:
    """Equal label sets and equal tags are one object per tree."""
    first_set, first_tag = {}, {}
    for v in range(t.n):
        assert first_set.setdefault(t.labels[v], t.labels[v]) is t.labels[v]
        assert first_tag.setdefault(t.label[v], t.label[v]) is t.label[v]


#: the int32 columns of a Tree, stored and derived on first read
INT_FIELDS = (
    "parent", "post", "bflr", "depth", "sibling_index", "next_sibling",
    "prev_sibling", "subtree_end",
)


def _assert_values_stored_once(t: Tree) -> None:
    """Each value is stored once, as four bytes of an int32 column: the
    integer columns, both halves of the CSR child lists and the posting
    lists are ``array('i')``s, and nothing the Tree refers to is a list,
    tuple or int per node (its two lists hold the shared tags and label
    sets).  The label partition is the builder's, by definition and as
    the index's."""
    columns = [getattr(t, field) for field in INT_FIELDS]
    columns += [t.children.ids, t.children.offsets]
    columns += t._label_index.values()
    for column in columns:
        assert type(column) is array and column.typecode == "i"
        assert column.itemsize == 4
    reached, todo = {}, [t]
    while todo:
        obj = todo.pop()
        if id(obj) not in reached and not isinstance(obj, type):
            reached[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    kinds = Counter(type(obj) for obj in reached.values())
    assert kinds[int] <= 1, kinds  # n
    assert kinds[list] == 2, kinds  # label and labels
    assert kinds[tuple] == 0, kinds
    partition = {}
    for v in range(t.n):
        for label in t.labels[v]:
            partition.setdefault(label, []).append(v)
    assert {
        label: posting.tolist() for label, posting in t._label_index.items()
    } == partition
    assert DocumentIndex(t).label_partition is t._label_index


class TestParsing:
    def test_simple_document(self):
        t = parse_xml("<r><a/><b><c/></b></r>")
        assert t.label == ["r", "a", "b", "c"]
        assert t.parent.tolist() == [-1, 0, 0, 2]

    def test_whitespace_and_text_skipped(self):
        t = parse_xml("<r>\n  hello <a/> world\n</r>")
        assert t.label == ["r", "a"]

    def test_comments_and_pi_skipped(self):
        t = parse_xml("<?xml version='1.0'?><!-- hi --><r><!--x--><a/></r>")
        assert t.label == ["r", "a"]

    def test_doctype_skipped(self):
        t = parse_xml("<!DOCTYPE book><r/>")
        assert t.label == ["r"]

    def test_attributes_ignored_by_default(self):
        t = parse_xml('<r id="1"><a x="y z"/></r>')
        assert t.labels[0] == frozenset(["r"])

    def test_attributes_as_labels(self):
        t = parse_xml('<r id="7"/>', attributes_as_labels=True)
        assert t.has_label(0, "@id")
        assert t.has_label(0, "@id=7")

    def test_cdata_skipped(self):
        t = parse_xml("<r><![CDATA[<fake/>]]><a/></r>")
        assert t.label == ["r", "a"]


class TestErrors:
    def test_mismatched_close(self):
        with pytest.raises(ParseError):
            parse_xml("<a><b></a></b>")

    def test_unclosed(self):
        with pytest.raises(ParseError):
            parse_xml("<a><b/>")

    def test_extra_close(self):
        with pytest.raises(ParseError):
            parse_xml("<a/></b>")

    def test_multiple_roots(self):
        with pytest.raises(ParseError):
            parse_xml("<a/><b/>")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_xml("   ")


class TestRoundTrip:
    @given(trees(max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_tree_to_xml_to_tree(self, t):
        parsed = parse_xml(to_xml(t))
        assert parsed == t
        for field in TREE_FIELDS:
            assert getattr(parsed, field) == getattr(t, field), field

    @given(trees(max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_pretty_print_round_trips(self, t):
        assert parse_xml(to_xml(t, indent=2)) == t

    def test_serialization_shape(self):
        t = Tree.from_tuple(("r", ["a", ("b", ["c"])]))
        assert to_xml(t) == "<r><a/><b><c/></b></r>"


class TestEvents:
    def test_event_stream(self):
        events = list(iter_xml_events("<a><b x='1'/></a>"))
        assert events == [
            ("start", "a", {}),
            ("start", "b", {"x": "1"}),
            ("end", "b"),
            ("end", "a"),
        ]

    def test_deep_document_parses_iteratively(self):
        depth = 30_000
        text = "<a>" * depth + "</a>" * depth
        t = parse_xml(text)
        assert t.n == depth
        assert t.height() == depth - 1


class TestStrictErrorsCarryPositions:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("<a><b></a>", "mismatched closing tag"),
            ("</a>", "unmatched closing tag"),
            ("<a></a><b></b>", "multiple root elements"),
            ("<a><b></b>", "unclosed element"),
            ("", "empty document"),
            ("<a>&&&<<", "malformed"),
        ],
    )
    def test_position_always_present(self, text, fragment):
        with pytest.raises(ParseError, match=fragment) as exc_info:
            parse_xml(text)
        assert exc_info.value.position is not None
        assert "position" in str(exc_info.value)

    def test_max_depth_ceiling_strict(self):
        text = "<a>" * 40 + "</a>" * 40
        assert parse_xml(text, max_depth=40).n == 40
        with pytest.raises(ParseError, match="max_depth") as exc_info:
            parse_xml(text, max_depth=39)
        assert exc_info.value.position is not None


class TestRecoveringParser:
    def _recover(self, text, **kw):
        warnings = []
        tree = parse_xml(text, recover=True, warnings=warnings, **kw)
        return tree, warnings

    def test_mismatched_close_auto_closes_to_ancestor(self):
        tree, warnings = self._recover("<a><b><c></b></a>")
        # </b> closes the open <c> (auto) and then <b> itself
        assert parse_xml("<a><b><c/></b></a>") == tree
        codes = {w.code for w in warnings}
        assert codes == {"mismatched-close", "unclosed"}

    def test_unmatched_close_is_dropped(self):
        tree, warnings = self._recover("</b><a/>")
        assert tree == parse_xml("<a/>")
        assert [w.code for w in warnings] == ["unmatched-close"]

    def test_stray_close_inside_open_element_is_dropped(self):
        # </b> matches nothing on the stack: reported, dropped
        tree, warnings = self._recover("<a></b></a>")
        assert tree == parse_xml("<a/>")
        assert [w.code for w in warnings] == ["mismatched-close"]

    def test_unclosed_elements_auto_close_at_eof(self):
        tree, warnings = self._recover("<a><b><c>")
        assert tree == parse_xml("<a><b><c/></b></a>")
        assert [w.code for w in warnings] == ["unclosed"] * 3

    def test_extra_roots_dropped_with_warning(self):
        tree, warnings = self._recover("<a><x/></a><b><y/></b>")
        assert tree == parse_xml("<a><x/></a>")
        assert [w.code for w in warnings] == ["multiple-roots"]

    def test_garbage_skipped_with_warning(self):
        tree, warnings = self._recover("<a>&&& ... <<<<<<b/></a>")
        assert tree == parse_xml("<a><b/></a>")
        assert "garbage" in {w.code for w in warnings}

    def test_empty_document_synthesizes_placeholder_root(self):
        tree, warnings = self._recover("just text, no elements at all")
        assert tree.n == 1
        assert tree.label[tree.root] == "#document"
        assert "empty" in {w.code for w in warnings}

    def test_too_deep_subtrees_dropped_with_warning(self):
        text = "<a>" + "<b>" * 5 + "</b>" * 5 + "<c/></a>"
        tree, warnings = self._recover(text, max_depth=3)
        assert tree == parse_xml("<a><b><b/></b><c/></a>")
        assert "max-depth" in {w.code for w in warnings}

    def test_warnings_carry_positions(self):
        _, warnings = self._recover("<a><b></a>")
        assert warnings and all(w.position is not None for w in warnings)

    def test_recovered_output_reparses_strictly(self):
        for text in (
            "<a><b><c></b></a>",
            "<a><b>",
            "</x><a/><b/>",
            "<a>&&&<b></a>",
        ):
            tree, _ = self._recover(text)
            if tree.label[tree.root] == "#document":
                continue  # placeholder root has no XML spelling
            assert parse_xml(to_xml(tree)) == tree


class TestMalformedFuzz:
    """Property fuzz: strict mode always raises ParseError with a
    position on malformed input; recover mode never raises and what it
    keeps round-trips through strict re-parsing."""

    fragments = st.lists(
        st.sampled_from(
            ["<a>", "</a>", "<b>", "</b>", "<c/>", "<", ">", "&", "&amp;",
             "</", "x", " ", "<a", "<!--", "-->", "<?pi?>", "=\"v\"", "'"]
        ),
        min_size=0,
        max_size=12,
    ).map("".join)

    @given(fragments)
    @settings(max_examples=200, deadline=None)
    def test_strict_parse_or_positioned_error(self, text):
        try:
            parse_xml(text)
        except ParseError as exc:
            assert exc.position is not None
            assert 0 <= exc.position <= len(text)

    @given(fragments)
    @settings(max_examples=200, deadline=None)
    def test_recover_never_raises_and_round_trips(self, text):
        warnings = []
        tree = parse_xml(text, recover=True, warnings=warnings)
        assert tree.n >= 1
        if tree.label[tree.root] != "#document":
            assert parse_xml(to_xml(tree)) == tree

    @given(trees(max_size=15), st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_documents(self, t, data):
        full = to_xml(t)
        cut = data.draw(st.integers(min_value=1, max_value=len(full) - 1))
        prefix = full[:cut]
        with pytest.raises(ParseError) as exc_info:
            parse_xml(prefix)
        assert exc_info.value.position is not None
        warnings = []
        recovered = parse_xml(prefix, recover=True, warnings=warnings)
        assert recovered.n >= 1
        _assert_arrays_match_definitions(recovered)
        if recovered.label[recovered.root] != "#document":
            assert parse_xml(to_xml(recovered)) == recovered


class TestDerivedArrays:
    """The one-pass parser fills every Tree array at the tags; each must
    equal its definition, in strict and in recover mode.  (Truncated
    documents and the field-by-field round trip are checked in
    ``TestMalformedFuzz`` and ``TestRoundTrip``.)"""

    @given(trees(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_well_formed_documents(self, t):
        text = to_xml(t)
        for recover in (False, True):
            parsed = parse_xml(text, recover=recover)
            _assert_arrays_match_definitions(parsed)
            _assert_label_sets_shared(parsed)
            _assert_values_stored_once(parsed)

    @given(TestMalformedFuzz.fragments)
    @settings(max_examples=200, deadline=None)
    def test_malformed_documents(self, text):
        try:
            _assert_arrays_match_definitions(parse_xml(text))
        except ParseError:
            pass
        parsed = parse_xml(text, recover=True, warnings=[])
        _assert_arrays_match_definitions(parsed)
        _assert_label_sets_shared(parsed)
        _assert_values_stored_once(parsed)

    def test_attributes_and_max_depth(self):
        text = '<a id="1"><b id="1"/><b id="2"><c/></b><b id="1"/></a>'
        t = parse_xml(text, attributes_as_labels=True)
        _assert_arrays_match_definitions(t)
        _assert_label_sets_shared(t)
        _assert_values_stored_once(t)
        assert t.labels[1] is t.labels[4]
        assert t.labels[1] is not t.labels[2]
        dropped = parse_xml(text, recover=True, max_depth=2, warnings=[])
        _assert_arrays_match_definitions(dropped)
        assert dropped.label == ["a", "b", "b", "b"]


class TestParseMemory:
    """Parsing keeps at most 80 B/node and peaks at no more than 1.25x
    what it keeps, and the parsed and indexed document takes at most
    90 B/node.  Measured with CPython 3.11: 45-48 B/node kept, and the
    index adds nothing, because the builder fills its label partition;
    the peak is 1.00-1.04x what is kept, because the builder holds no
    per-node state beyond the Tree's own columns."""

    @pytest.mark.parametrize(
        "document",
        [
            pytest.param(lambda: xmark_like(1400), id="xmark"),
            pytest.param(lambda: wide_tree(20_000), id="wide"),
            pytest.param(lambda: deep_tree(20_000), id="deep"),
            pytest.param(lambda: dblp_like(3300), id="dblp"),
        ],
    )
    def test_bytes_per_node(self, document):
        text = to_xml(document())
        gc.collect()
        tracemalloc.start()
        try:
            tree = parse_xml(text)
            kept, peak = tracemalloc.get_traced_memory()
            db = Database(tree)
            db.index
            indexed, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.n >= 20_000
        assert kept / tree.n <= 80, f"{kept / tree.n:.0f} B/node kept"
        assert peak <= 1.25 * kept, f"peak {peak / kept:.2f}x kept"
        assert indexed / tree.n <= 90, f"{indexed / tree.n:.0f} B/node indexed"

    def test_label_sets_shared_across_store_round_trip(self, tmp_path):
        tree = parse_xml(to_xml(xmark_like(50)))
        _assert_label_sets_shared(tree)
        names = [v for v in range(tree.n) if tree.label[v] == "name"]
        assert len(names) > 1
        assert all(tree.labels[v] is tree.labels[names[0]] for v in names)
        path = str(tmp_path / "doc.rtre")
        dump_tree(tree, path)
        loaded = load_tree(path)
        for field in TREE_FIELDS:
            assert getattr(loaded, field) == getattr(tree, field), field
        _assert_label_sets_shared(loaded)
        _assert_values_stored_once(loaded)
        assert all(loaded.labels[v] is loaded.labels[names[0]] for v in names)


def _store_round_trip(t: Tree, path: str) -> Tree:
    dump_tree(t, path)
    return load_tree(path)


class TestValuesStoredOnce:
    """Every way of making a Tree goes through the one builder, so each
    stores every integer in an int32 column and keeps no int, list or
    tuple per node.  Both documents have more than 256 nodes, and the
    deep one more than 256 levels, so no value is one of CPython's
    shared small ints."""

    PATHS = {
        "parse": lambda t, tmp: parse_xml(to_xml(t)),
        "recover": lambda t, tmp: parse_xml(
            to_xml(t)[:-20], recover=True, warnings=[]
        ),
        "build": lambda t, tmp: t,  # the generators call Tree.build
        "arrays": lambda t, tmp: Tree(
            t.label, t.labels, t.parent, [list(kids) for kids in t.children]
        ),
        "parents": lambda t, tmp: tree_from_parents(t.parent, t.label),
        "insert_leaf": lambda t, tmp: edit.insert_leaf(t, 1, 0, "new"),
        "insert_subtree": lambda t, tmp: edit.insert_subtree(
            t, 0, 1, Tree.from_tuple(("x", ["y", "z"]))
        ),
        "delete_subtree": lambda t, tmp: edit.delete_subtree(t, t.n - 1),
        "relabel": lambda t, tmp: edit.relabel(t, 1, "renamed"),
        "splice": lambda t, tmp: edit.splice(t, 1),
        "rtre": lambda t, tmp: _store_round_trip(t, str(tmp / "doc.rtre")),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize(
        "document",
        [
            pytest.param(lambda: xmark_like(60), id="xmark"),
            pytest.param(lambda: deep_tree(600), id="deep"),
        ],
    )
    def test_construction_path(self, document, path, tmp_path):
        t = self.PATHS[path](document(), tmp_path)
        assert t.n > 256
        _assert_arrays_match_definitions(t)
        _assert_values_stored_once(t)


class TestNamesAndQuotedValues:
    """XML 1.0 names may hold ':' and must end at whitespace, '/' or
    '>'; a quoted attribute value may hold '>' (but not '<')."""

    def test_prefixed_names_are_whole_labels(self):
        t = parse_xml("<r><svg:rect/><svg:circle/></r>")
        assert t.label == ["r", "svg:rect", "svg:circle"]

    def test_prefixed_close_must_match(self):
        with pytest.raises(ParseError, match="mismatched closing tag") as exc_info:
            parse_xml("<x:a></x:b>")
        assert exc_info.value.position == 5

    def test_name_ending_in_another_character_is_malformed(self):
        with pytest.raises(ParseError, match="malformed XML") as exc_info:
            parse_xml("<r><a$b/></r>")
        assert exc_info.value.position == 3
        warnings = []
        tree = parse_xml("<r><a$b/></r>", recover=True, warnings=warnings)
        assert tree == parse_xml("<r/>")
        assert [(w.code, w.position) for w in warnings] == [("garbage", 3)]

    def test_prefixed_attribute_names(self):
        t = parse_xml('<svg xmlns:svg="u"/>', attributes_as_labels=True)
        assert t.labels[0] == frozenset(["svg", "@xmlns:svg", "@xmlns:svg=u"])

    @pytest.mark.parametrize("recover", [False, True])
    def test_greater_than_inside_a_quoted_value(self, recover):
        text = '<r><a title="x>y"/><b/></r>'
        warnings = []
        t = parse_xml(text, recover=recover, warnings=warnings)
        assert t.label == ["r", "a", "b"]
        assert t.parent.tolist() == [-1, 0, 0]
        assert warnings == []
        t = parse_xml(text, attributes_as_labels=True)
        assert "@title=x>y" in t.labels[1]

    def test_events(self):
        events = list(iter_xml_events("<r><svg:rect a='x>y'/><a$b/></r>", recover=True))
        assert events == [
            ("start", "r", {}),
            ("start", "svg:rect", {"a": "x>y"}),
            ("end", "svg:rect"),
            ("end", "r"),
        ]

    def test_prefixed_names_round_trip(self):
        t = Tree.from_tuple(("svg:svg", ["svg:rect", ("svg:g", ["svg:circle"])]))
        assert to_xml(t) == "<svg:svg><svg:rect/><svg:g><svg:circle/></svg:g></svg:svg>"
        assert parse_xml(to_xml(t)) == t


class TestLinearRecovery:
    """An opener whose terminator never follows is garbage at once: the
    parser does not search the rest of the text for each one."""

    @pytest.mark.parametrize("opener", ["<![CDATA[", "<!--", "<?"])
    def test_unterminated_openers(self, opener):
        k = 64_000
        text = "<a>" + opener * k + "</a>"
        warnings = []
        start = time.perf_counter()
        tree = parse_xml(text, recover=True, warnings=warnings)
        elapsed = time.perf_counter() - start
        assert tree == parse_xml("<a/>")
        assert len(warnings) == k
        assert {w.code for w in warnings} == {"garbage"}
        assert [w.position for w in warnings[:2]] == [3, 3 + len(opener)]
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    def test_long_trailing_text(self):
        text = "<a/>" + "x" * 800_000
        start = time.perf_counter()
        assert parse_xml(text) == parse_xml("<a/>")
        assert time.perf_counter() - start < 2.0


#: pieces of malformed documents, and of comments, PIs, CDATA sections
#: and doctypes that hold '<', '>' and '><' or never end
FRAGMENTS = [
    "<a>", "</a>", "<b>", "</b>", "<c/>", "<", ">", "&", "&amp;", "</",
    "x", " ", "<a", "<!--", "-->", "<?pi?>", '="v"', "'", "<?", "?>",
    "<![CDATA[", "]]>", "<!DOCTYPE d", "<!DOCTYPE d>", "><", "\n",
    "<!-- <a> -->", "<!--><-->", "<?p <b/> ?>", "<![CDATA[<c>]]>",
    "<!DOCTYPE d [<!ELEMENT a>]>", "<svg:rect/>", "<x:a>", "</x:a>",
    "<a$b/>", '<a t="x>y">', "<b t='<'/>", '<c id="1"/>', "<a/b>", "</a >",
]
#: text between two tags of a well-formed document
FILLERS = [
    "", "", "", "text", "<!-- <x/> -->", "<!--><-->", "<?pi a><b?>",
    "<![CDATA[<y>]]>", "<!DOCTYPE d [<!ENTITY e 'v'>]>", " \n ",
]


@st.composite
def _well_formed_texts(draw):
    t = draw(trees(max_size=30))
    pieces = to_xml(t, indent=draw(st.sampled_from([None, 1]))).split("><")
    glue = [">" + draw(st.sampled_from(FILLERS)) + "<" for _ in pieces[1:]]
    return pieces[0] + "".join(g + p for g, p in zip(glue, pieces[1:]))


_MALFORMED_TEXTS = st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)


def _outcome(parse, text, **options):
    """What a parse gives: every column, the label partition and the
    warnings, or the error's message and position."""
    warnings = []
    try:
        t = parse(text, warnings=warnings, **options)
    except ParseError as exc:
        return ("error", str(exc), exc.position, warnings)
    columns = {}
    for field in TREE_FIELDS:
        value = getattr(t, field)
        if field == "children":
            value = [kids.tolist() for kids in value]
        elif isinstance(value, array):
            value = value.tolist()
        columns[field] = value
    partition = {label: ids.tolist() for label, ids in t._label_index.items()}
    return ("tree", columns, partition, warnings)


def _events(events, text, recover):
    warnings, seen = [], []
    try:
        for event in events(text, recover=recover, warnings=warnings):
            seen.append(event)
    except ParseError as exc:
        seen.append(("error", str(exc), exc.position))
    return seen, warnings


class TestDifferential:
    """``parse_xml`` and ``iter_xml_events`` against the per-token
    reference (``tests/xml_reference.py``), in both modes, with and
    without attribute labels, under small depth ceilings, and with
    batches as small as one character, so that tokens straddle batch
    boundaries."""

    def _check(self, text, batch, max_depth):
        with mock.patch.object(xmlio, "_BATCH", batch):
            for recover in (False, True):
                for attributes_as_labels in (False, True):
                    options = dict(
                        recover=recover,
                        attributes_as_labels=attributes_as_labels,
                        max_depth=max_depth,
                    )
                    assert _outcome(parse_xml, text, **options) == _outcome(
                        xml_reference.parse_xml, text, **options
                    ), options
                assert _events(iter_xml_events, text, recover) == _events(
                    xml_reference.iter_xml_events, text, recover
                ), recover

    @given(
        _well_formed_texts(),
        st.sampled_from([1, 2, 3, 7, 64, 4096]),
        st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_well_formed(self, text, batch, max_depth):
        self._check(text, batch, max_depth)

    @given(
        _MALFORMED_TEXTS,
        st.sampled_from([1, 2, 3, 7, 64, 4096]),
        st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=400, deadline=None)
    def test_malformed(self, text, batch, max_depth):
        self._check(text, batch, max_depth)

    @pytest.mark.parametrize(
        "text",
        [
            "<a>" + "<!--" * 50 + "</a>",
            "<a>" + "<![CDATA[" * 20 + "<b/>]]>" + "<?" * 20 + "</a>",
            "<a><!-- <b> --><c/>" + "<?x" * 10 + "?><d>",
            "<a>" * 5 + "<b>" + "</a>" * 5,
            "<a><b><c><e/></c></b><d><g/>",
            '<r x="1"><r/><s/></r><t/><u><v/></u>',
        ],
    )
    @pytest.mark.parametrize("batch", [1, 5, 4096])
    def test_examples(self, text, batch):
        self._check(text, batch, None)
        self._check(text, batch, 2)

