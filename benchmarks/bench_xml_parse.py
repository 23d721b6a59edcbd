"""E-parse — the one-scan loader of Section 2 is linear in the text.

``parse_xml`` turns each batch of text into tag tuples with one regex
call and applies them in one builder loop (docs/ENGINE.md, "Loading a
document").  Each sweep parses four sizes of one input family, reports
the time per node, and gates the growth class of time against size as
``linear``:

- wide, deep and XMark-style documents, the shapes the served
  benchmark loads;
- recovery over unterminated comment, PI and CDATA openers: each used to
  search the rest of the text for its terminator, which fit quadratic;
- long trailing text, which a token regex that folds text into the next
  tag retries at every position unless it matches the end of the text.
"""

import pytest

from repro.complexity import ScalingPoint, classify_growth
from repro.trees import parse_xml, to_xml
from repro.workloads import xmark_like
from repro.workloads.documents import deep_tree, wide_tree

from _benchutil import report, sizes, timed

DOCUMENTS = {
    "wide": (wide_tree, sizes((12_500, 25_000, 50_000, 100_000), (2_500, 5_000, 10_000, 20_000))),
    "deep": (deep_tree, sizes((2_500, 5_000, 10_000, 20_000), (1_000, 2_000, 4_000, 8_000))),
    "xmark": (xmark_like, sizes((250, 500, 1_000, 2_000), (60, 120, 240, 480))),
}


def _assert_linear(title, headers, rows):
    report(title, headers, rows)
    points = [ScalingPoint(r[0], r[-1]) for r in rows]
    assert classify_growth(points) == "linear", rows


@pytest.mark.parametrize("shape", sorted(DOCUMENTS))
def test_parse_is_linear(shape):
    make, ladder = DOCUMENTS[shape]
    rows = []
    for size in ladder:
        text = to_xml(make(size))
        n = parse_xml(text).n
        seconds = timed(parse_xml, text, repeats=3)
        rows.append([n, round(seconds / n * 1e6, 3), seconds])
    _assert_linear(
        f"E-parse: parse_xml, {shape} documents",
        ["nodes", "us/node", "parse_xml"],
        rows,
    )


OPENERS = {"comment": "<!--", "pi": "<?", "cdata": "<![CDATA["}


@pytest.mark.parametrize("kind", sorted(OPENERS))
def test_recovery_from_unterminated_openers_is_linear(kind):
    opener = OPENERS[kind]
    rows = []
    for k in sizes((4_000, 8_000, 16_000, 32_000), (1_000, 2_000, 4_000, 8_000)):
        text = "<a>" + opener * k + "</a>"
        warnings = []
        assert parse_xml(text, recover=True, warnings=warnings).n == 1
        assert len(warnings) == k
        rows.append([k, timed(parse_xml, text, recover=True, repeats=3)])
    _assert_linear(
        f"E-parse: recover=True over unterminated {kind} openers",
        ["openers", "parse_xml"],
        rows,
    )


def test_trailing_text_is_linear():
    rows = []
    for k in sizes((100_000, 200_000, 400_000, 800_000), (25_000, 50_000, 100_000, 200_000)):
        text = "<a/>" + "x" * k
        rows.append([k, timed(parse_xml, text, repeats=5)])
    _assert_linear(
        "E-parse: parse_xml over trailing text",
        ["characters", "parse_xml"],
        rows,
    )
