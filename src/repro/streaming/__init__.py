"""Streaming query evaluation (Section 5 "streaming algorithms" and the
memory lower bound discussed in Section 7).

- :mod:`~repro.streaming.events` — SAX-style (start, end) event streams
  from trees or XML text; the tree is never materialized,
- :mod:`~repro.streaming.engine` — two one-pass evaluators whose memory
  is O(depth · |Q|), matching the [40]-tight bound:

  * :func:`~repro.streaming.engine.stream_select` — node selection for
    downward forward path queries (Child/Child+/Child* steps with label
    tests), in the style of the transducer networks of [61, 65],
  * :func:`~repro.streaming.engine.stream_match_twig` — Boolean matching
    of forward twigs by bottom-up set propagation (the O(depth)
    streaming recognizer implicit in [60, 70]),

- :class:`~repro.streaming.memory.MemoryMeter` — peak live-state
  instrumentation used by experiment E15.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".events": ["tree_events", "xml_events", "Event"],
    ".engine": ["stream_select", "stream_match_twig"],
    ".memory": ["MemoryMeter"],
    ".buffered": ["stream_select_lookahead", "split_lookahead"],
})
