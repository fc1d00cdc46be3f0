"""Batch-columnar trace parsing: chunk-at-a-time instead of line-at-a-time.

Building one :class:`~repro.trace.events.SyscallEvent` per record caps
text ingest well below the analyzer's counting throughput, so every
ingest path carries **rows** instead (see :mod:`repro.trace.events`):

* :class:`EventBatch` holds a block of rows, or the parallel columns
  the binary ``.rbt`` decoder produces (:mod:`repro.trace.binary`).
* There is one parser class per text format --
  :class:`~repro.trace.lttng.LttngParser`,
  :class:`~repro.trace.strace.StraceParser` and
  :class:`~repro.trace.syzkaller.SyzkallerParser`, all built on
  :class:`~repro.trace.textparse.TextParser`.  Each parses whole text
  chunks with one multiline ``findall`` over a strict precompiled
  grammar and falls back to its general per-line grammar for any chunk
  the strict one declines, so a chunk parse is *equal by construction*
  to the line-by-line parse of the same text.
* :func:`make_batch_parser` builds a parser by format name; this module
  also names the classes ``LttngBatchParser`` & co.

Throughput notes: the chunk grammars validate all structure inside the
regex engine (one C call per chunk), field/argument parsing is memoized
on the part strings that repeat across a trace (``flags = 577``,
``AT_FDCWD``), and each event costs one tuple append instead of a
dataclass construction.
"""

from __future__ import annotations

from repro.trace.events import EventBatch, Row
from repro.trace.lttng import LttngParser
from repro.trace.strace import StraceParser
from repro.trace.syzkaller import SyzkallerParser
from repro.trace.textparse import DEFAULT_CHUNK_CHARS, TextParser, make_parse_stats

__all__ = [
    "BATCH_PARSERS",
    "DEFAULT_CHUNK_CHARS",
    "EventBatch",
    "LttngBatchParser",
    "Row",
    "StraceBatchParser",
    "SyzkallerBatchParser",
    "make_batch_parser",
    "make_parse_stats",
]

LttngBatchParser = LttngParser
StraceBatchParser = StraceParser
SyzkallerBatchParser = SyzkallerParser

#: format name -> parser class
BATCH_PARSERS: dict[str, type[TextParser]] = {
    "lttng": LttngParser,
    "strace": StraceParser,
    "syzkaller": SyzkallerParser,
}


def make_batch_parser(fmt: str) -> TextParser:
    """Build the parser for *fmt* (``lttng``/``strace``/``syzkaller``)."""
    try:
        return BATCH_PARSERS[fmt]()
    except KeyError:
        raise ValueError(f"unknown trace format: {fmt!r}") from None
