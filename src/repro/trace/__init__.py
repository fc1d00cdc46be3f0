"""Syscall tracing: event model, recorder, and trace-format codecs.

Capture paths into the IOCov analyzer:

* live: :class:`TraceRecorder` attached to a
  :class:`~repro.vfs.syscalls.SyscallInterface` (the LTTng equivalent);
* text traces, one parser class per format, each emitting rows (the
  only event form between parser and counter) chunk by chunk or line
  by line with identical results: :class:`LttngParser` (LTTng /
  babeltrace text), :class:`StraceParser` (strace text) and
  :class:`SyzkallerParser` (program logs, input-only);
  :func:`make_batch_parser` builds one by format name and
  :class:`EventBatch` carries their output;
* binary ``.rbt`` container: :func:`convert_file`, :class:`RbtReader`,
  :class:`RbtWriter`, :class:`RbtDecoder` — parse once, analyze at
  decode speed.
"""

from repro.trace.batch import (
    EventBatch,
    make_batch_parser,
    make_parse_stats,
)
from repro.trace.binary import (
    RbtDecoder,
    RbtError,
    RbtFormatError,
    RbtReader,
    RbtTruncatedError,
    RbtWriter,
    convert_file,
    decode_batch,
    encode_batch,
    iter_rbt_batches,
    read_rbt_events,
    read_rbt_header,
)
from repro.trace.events import SyscallEvent, make_event
from repro.trace.lttng import LttngParseError, LttngParser, LttngWriter
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayDivergence, ReplayReport, TraceReplayer
from repro.trace.strace import StraceParseError, StraceParser
from repro.trace.syzkaller import SyzkallerParser

__all__ = [
    "EventBatch",
    "LttngParseError",
    "LttngParser",
    "LttngWriter",
    "RbtDecoder",
    "RbtError",
    "RbtFormatError",
    "RbtReader",
    "RbtTruncatedError",
    "RbtWriter",
    "ReplayDivergence",
    "ReplayReport",
    "StraceParseError",
    "StraceParser",
    "SyscallEvent",
    "SyzkallerParser",
    "TraceRecorder",
    "TraceReplayer",
    "convert_file",
    "decode_batch",
    "encode_batch",
    "iter_rbt_batches",
    "make_batch_parser",
    "make_event",
    "make_parse_stats",
    "read_rbt_events",
    "read_rbt_header",
]
