"""The text-parser core every trace format shares.

A format parser turns trace text into **rows** (see
:mod:`repro.trace.events`), the only event form between parser and
counter.  :class:`TextParser` owns everything that is not grammar:

* the drop counters and their fixed-key :meth:`~TextParser.stats`;
* :meth:`~TextParser.parse_chunk`, which tries the format's strict
  chunk regex (one ``findall`` per chunk) and otherwise runs the
  general per-line loop.  The fast path may only decline a chunk,
  never disagree with the loop, so every chunk parses exactly as its
  lines would one at a time;
* the chunk-relative positions of the lines the grammar rejected
  (:attr:`~TextParser.malformed_at`), which the live-ingest quarantine
  reports without re-parsing anything;
* the readers (:meth:`~TextParser.iter_file_batches`,
  :meth:`~TextParser.parse`, :meth:`~TextParser.parse_text`, ...).
  All of them split lines exactly where file iteration does: at
  ``"\\n"`` only.

Parser instances are long-lived state: the ``repro serve`` daemon keeps
one per tenant namespace (in-process or resident in a pool worker) for
the whole session, so LTTng pairing and syzkaller resource bindings
carry across every chunk a client sends.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.trace.events import EventBatch, Row, SyscallEvent

#: Target text-chunk size for file batch readers (characters).
DEFAULT_CHUNK_CHARS = 1 << 20

#: Shared decimal-token -> int memo (pids, retvals repeat heavily).
_INT_CACHE: dict[str, int] = {}
_INT_CACHE_CAP = 65536


def cached_int(text: str) -> int:
    value = _INT_CACHE.get(text)
    if value is None:
        value = int(text)
        if len(_INT_CACHE) < _INT_CACHE_CAP:
            _INT_CACHE[text] = value
    return value


def make_parse_stats(
    fmt: str, skipped: int, malformed: int, unpaired: int
) -> dict[str, Any]:
    """Fixed-key-order parse statistics (serial/sharded byte parity)."""
    return {
        "format": fmt,
        "skipped_lines": skipped,
        "malformed_lines": malformed,
        "unpaired_entries": unpaired,
    }


def split_lines(text: str) -> list[str]:
    """Split *text* where file iteration does: at ``"\\n"`` only.

    ``str.splitlines`` also breaks at ``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, ``\\x85`` and ``\\u2028``/``\\u2029``, any of
    which can sit inside one trace line (in a path argument).
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def line_count(chunk: str) -> int:
    """``len(split_lines(chunk))`` without building the list."""
    lines = chunk.count("\n")
    if chunk and not chunk.endswith("\n"):
        lines += 1
    return lines


def _read_chunks(path: str, chunk_chars: int) -> Iterator[str]:
    """Yield newline-aligned text chunks of roughly *chunk_chars*."""
    with open(path, encoding="utf-8") as handle:
        while True:
            chunk = handle.read(chunk_chars)
            if not chunk:
                return
            if chunk[-1] != "\n":
                chunk += handle.readline()
            yield chunk


class TextParser:
    """Base of the per-format parsers: counters, chunk driver, readers.

    Subclasses set :attr:`format` and implement :meth:`_line_row`, the
    general per-line grammar (one line in, a row or None out, counting
    what it drops).  They may add :meth:`_chunk_rows`, the strict
    chunk fast path.

    Attributes:
        skipped_lines: lines that produced no event.
        malformed_lines: nonblank lines the grammar rejected (a subset
            of skipped).
        events_parsed: rows emitted so far.
        malformed_at: chunk-relative indices of the lines the last
            :meth:`parse_chunk` rejected as malformed.
    """

    format = "abstract"
    #: Entry lines still awaiting their exits (only LTTng pairs lines).
    unpaired_entries = 0

    def __init__(self) -> None:
        self.skipped_lines = 0
        self.malformed_lines = 0
        self.events_parsed = 0
        self.malformed_at: list[int] = []

    # -- per-format hooks ----------------------------------------------------

    def _line_row(self, line: str) -> Row | None:
        raise NotImplementedError

    def _chunk_rows(self, chunk: str) -> list[Row] | None:
        """Strict fast path over a whole chunk; None declines it."""
        return None

    # -- parsing -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return make_parse_stats(
            self.format, self.skipped_lines, self.malformed_lines, self.unpaired_entries
        )

    def _rows(
        self, lines: Iterable[str], malformed_at: list[int] | None = None
    ) -> Iterator[Row]:
        """The general loop: every line through :meth:`_line_row`."""
        line_row = self._line_row
        for index, line in enumerate(lines):
            malformed = self.malformed_lines
            row = line_row(line)
            if row is not None:
                self.events_parsed += 1
                yield row
            elif malformed_at is not None and self.malformed_lines != malformed:
                malformed_at.append(index)

    def parse_chunk(self, chunk: str) -> list[Row]:
        """Parse one newline-aligned text chunk into rows."""
        self.malformed_at = []
        rows = self._chunk_rows(chunk)
        if rows is None:
            return list(self._rows(split_lines(chunk), self.malformed_at))
        self.events_parsed += len(rows)
        return rows

    def parse_lines(self, lines: Iterable[str]) -> list[Row]:
        return list(self._rows(lines))

    def iter_file_batches(
        self, path: str, chunk_chars: int = DEFAULT_CHUNK_CHARS
    ) -> Iterator[EventBatch]:
        """Stream a trace file as row batches, chunk by chunk."""
        for chunk in _read_chunks(path, chunk_chars):
            rows = self.parse_chunk(chunk)
            if rows:
                yield EventBatch.from_rows(rows)

    # -- the event view ------------------------------------------------------

    def parse(self, lines: Iterable[str]) -> Iterator[SyscallEvent]:
        """Yield events from any line iterable (a file handle streams)."""
        for row in self._rows(lines):
            yield SyscallEvent(*row)

    def parse_line(self, line: str) -> SyscallEvent | None:
        """Feed one line; returns the event it completed, if any."""
        for event in self.parse((line,)):
            return event
        return None

    def parse_text(self, text: str) -> list[SyscallEvent]:
        return list(self.parse(split_lines(text)))

    def iter_parse_file(self, path: str) -> Iterator[SyscallEvent]:
        """Stream events from disk without materializing the trace."""
        with open(path, encoding="utf-8") as handle:
            yield from self.parse(handle)

    def parse_file(self, path: str) -> list[SyscallEvent]:
        return list(self.iter_parse_file(path))
