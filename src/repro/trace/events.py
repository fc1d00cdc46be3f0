"""Syscall trace event model.

A :class:`SyscallEvent` is the unit of information IOCov consumes: one
record per syscall invocation carrying the syscall name, its arguments,
and its outcome.  The schema deliberately matches what LTTng's syscall
tracepoints provide (entry arguments + exit return value), flattened
into a single record the way the IOCov prototype's analyzer sees them.

Between parser and counter an event travels as a **row** — a
``(name, args, retval, errno, pid, comm, timestamp)`` tuple in
:class:`SyscallEvent` field order — and rows travel in blocks, as
:class:`EventBatch`.

This module has no dependency on the VFS so that trace parsing and
analysis can run on externally captured traces without pulling in the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping


@dataclass(frozen=True)
class SyscallEvent:
    """One traced syscall invocation.

    Attributes:
        name: the syscall name as the kernel exposes it (variant names
            preserved: ``openat``, ``pwrite64``, …).
        args: argument name -> value.  Values are ints, strings
            (paths, xattr names), or lists of ints (iovec lengths).
            Buffer *contents* are never recorded, matching LTTng.
        retval: raw kernel return value (negative errno on failure).
        errno: positive errno on failure, 0 on success (redundant with
            retval but convenient).
        pid: issuing process id.
        comm: issuing process name (LTTng records this per event).
        timestamp: monotonic event time in nanoseconds.
    """

    name: str
    args: Mapping[str, Any]
    retval: int
    errno: int = 0
    pid: int = 0
    comm: str = ""
    timestamp: int = 0

    @property
    def ok(self) -> bool:
        """Whether the syscall succeeded (retval >= 0)."""
        return self.retval >= 0

    def arg(self, name: str, default: Any = None) -> Any:
        """Fetch one argument by name, with a default."""
        return self.args.get(name, default)

    def paths(self) -> Iterator[str]:
        """Yield every string-valued argument that looks like a path.

        Used by the trace filter to decide whether the event touches
        the tester's mount point.
        """
        for key, value in self.args.items():
            if isinstance(value, str) and key in ("path", "pathname", "oldpath", "newpath", "target"):
                yield value


def make_event(
    name: str,
    args: Mapping[str, Any],
    retval: int,
    errno: int = 0,
    *,
    pid: int = 0,
    comm: str = "",
    timestamp: int = 0,
) -> SyscallEvent:
    """Construct a :class:`SyscallEvent` with a defensive args copy."""
    return SyscallEvent(
        name=name,
        args=dict(args),
        retval=retval,
        errno=errno,
        pid=pid,
        comm=comm,
        timestamp=timestamp,
    )


#: One event as parsers emit and the analyzer counts it:
#: ``(name, args, retval, errno, pid, comm, timestamp)``.
Row = tuple


class EventBatch:
    """A block of parsed syscall events.

    Storage is one of two interchangeable forms:

    * **rows** — a list of ``(name, args, retval, errno, pid, comm,
      timestamp)`` tuples.  The text parsers produce this: one
      append per event, no object construction.
    * **columns** — parallel sequences per field (numeric fields as
      ``array('q')`` where they fit), with syscall args held as
      per-key columns.  The binary decoder produces this without any
      per-event Python work; argument dicts are materialized lazily
      the first time rows are requested.
    """

    __slots__ = ("_rows", "_cols", "_arg_cols")

    def __init__(self, rows=None, cols=None, arg_cols=None) -> None:
        self._rows = rows
        #: (names, argses, retvals, errnos, pids, comms, timestamps)
        self._cols = cols
        self._arg_cols = arg_cols

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: list[Row]) -> "EventBatch":
        return cls(rows=rows)

    @classmethod
    def from_events(cls, events: Iterable[SyscallEvent]) -> "EventBatch":
        return cls(
            rows=[
                (e.name, e.args, e.retval, e.errno, e.pid, e.comm, e.timestamp)
                for e in events
            ]
        )

    @classmethod
    def from_columns(
        cls, names, argses, retvals, errnos, pids, comms, timestamps, arg_cols=None
    ) -> "EventBatch":
        """Columnar constructor (binary decode path).

        *argses* may be None when *arg_cols* (the per-key columns, see
        :mod:`repro.trace.binary`) is given; dicts are then built
        lazily on first row access.
        """
        return cls(
            cols=[names, argses, retvals, errnos, pids, comms, timestamps],
            arg_cols=arg_cols,
        )

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self._cols[0])

    def _materialize_args(self) -> list:
        cols = self._cols
        if cols[1] is None:
            n = len(cols[0])
            argses = [dict() for _ in range(n)]
            for key, fill in self._arg_cols:
                fill(key, argses)
            cols[1] = argses
        return cols[1]

    def rows(self) -> list[Row]:
        """The batch as row tuples (materialized once for columns)."""
        if self._rows is None:
            names, _, retvals, errnos, pids, comms, timestamps = self._cols
            self._rows = list(
                zip(names, self._materialize_args(), retvals, errnos, pids, comms, timestamps)
            )
        return self._rows

    def iter_rows(self) -> Iterator[Row]:
        if self._rows is not None:
            return iter(self._rows)
        names, _, retvals, errnos, pids, comms, timestamps = self._cols
        return zip(names, self._materialize_args(), retvals, errnos, pids, comms, timestamps)

    def iter_events(self) -> Iterator[SyscallEvent]:
        """Yield one :class:`SyscallEvent` per row (compat shim)."""
        for name, args, retval, errno, pid, comm, timestamp in self.iter_rows():
            yield make_event(
                name, args, retval, errno, pid=pid, comm=comm, timestamp=timestamp
            )

    def to_events(self) -> list[SyscallEvent]:
        return list(self.iter_events())

    def event_at(self, index: int) -> SyscallEvent:
        name, args, retval, errno, pid, comm, timestamp = self.rows()[index]
        return make_event(
            name, args, retval, errno, pid=pid, comm=comm, timestamp=timestamp
        )
