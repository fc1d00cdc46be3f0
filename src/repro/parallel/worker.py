"""Per-shard analysis: parse → filter → count, with stitch residue.

A worker consumes one byte span of the trace file and produces a
:class:`ShardResult` — its coverage tallies plus everything the parent
needs to make the combined result *bit-identical* to a sequential
pass:

* the :class:`~repro.parallel.shardfilter.ShardFilter` op log and
  deferred rows (stateful mount-point filtering across shards);
* LTTng pairing residue: orphan exit lines (entry in an earlier
  shard) and pending entry lines (exit in a later shard), plus the
  per-key diagnostics the parent uses to prove local pairing was
  position-exact.

The span is parsed in newline-aligned chunks by the same parser class
the serial path uses, and its rows are counted by the same loop.  Every
row gets a sequence number (``seq``, its index in the shard's row
stream); ops and deferred rows carry their row's seq, orphans the seq
of the row they precede, so the parent can interleave its fixup replay
at exactly the right points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.analyzer import IOCov
from repro.core.filter import TraceFilter
from repro.core.input_coverage import InputCoverage
from repro.core.output_coverage import OutputCoverage
from repro.parallel.shardfilter import FdOp, ShardFilter
from repro.parallel.sharding import iter_span_chunks
from repro.trace.batch import make_batch_parser
from repro.trace.binary import decode_batch, encode_batch
from repro.trace.events import Row
from repro.trace.lttng import OrphanExit
from repro.trace.syzkaller import SyzkallerParser

#: Trace formats the sharded pipeline understands.
FORMATS = ("lttng", "strace", "syzkaller")

#: (pid, name) -> pending LTTng entries (ns, comm, args), stream order.
PendingMap = dict[tuple[int, str], list[tuple[int, str, dict[str, Any]]]]


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs; must stay cheaply picklable."""

    index: int
    path: str
    start: int
    end: int
    fmt: str
    mount_point: str | None
    #: syzkaller resource table at the shard's first line (from the
    #: executor's sequential pre-scan); None for other formats.
    resources: dict[str, int] | None = None


@dataclass
class ShardResult:
    """One shard's tallies plus the residue the stitch phase consumes."""

    index: int
    input: InputCoverage
    output: OutputCoverage
    untracked: Counter
    events_processed: int
    events_admitted: int
    #: definite fd-table mutations, (seq, pid, op, fd), stream order
    ops: list[FdOp] = field(default_factory=list)
    #: rows whose filter verdict needs pre-shard fd state
    deferred: list[tuple[int, Row]] = field(default_factory=list)
    #: LTTng exit lines whose entries live in an earlier shard, keyed by
    #: the seq of the row they precede (the count of rows before them)
    orphans: list[tuple[int, OrphanExit]] = field(default_factory=list)
    #: LTTng entry lines whose exits live in a later shard
    pending: PendingMap = field(default_factory=dict)
    #: (pid, name) -> orphan exits seen before the first *local* pair
    #: for that key; the parent proves local pairing exact by checking
    #: the carried-over entry queue was drained by then.
    first_pair_orphans: dict[tuple[int, str], int] = field(default_factory=dict)
    #: parser drop counters for this shard's span (summed by the parent
    #: into the run-level parse stats).
    skipped_lines: int = 0
    malformed_lines: int = 0
    #: deferred rows shipped as one encoded ``.rbt`` frame instead of
    #: a pickled row list (cheaper IPC); ``deferred_seqs`` carries the
    #: matching stream positions.  When set, ``deferred`` is empty.
    deferred_blob: bytes | None = None
    deferred_seqs: list[int] | None = None

    def iter_deferred(self):
        """Yield ``(seq, row)`` regardless of the transport encoding."""
        if self.deferred_blob is not None:
            return zip(self.deferred_seqs, decode_batch(self.deferred_blob).iter_rows())
        return iter(self.deferred)

    def merge(self, other: "ShardResult") -> "ShardResult":
        """Fold another shard's coverage tallies in (exact: sums).

        Only the mergeable tallies combine — stitch residue (ops,
        deferred, orphans, pending) is consumed separately by the
        parent and is not carried through merges.
        """
        self.input.merge(other.input)
        self.output.merge(other.output)
        self.untracked.update(other.untracked)
        self.events_processed += other.events_processed
        self.events_admitted += other.events_admitted
        return self


def analyze_shard(task: ShardTask) -> ShardResult:
    """Analyze one byte span of the trace file (runs in a worker).

    The span is streamed off disk from ``task.path``.
    """
    if task.fmt not in FORMATS:
        raise ValueError(f"unknown trace format: {task.fmt!r}")
    iocov = IOCov(suite_name=f"shard-{task.index}")
    shard_filter = (
        ShardFilter(TraceFilter.for_mount_point(task.mount_point))
        if task.mount_point is not None
        else None
    )

    parser = (
        SyzkallerParser(task.resources)
        if task.fmt == "syzkaller"
        else make_batch_parser(task.fmt)
    )
    # LTTng pairing residue: exits whose entries precede the span are
    # kept for the stitch phase instead of being counted as skipped.
    orphans: list[tuple[int, OrphanExit]] | None = [] if task.fmt == "lttng" else None
    if orphans is not None:
        parser.orphans = orphans
    # (pid, name) -> seq of the shard's first local pair for that key.
    first_pair: dict[tuple[int, str], int] = {}
    seq = 0
    for chunk in iter_span_chunks(task.path, task.start, task.end):
        rows = parser.parse_chunk(chunk)
        if orphans is not None:
            for index, row in enumerate(rows, seq):
                key = (row[4], row[0])
                if key not in first_pair:
                    first_pair[key] = index
        if shard_filter is None:
            iocov._ingest_rows(rows)
        else:
            # The worker counts only the rows it decides; deferred rows
            # (verdict None) are counted by the parent's replay.
            admit = shard_filter.admit_local_row
            admitted: list[Row] = []
            rejected = 0
            for index, row in enumerate(rows, seq):
                verdict = admit(index, row)
                if verdict is True:
                    admitted.append(row)
                elif verdict is not None:
                    rejected += 1
            iocov._ingest_rows(admitted)
            iocov.events_processed += rejected
        seq += len(rows)

    first_pair_orphans = dict.fromkeys(first_pair, 0)
    for rows_before, (name, pid, _comm, _ret) in orphans or ():
        key = (pid, name)
        if key in first_pair and rows_before <= first_pair[key]:
            first_pair_orphans[key] += 1

    deferred = shard_filter.deferred if shard_filter is not None else []
    deferred_blob = None
    deferred_seqs = None
    if deferred:
        # Ship the deferred rows as one encoded frame: cheaper to
        # pickle than a list of row tuples, decoded lazily by the
        # parent's stitch phase.
        deferred_seqs = [seq for seq, _ in deferred]
        deferred_blob = encode_batch([row for _, row in deferred])
        deferred = []

    return ShardResult(
        index=task.index,
        input=iocov.input,
        output=iocov.output,
        untracked=iocov.untracked,
        events_processed=iocov.events_processed,
        events_admitted=iocov.events_admitted,
        ops=shard_filter.ops if shard_filter is not None else [],
        deferred=deferred,
        orphans=orphans or [],
        pending=parser.pending if orphans is not None else {},
        first_pair_orphans=first_pair_orphans,
        skipped_lines=parser.skipped_lines,
        malformed_lines=parser.malformed_lines,
        deferred_blob=deferred_blob,
        deferred_seqs=deferred_seqs,
    )
