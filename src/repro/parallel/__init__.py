"""Parallel sharded trace analysis with exact sequential parity.

The scale story for the analyzer: a trace file is split into
line-aligned byte spans, each span is analyzed independently (own
process, own parser, own shard-local filter), and the per-shard
coverage states are stitched and merged into a report bit-identical
to a single sequential pass — the merge is exact because every
coverage tally is a sum, and the stateful parts (mount-point fd
tracking, LTTng entry/exit pairing) are reconciled by a replay of the
small cross-shard residue each worker reports.

Fan-out runs on a **spawn-once worker pool** (:mod:`repro.parallel.pool`)
shared by every ``run_sharded`` call in the process: workers stay warm,
each worker reads its own span straight from the trace file, and the
caller stream-merges shard tallies in completion order.

Entry points:

* :func:`run_sharded` — file in, report out, ``jobs`` workers.
* ``repro analyze --jobs N`` — the same, from the command line.
* :func:`get_pool` / :class:`WorkerPool` — the persistent runtime.
"""

from repro.parallel.executor import (
    ShardAmbiguityError,
    run_sharded,
    tree_merge,
)
from repro.parallel.pool import (
    PoolError,
    PoolUnavailableError,
    WorkerCrashError,
    WorkerPool,
    get_pool,
    pool_is_warm,
    shutdown_pool,
)
from repro.parallel.shardfilter import ShardFilter
from repro.parallel.sharding import iter_span_lines, shard_spans
from repro.parallel.worker import (
    ShardResult,
    ShardTask,
    analyze_shard,
)

__all__ = [
    "PoolError",
    "PoolUnavailableError",
    "ShardAmbiguityError",
    "ShardFilter",
    "ShardResult",
    "ShardTask",
    "WorkerCrashError",
    "WorkerPool",
    "analyze_shard",
    "get_pool",
    "iter_span_lines",
    "pool_is_warm",
    "run_sharded",
    "shard_spans",
    "shutdown_pool",
    "tree_merge",
]
