"""In-memory span tracing around the pipeline's public entry points.

A :class:`Tracer` keeps spans (name, start, end, parent span, run id,
thread) in a list and counters in a dict; nothing is written until the
benchmark asks.  :func:`install` wraps public functions and methods of
``repro`` from outside the package: every wrapper records one span and,
where the layer has one, a count of the work it did.

A layer's self time is its span's duration minus the time its direct
child spans cover (:func:`self_times`).  Spans nest through a
per-thread stack, so the self times of one thread's root spans and all
their descendants add up exactly to the roots' total duration.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: span tuple fields, in order
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run", "thread")


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        # A forked child (pool worker) inherits the wrappers; its spans
        # would never be written, so it stops recording.
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False
        self.spans = []

    def stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def dump(self, path: str) -> None:
        """Write spans (one JSON array per line) plus counters to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "fields": SPAN_FIELDS,
                "counters": dict(self.counters),
                "maxima": dict(self.maxima),
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @staticmethod
    def load(path: str) -> tuple[list[tuple], dict, dict]:
        """Read back what :meth:`dump` wrote: (spans, counters, maxima)."""
        with open(path, encoding="utf-8") as handle:
            head = json.loads(handle.readline())
            spans = [tuple(json.loads(line)) for line in handle if line.strip()]
        return spans, head["counters"], head["maxima"]


def wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    *,
    before: Callable[[tuple, dict], Any] | None = None,
    after: Callable[[Any, tuple, dict, Any, bool], None] | None = None,
) -> Callable:
    """Wrap *fn* so each call records a span named *name*.

    *before(args, kwargs)* runs first and returns a token; *after(token,
    args, kwargs, result, outermost)* runs once the call returned, where
    *outermost* is False when the caller is a span of the same name.
    """
    spans = tracer.spans
    perf_ns = time.perf_counter_ns
    get_ident = threading.get_ident

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        stack = tracer.stack()
        parent = stack[-1] if stack else (0, "")
        token = before(args, kwargs) if before is not None else None
        span_id = next(tracer._ids)
        stack.append((span_id, name))
        start = perf_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_ns()
            stack.pop()
            spans.append(
                (span_id, name, start, end, parent[0], tracer.run_id, get_ident())
            )
        if after is not None:
            after(token, args, kwargs, result, parent[1] != name)
        return result

    return wrapper


def wrap_generator(tracer: Tracer, name: str, fn: Callable, on_item: Callable) -> Callable:
    """Wrap a generator function: each ``next()`` is one span.

    Time the consumer spends between items belongs to the consumer, so
    a streaming parser's spans interleave with its caller's instead of
    covering it.  *on_item(item)* counts each yielded item.
    """
    spans = tracer.spans
    perf_ns = time.perf_counter_ns
    get_ident = threading.get_ident

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            if not tracer.recording:
                yield from inner
                return
            stack = tracer.stack()
            parent = stack[-1][0] if stack else 0
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = perf_ns()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                spans.append(
                    (span_id, name, start, perf_ns(), parent, tracer.run_id, get_ident())
                )
                stack.pop()
            on_item(item)
            yield item

    return wrapper


# -- self-time arithmetic ---------------------------------------------------------


def self_times(spans: Iterable[tuple]) -> dict[str, float]:
    """Seconds of self time per span name.

    Self time is a span's duration minus the durations of its direct
    children (spans whose ``parent`` is its id).
    """
    spans = list(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[4]:
            child_ns[span[4]] += span[3] - span[2]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += (span[3] - span[2] - child_ns.get(span[0], 0)) / 1e9
    return dict(totals)


def root_seconds(spans: Iterable[tuple], thread: int | None = None) -> float:
    """Total duration of root spans (optionally of one thread only)."""
    return sum(
        (span[3] - span[2]) / 1e9
        for span in spans
        if span[4] == 0 and (thread is None or span[6] == thread)
    )


# -- the wrappers around repro's public entry points ----------------------------------


class _Patches:
    """Records every attribute replaced so :meth:`undo` can restore it."""

    _INHERITED = object()

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, self._INHERITED)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._saved):
            if value is self._INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._saved.clear()


def _method(tracer, patches, cls, attr, name, **hooks) -> None:
    function = inspect.getattr_static(cls, attr)
    patches.set(cls, attr, wrap(tracer, name, function, **hooks))


def install(tracer: Tracer) -> _Patches:
    """Wrap the client-side layers: suites, campaign, VFS, trace, core,
    parallel and the obs push client.  Returns the patch set."""
    import repro.campaign.runner as campaign_runner
    import repro.obs.client as obs_client
    import repro.parallel as parallel
    import repro.parallel.executor as parallel_executor
    from repro.campaign.weights import WeightModel
    from repro.core.analyzer import IOCov
    from repro.core.report import CoverageReport
    from repro.testsuites.base import SuiteRunner
    from repro.testsuites.fuzzer import CoverageGuidedFuzzer
    from repro.trace.batch import LttngBatchParser
    from repro.trace.lttng import LttngWriter
    from repro.trace.recorder import TraceRecorder
    from repro.vfs.crash import CrashSimulator
    from repro.vfs.syscalls import SyscallInterface

    patches = _Patches()
    count = tracer.count

    # testsuites
    _method(tracer, patches, SuiteRunner, "run", "testsuites.suite")
    _method(
        tracer, patches, CoverageGuidedFuzzer, "run", "testsuites.fuzzer",
        before=lambda args, kwargs: args[0].executions,
        after=lambda before, args, kwargs, result, outer: count(
            "testsuites.fuzzer.executions", args[0].executions - before
        ),
    )
    original_init = CoverageGuidedFuzzer.__dict__["__init__"]

    @functools.wraps(original_init)
    def fuzzer_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        # Novelty checks run on the fuzzer's own coverage object: wrap
        # that instance's methods, not the class the analyzer also uses.
        coverage = self.coverage
        for pair in coverage.tracked_pairs():
            arg_cov = coverage.arg(*pair)
            for attr in ("record", "tested_partitions"):
                arg_cov.__dict__[attr] = wrap(
                    tracer, "core.novelty", getattr(arg_cov, attr),
                    after=lambda b, a, k, r, outer: count("core.novelty_calls"),
                )

    patches.set(CoverageGuidedFuzzer, "__init__", fuzzer_init)

    # campaign
    _method(
        tracer, patches, campaign_runner.CampaignRunner, "run", "campaign",
        after=lambda b, a, k, result, outer: count("campaign.rounds", len(result.rounds)),
    )
    from_report = WeightModel.__dict__["from_report"].__func__
    patches.set(
        WeightModel, "from_report",
        classmethod(wrap(tracer, "campaign.weights", from_report)),
    )
    patches.set(
        campaign_runner, "aggregate_tcd",
        wrap(tracer, "campaign.score", campaign_runner.aggregate_tcd),
    )

    # vfs
    def syscall_done(before, args, kwargs, result, outer):
        if outer:
            count("vfs.syscalls")
            if not result.ok:
                count("vfs.failed_syscalls")

    for attr, value in list(vars(SyscallInterface).items()):
        if attr.startswith("_") or attr in ("subscribe", "unsubscribe"):
            continue
        if inspect.isfunction(value):
            _method(tracer, patches, SyscallInterface, attr, "vfs.syscall",
                    after=syscall_done)
    _method(
        tracer, patches, CrashSimulator, "checkpoint", "vfs.crash.checkpoint",
        after=lambda b, a, k, r, outer: count("vfs.crash.checkpoints"),
    )
    _method(
        tracer, patches, CrashSimulator, "crash", "vfs.crash.restore",
        after=lambda b, a, k, r, outer: count("vfs.crash.restores"),
    )

    # trace
    _method(
        tracer, patches, TraceRecorder, "__call__", "trace.record",
        after=lambda b, args, k, r, outer: count(
            "trace.recorded_events", 1 if args[0].enabled else 0
        ),
    )

    def tell(stream) -> int | None:
        try:
            return stream.tell()
        except (OSError, ValueError, AttributeError):
            return None

    def write_done(before, args, kwargs, result, outer):
        end = tell(args[2])
        if before is not None and end is not None:
            count("trace.write_bytes", end - before)

    _method(
        tracer, patches, LttngWriter, "write", "trace.write",
        before=lambda args, kwargs: tell(args[2]), after=write_done,
    )
    batches = LttngBatchParser.__dict__["iter_file_batches"]

    def iter_file_batches(self, *args, **kwargs):
        malformed = self.malformed_lines
        yield from wrap_generator(
            tracer, "trace.parse", batches,
            lambda batch: count("trace.parsed_events", len(batch)),
        )(self, *args, **kwargs)
        count("trace.malformed_lines", self.malformed_lines - malformed)

    patches.set(LttngBatchParser, "iter_file_batches", iter_file_batches)

    # core
    def consume_before(args, kwargs):
        return args[0].events_processed, args[0].events_admitted

    def consume_done(before, args, kwargs, result, outer):
        if outer:
            count("core.events_processed", args[0].events_processed - before[0])
            count("core.events_admitted", args[0].events_admitted - before[1])

    for attr in (
        "consume", "consume_batch", "consume_batches", "consume_incremental",
        "consume_stream", "consume_lttng_file", "consume_strace_file",
        "consume_syzkaller_file", "consume_rbt_file",
    ):
        _method(tracer, patches, IOCov, attr, "core.count",
                before=consume_before, after=consume_done)
    _method(tracer, patches, IOCov, "report", "core.report")
    _method(tracer, patches, CoverageReport, "to_dict", "core.report")
    _method(tracer, patches, CoverageReport, "to_json", "core.report")

    # parallel
    def sharded_before(args, kwargs):
        if kwargs.get("stats") is None:
            kwargs["stats"] = {}
        return kwargs["stats"]

    def sharded_done(stats, args, kwargs, result, outer):
        count("parallel.shards", stats.get("shards") or 0)
        tracer.peak("parallel.jobs_effective", stats.get("jobs_effective") or 0)
        count("parallel.sequential_fallbacks", bool(stats.get("sequential_fallback")))
        count("parallel.pool_skipped", bool(stats.get("pool_skipped")))

    sharded = wrap(tracer, "parallel.sharded", parallel_executor.run_sharded,
                   before=sharded_before, after=sharded_done)
    patches.set(parallel_executor, "run_sharded", sharded)
    patches.set(parallel, "run_sharded", sharded)

    # obs client
    patches.set(obs_client, "push_file",
                wrap(tracer, "obs.client.push", obs_client.push_file))
    return patches


def install_daemon(tracer: Tracer) -> _Patches:
    """Wrap the daemon-side obs layers: store journal and saves, the
    ``/live`` snapshot and its JSON, and the ingest queue-depth gauge."""
    from repro.core.report import CoverageReport
    from repro.obs.ingest import IngestSession
    from repro.obs.metrics import Gauge
    from repro.obs.store import RunStore

    patches = _Patches()
    _method(
        tracer, patches, RunStore, "journal_append", "obs.store.journal",
        after=lambda b, a, k, r, outer: tracer.count("obs.store.journal_appends"),
    )
    _method(tracer, patches, RunStore, "journal_sync", "obs.store.journal")
    _method(tracer, patches, RunStore, "save_report", "obs.store.save")
    _method(tracer, patches, IngestSession, "report", "obs.live")
    _method(tracer, patches, CoverageReport, "to_json", "obs.live")
    gauge_set = Gauge.__dict__["set"]

    @functools.wraps(gauge_set)
    def set_gauge(self, value, **labels):
        if self.name == "iocov_ingest_queue_depth":
            tracer.peak("obs.ingest.queue_depth_max", value)
        return gauge_set(self, value, **labels)

    patches.set(Gauge, "set", set_gauge)
    return patches
