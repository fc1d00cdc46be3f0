"""The IOCov pipeline benchmark: one seeded workload per run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 8 --trace 0

Workloads: ``analyze``, ``analyze-jobs2``, ``campaign``, ``push-live``,
``suites-crashmonkey`` (see README.md for why each exists).  A run
builds (or loads from ``perfbench/.cache``) its seeded inputs, times
set-up in fresh interpreters, then repeats the workload's operation for
``--seconds``, checking every output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced for ``--seconds`` each and reports the per-layer metrics.  Times
are unstolen: wall time less what the hypervisor withheld from the
CPUs doing the work (see workloads.py); the record keeps raw wall times.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before
it records the machine and the input size; the same record, with every
check problem, is written to ``perfbench/.out``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import signal
import sys
import tempfile
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (both found through the path entry above)
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")
#: fresh-interpreter set-up probes per run (the median is reported)
SETUP_PROBES = 5
#: prctl option that makes orphaned descendants re-parent to the caller
PR_SET_CHILD_SUBREAPER = 36

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "push_p50_ms": "ms",
    "push_p99_ms": "ms",
    "final_tcd": "TCD",
    "peak_rss_mb": "MiB",
}

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "testsuites.suite": "testsuites.suite.self_s",
    "testsuites.fuzzer": "testsuites.fuzzer.self_s",
    "campaign": "campaign.self_s",
    "campaign.weights": "campaign.weights_s",
    "campaign.score": "campaign.score_s",
    "vfs.syscall": "vfs.syscall_s",
    "vfs.crash.checkpoint": "vfs.crash.checkpoint_s",
    "vfs.crash.restore": "vfs.crash.restore_s",
    "trace.record": "trace.record_s",
    "trace.write": "trace.write_s",
    "trace.parse": "trace.parse_s",
    "core.count": "core.count_s",
    "core.novelty": "core.novelty_s",
    "core.report": "core.report_s",
    "parallel.sharded": "parallel.sharded_s",
    "obs.client.push": "obs.client.push_s",
    "obs.store.journal": "obs.store.journal_s",
    "obs.store.save": "obs.store.save_s",
    "obs.live": "obs.live_s",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.daemon_ready_s": "s",
    "setup.pool_start_s": "s",
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "testsuites.fuzzer.executions": "count",
    "campaign.rounds": "count",
    "vfs.syscalls": "count",
    "vfs.failed_syscalls": "count",
    "vfs.crash.checkpoints": "count",
    "vfs.crash.restores": "count",
    "trace.recorded_events": "count",
    "trace.write_bytes": "bytes",
    "trace.parsed_events": "count",
    "trace.malformed_lines": "count",
    "core.events_processed": "count",
    "core.events_admitted": "count",
    "core.admit_ratio": "ratio",
    "core.novelty_calls": "count",
    "parallel.shards": "count",
    "parallel.jobs_effective": "count",
    "parallel.sequential_fallbacks": "count",
    "parallel.pool_skipped": "count",
    "obs.ingest.batch_s": "s",
    "obs.ingest.events": "count",
    "obs.ingest.parse_errors": "count",
    "obs.ingest.queue_depth_max": "lines",
    "obs.store.journal_appends": "count",
    "other_s": "s",
    "traced_wall_s": "s",
    "untraced_events_per_s": "events/s",
    "traced_events_per_s": "events/s",
    "trace_overhead": "ratio",
    "steal_share": "ratio",
}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def adopt_orphans() -> None:
    """Become the reaper of every orphaned descendant (Linux
    ``PR_SET_CHILD_SUBREAPER``), so :func:`reap_children` can wait for
    processes the program starts indirectly: the multiprocessing
    resource trackers of pool workers, probes and daemons."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_children(timeout: float = 30.0) -> None:
    """Wait until no child of this process is left.

    Closes this process's own resource-tracker pipe first (the tracker
    exits once it reads end of file); children still alive after
    *timeout* seconds are killed, and waited for too.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        with contextlib.suppress(OSError):
            os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in workloads.children(os.getpid()):
                with contextlib.suppress(OSError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def speed_probe() -> float:
    """Seconds one fixed pure-Python loop takes now: a record of how fast
    the (possibly shared) machine ran around the measurement."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - started


def measure(workload, seconds: float) -> list:
    """Repeat the workload's operation for about *seconds*.

    Another operation starts only if it should end less than half an
    operation past *seconds*; every workload makes at least its
    ``min_ops`` operations.
    """
    ops = []
    started = time.perf_counter()
    while len(ops) < workload.min_ops or (
        time.perf_counter() - started + ops[-1].wall / 2 < seconds
    ):
        if workload.tracer is not None:
            workload.tracer.run_id = f"{workload.name}-{workload.seed}-op{len(ops)}"
        workloads.reset_peaks(workloads.program_pids())
        op = workload.op(len(ops))
        op.peak_mb = sum(workloads.vm_hwm_mb(pid) for pid in workloads.program_pids())
        ops.append(op)
    return ops


def layer_metrics(workload, ops: list, untraced_ops: list) -> dict:
    """Per-layer self times and counts of the traced operations."""
    spans = workload.tracer.spans
    counters = dict(workload.tracer.counters)
    maxima = dict(workload.tracer.maxima)
    if workload.spans_path:
        spans_d, counters_d, maxima_d = tracer.Tracer.load(workload.spans_path)
        for name, value in tracer.self_times(spans_d).items():
            counters[SPAN_METRICS[name]] = value
        counters.update(counters_d)
        maxima.update(maxima_d)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, value in tracer.self_times(spans).items():
        metrics[SPAN_METRICS[name]] = value
    for name, value in {**counters, **maxima}.items():
        metrics[name] = value
    processed = metrics["core.events_processed"]
    metrics["core.admit_ratio"] = (
        metrics["core.events_admitted"] / processed if processed else 0.0
    )
    wall = sum(op.wall for op in ops)
    main_thread = threading.main_thread().ident
    metrics["traced_wall_s"] = wall
    metrics["other_s"] = wall - tracer.root_seconds(spans, main_thread)
    rate = workloads.rate
    metrics["untraced_events_per_s"] = rate(untraced_ops)
    metrics["traced_events_per_s"] = rate(ops)
    metrics["trace_overhead"] = rate(untraced_ops) / rate(ops)
    metrics["steal_share"] = workloads.steal_share(ops)
    return metrics


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record for .out)."""
    # Temporary files (campaign round traces) stay inside the checkout.
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    tempfile.tempdir = None
    env = dict(os.environ, PYTHONPATH=SRC)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, env, OUT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    try:
        workload.prepare(CACHE, SRC)
        setups = [workload.probe() for _ in range(SETUP_PROBES)]
        workload.start(traced=False)
        record["machine"]["speed_probe_s"] = [speed_probe()]
        ops = measure(workload, args.seconds)
        record["machine"]["speed_probe_s"].append(speed_probe())
        latencies = [value for op in ops for value in op.latencies]
        if args.trace:
            untraced = ops
            workload.start(traced=True)
            workload.tracer = tracer.Tracer()
            workload.tracer.recording = False
            patches = tracer.install(workload.tracer)
            try:
                ops = measure(workload, args.seconds)
            finally:
                patches.undo()
            workload.tracer.dump(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
        checks = workload.verify()
        daemon = workload.daemon_metrics()
        final_tcd = workload.final_tcd()
    finally:
        workload.stop()
    every = ops + checks + (untraced if args.trace else [])
    attempted = sum(op.attempted for op in every)
    failed = sum(op.failed for op in every)
    if args.trace:
        metrics = layer_metrics(workload, ops, untraced)
        metrics.update(daemon)
        for name in ("setup.import_s", "setup.daemon_ready_s", "setup.pool_start_s"):
            metrics[name] = median(layers.get(name, 0.0) for _, layers in setups)
        if metrics["other_s"] < 0:
            failed += 1
            ops[-1].problems.append("layer self times exceed the traced wall time")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median(seconds for seconds, _ in setups),
            "events_per_s": workloads.rate(ops),
            "push_p50_ms": workloads.percentile(latencies, 0.50),
            "push_p99_ms": workloads.percentile(latencies, 0.99),
            "final_tcd": final_tcd,
            # Memory grows from one analysis to the next in a warm pool,
            # so only the operations every run makes count.
            "peak_rss_mb": median(op.peak_mb for op in ops[:workload.min_ops]),
        }
        units = END_TO_END
    record.update(
        workload.info,
        operations=[{"wall_s": op.wall, "stolen_s": op.stolen, "events": op.events,
                     "peak_mb": op.peak_mb} for op in ops],
        wall_events_per_s=sum(op.events for op in ops) / sum(op.wall for op in ops),
        steal_share=workloads.steal_share(ops),
        latency_samples=len(latencies),
        problems=[p for op in every for p in op.problems],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    adopt_orphans()
    try:
        result, record = run(args)
    finally:
        reap_children()
    record["result"] = result
    name = f"{args.workload}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in record if key not in ("result", "problems")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
