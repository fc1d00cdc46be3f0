"""Pool lifecycle: warm reuse, crash containment, clean shutdown.

The persistent-pool guarantees the shard executor builds on: a second
call pays no startup, a dead worker fails only its own futures and is
respawned in its slot, sequential fallback preserves exact parity when
the pool is gone, and shutdown — including the SIGTERM path — leaves
no worker process behind.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.core import IOCov
from repro.parallel import run_sharded, shard_spans
from repro.parallel.executor import _stitch_and_merge
from repro.parallel.pool import (
    PoolClosedError,
    PoolError,
    PoolUnavailableError,
    WorkerCrashError,
    WorkerPool,
    get_pool,
    pool_is_warm,
    shutdown_pool,
)
from repro.parallel.worker import ShardTask, analyze_shard
from repro.trace.events import make_event
from repro.trace.lttng import LttngWriter

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mini.lttng.txt")
MOUNT = "/mnt/test"


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


def _fixture_task() -> ShardTask:
    """The whole mini fixture as one shard span."""
    return ShardTask(0, FIXTURE, 0, os.path.getsize(FIXTURE), "lttng", MOUNT)


# -- warm reuse ------------------------------------------------------------------


def test_ping_round_trips_per_worker(pool):
    for worker in range(pool.workers):
        assert pool.ping(worker) < 5.0
    stats = pool.stats()
    assert stats["dispatches"] == pool.workers
    assert stats["respawns"] == 0


def test_global_pool_warm_reuse():
    shutdown_pool()
    assert not pool_is_warm()
    first = get_pool(2)
    try:
        first.ping(0)
        assert pool_is_warm()
        started = time.perf_counter()
        second = get_pool(2)
        warm_acquire = time.perf_counter() - started
        assert second is first  # same processes: zero startup paid
        # A warm acquire is a lock grab, not a process launch.
        assert warm_acquire < 0.001
        assert second.stats()["respawns"] == 0
    finally:
        shutdown_pool()


def test_global_pool_grows_on_demand():
    shutdown_pool()
    first = get_pool(1)
    try:
        assert first.workers == 1
        grown = get_pool(3)
        assert grown is first
        assert grown.workers == 3
        for worker in range(3):
            grown.ping(worker)
    finally:
        shutdown_pool()


def _open_close_trace(tmp_path, pairs: int) -> str:
    """An LTTng trace of *pairs* openat/close pairs under the mount."""
    events = []
    for i in range(pairs):
        events.append(
            make_event(
                "openat",
                {"dfd": -100, "pathname": f"/mnt/test/f{i % 13}", "flags": 0,
                 "mode": 0o644},
                3 + i % 7,
                pid=1,
            )
        )
        events.append(make_event("close", {"fd": 3 + i % 7}, 0, pid=1))
    path = tmp_path / "t.lttng.txt"
    with open(path, "w") as handle:
        LttngWriter().write(events, handle)
    return str(path)


def test_run_sharded_reuses_warm_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    path = _open_close_trace(tmp_path, 24000)
    serial = IOCov(mount_point=MOUNT, suite_name="s")
    serial.consume_lttng_file(path)
    shutdown_pool()
    try:
        cold: dict = {}
        report = run_sharded(
            path, jobs=2, mount_point=MOUNT, suite_name="s", stats=cold
        )
        assert report.to_dict() == serial.report().to_dict()
        assert cold["pool"]["warm"] is False
        assert cold["pool"]["cold_start_seconds"] is not None
        warm: dict = {}
        report = run_sharded(
            path, jobs=2, mount_point=MOUNT, suite_name="s", stats=warm
        )
        assert report.to_dict() == serial.report().to_dict()
        assert warm["pool"]["warm"] is True
        assert warm["pool"]["cold_start_seconds"] is None
    finally:
        shutdown_pool()


def test_workers_read_their_own_spans(pool):
    tasks = [
        ShardTask(index, FIXTURE, start, end, "lttng", MOUNT)
        for index, (start, end) in enumerate(shard_spans(FIXTURE, 2, min_shard_bytes=1))
    ]
    futures = [pool.submit_shard(task, worker=task.index) for task in tasks]
    results = [future.result(timeout=30) for future in futures]
    # The later span's deferred rows cross the queue as an .rbt frame.
    assert results[1].deferred_blob is not None
    report = _stitch_and_merge(results, MOUNT, "s").report()
    serial = IOCov(mount_point=MOUNT, suite_name="s")
    serial.consume_lttng_file(FIXTURE)
    assert report.to_dict() == serial.report().to_dict()


# -- crash containment -----------------------------------------------------------


def test_worker_crash_fails_inflight_and_respawns(pool):
    victim = pool._workers[0].process
    victim.kill()
    victim.join()
    # The task lands on the dead worker's queue before the reaper runs
    # (it polls every 100 ms); its future must fail, not hang.
    future = pool.submit_shard(_fixture_task(), worker=0)
    with pytest.raises(WorkerCrashError):
        future.result(timeout=30)
    deadline = time.time() + 10
    while pool.stats()["respawns"] == 0 and time.time() < deadline:
        time.sleep(0.05)
    assert pool.stats()["respawns"] >= 1
    assert pool._workers[0].process is not victim
    # The respawned worker serves the same slot.
    assert pool.ping(0) < 10.0


def test_crash_only_fails_futures_on_the_dead_worker(pool):
    pool._workers[0].process.kill()
    pool._workers[0].process.join()
    task = _fixture_task()
    doomed = pool.submit_shard(task, worker=0)
    healthy = pool.submit_shard(task, worker=1)
    assert healthy.result(timeout=30).events_processed == (
        analyze_shard(task).events_processed
    )
    with pytest.raises(WorkerCrashError):
        doomed.result(timeout=30)


def test_run_sharded_falls_back_sequential_on_pool_error(tmp_path, monkeypatch):
    from repro.parallel import executor

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(executor, "MIN_SHARD_EVENTS", 0)
    monkeypatch.setattr(executor, "MIN_SHARD_EVENTS_WARM", 0)

    def broken_pool(jobs):
        raise PoolUnavailableError("no subprocesses on this platform")

    monkeypatch.setattr(executor, "get_pool", broken_pool)
    serial = IOCov(mount_point=MOUNT, suite_name="s")
    serial.consume_lttng_file(FIXTURE)
    stats: dict = {}
    report = run_sharded(
        FIXTURE,
        jobs=2,
        mount_point=MOUNT,
        suite_name="s",
        min_shard_bytes=256,
        stats=stats,
    )
    assert stats["sequential_fallback"] is True
    assert stats["fallback_reason"] == "PoolUnavailableError"
    assert report.to_dict() == serial.report().to_dict()
    assert stats["parse"] == serial.parse_stats


def test_submit_after_shutdown_raises(pool):
    pool.shutdown()
    with pytest.raises(PoolClosedError):
        pool.submit_shard(_fixture_task(), worker=0)


def test_shutdown_fails_inflight_futures():
    pool = WorkerPool(1)
    futures = [pool.submit_shard(_fixture_task(), worker=0) for _ in range(50)]
    pool.shutdown()
    for future in futures:
        try:
            future.result(timeout=10)
        except PoolError:
            pass  # PoolClosedError for anything the worker never answered


def test_shutdown_delivers_a_result_larger_than_the_pipe(tmp_path):
    # A worker cannot exit while its answer sits unread in the result
    # pipe, so shutdown must keep draining until the workers are gone.
    path = _open_close_trace(tmp_path, 6000)
    spans = shard_spans(path, 2, min_shard_bytes=1)
    task = ShardTask(1, path, *spans[1], "lttng", MOUNT)
    pool = WorkerPool(1)
    future = pool.submit_shard(task, worker=0)
    started = time.perf_counter()
    pool.shutdown(timeout=30)
    assert time.perf_counter() - started < 15
    result = future.result(timeout=1)
    assert len(pickle.dumps(result)) > 1 << 16  # more than a pipe buffer
    assert result.events_processed == analyze_shard(task).events_processed


# -- clean shutdown (the SIGTERM path) -------------------------------------------

_SIGTERM_SCRIPT = """
import os, signal, sys
from repro.parallel.pool import get_pool

pool = get_pool(2)
signal.signal(signal.SIGTERM, lambda s, f: sys.exit(0))  # atexit runs shutdown_pool
for worker in range(pool.workers):
    pool.ping(worker)
print("PIDS=" + " ".join(str(w.process.pid) for w in pool._workers), flush=True)
os.kill(os.getpid(), signal.SIGTERM)
signal.pause()
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_shutdown_leaves_no_worker_alive():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    process = subprocess.run(
        [sys.executable, "-c", _SIGTERM_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert process.returncode == 0, process.stderr
    pids = [
        int(pid)
        for line in process.stdout.splitlines()
        if line.startswith("PIDS=")
        for pid in line.split("=", 1)[1].split()
    ]
    assert len(pids) == 2
    # The atexit hook joined every worker before the parent exited.
    assert [pid for pid in pids if _alive(pid)] == []
