"""Persistent worker pool behind ``repro analyze --jobs``.

:class:`WorkerPool` serves one caller, :func:`~repro.parallel.run_sharded`.
Its point is **spawn-once, stay warm**: workers are OS processes started
once (fork preferred: the ~18 ms/worker import cost is paid a single
time) and reused across every later call, so a warm dispatch is a queue
put, not a process launch.

A shard task is a :class:`~repro.parallel.worker.ShardTask` — a path
and a byte span.  The worker reads its own span from the trace file
and answers with the pickled :class:`~repro.parallel.worker.ShardResult`
(tallies, stitch residue, and the deferred rows as one encoded ``.rbt``
frame).  Only those descriptors and results ride the queues; the span
bytes never pass through the parent.

:meth:`WorkerPool.submit_shard` returns a :class:`PoolFuture` at once,
so the caller can fold results together in completion order.

Failure containment: a dead worker fails only the futures routed to it
(:class:`WorkerCrashError`) and is respawned in the same slot; the
shard executor answers with its sequential fallback, so parity is never
at risk.  :func:`shutdown_pool` stops the process-global pool and is
wired to ``atexit``.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import queue
import threading
import time
from typing import Any, Callable

from repro.parallel.worker import ShardTask, analyze_shard

#: Result-queue poll interval; also how often dead workers are reaped.
_POLL_SECONDS = 0.1

#: Grace given to workers to drain their queues at shutdown.
_JOIN_SECONDS = 5.0


class PoolError(RuntimeError):
    """Base class for worker-pool failures."""


class PoolUnavailableError(PoolError):
    """The platform cannot run pool workers (no subprocesses allowed)."""


class WorkerCrashError(PoolError):
    """The worker a task was routed to died before answering."""


class PoolClosedError(PoolError):
    """The pool was shut down while the task was in flight."""


class PoolFuture:
    """Minimal completion handle for one pool task."""

    __slots__ = ("_done", "_result", "_error", "_callbacks", "_lock")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["PoolFuture"], None]] = []
        self._lock = threading.Lock()

    def _resolve(self, result: Any = None, error: BaseException | None = None) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._result = result
            self._error = error
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback: Callable[["PoolFuture"], None]) -> None:
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def result(self, timeout: float | None = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("pool task did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


# -- the worker side -----------------------------------------------------------


def _worker_main(task_queue, result_queue) -> None:
    """One pool worker: loop over tasks until the ``None`` sentinel.

    Runs with ``repro`` fully imported (inherited via fork, or imported
    once at spawn) — the whole point of the persistent pool.
    """
    while True:
        task = task_queue.get()
        if task is None:
            return
        kind, task_id, payload = task
        try:
            if kind == "shard":
                answer = analyze_shard(payload)
            elif kind == "ping":
                answer = payload
            else:
                raise ValueError(f"unknown pool task kind {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                result_queue.put((task_id, False, f"{type(exc).__name__}: {exc}"))
            except Exception:
                return
        else:
            result_queue.put((task_id, True, answer))


# -- the parent side -----------------------------------------------------------


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("index", "process", "task_queue", "inflight")

    def __init__(self, index: int, process, task_queue) -> None:
        self.index = index
        self.process = process
        self.task_queue = task_queue
        #: task ids routed to this worker and not yet answered
        self.inflight: set[int] = set()


class WorkerPool:
    """A persistent pool of analysis worker processes.

    Args:
        workers: number of worker processes.

    Raises:
        PoolUnavailableError: the platform refuses subprocesses.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.closed = False
        self.dispatches = 0
        self.respawns = 0
        started = time.perf_counter()
        self._lock = threading.Lock()  # guards futures/workers
        self._task_ids = itertools.count()
        self._futures: dict[int, PoolFuture] = {}
        self._result_queue = self._ctx.Queue()
        self._stopped = threading.Event()
        self._workers: list[_Worker] = []
        try:
            for index in range(workers):
                self._workers.append(self._spawn(index))
        except (OSError, PermissionError) as exc:
            self._abandon()
            raise PoolUnavailableError(f"cannot start pool workers: {exc}") from exc
        self.cold_start_seconds = time.perf_counter() - started
        self._collector = threading.Thread(
            target=self._collect, name="iocov-pool-collector", daemon=True
        )
        self._collector.start()

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_queue, self._result_queue),
            name=f"iocov-worker-{index}",
            daemon=True,
        )
        process.start()
        return _Worker(index, process, task_queue)

    def _abandon(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()

    @property
    def workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def grow(self, workers: int) -> None:
        """Add workers until the pool has at least *workers* of them."""
        with self._lock:
            if self.closed:
                raise PoolClosedError("pool is shut down")
            while len(self._workers) < workers:
                self._workers.append(self._spawn(len(self._workers)))

    def shutdown(self, timeout: float = _JOIN_SECONDS) -> None:
        """Stop every worker; fail every future still in flight.

        Idempotent; also runs via ``atexit`` for the global pool.  The
        collector keeps draining results until the workers have exited:
        a worker cannot exit while its last answer is still unread in
        the result pipe.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
        self._stopped.set()
        self._collector.join()
        with self._lock:
            futures = list(self._futures.values())
            self._futures.clear()
        for future in futures:
            future._resolve(error=PoolClosedError("pool is shut down"))
        for worker in workers:
            worker.task_queue.close()
        self._result_queue.close()

    # -- submission -----------------------------------------------------------

    def _submit(self, kind: str, payload: Any, worker: int) -> PoolFuture:
        """Route one task to *worker*; returns its future."""
        with self._lock:
            if self.closed:
                raise PoolClosedError("pool is shut down")
            record = self._workers[worker % len(self._workers)]
            task_id = next(self._task_ids)
            future = PoolFuture()
            self._futures[task_id] = future
            record.inflight.add(task_id)
            self.dispatches += 1
        try:
            record.task_queue.put((kind, task_id, payload))
        except BaseException as exc:
            with self._lock:
                self._futures.pop(task_id, None)
                record.inflight.discard(task_id)
            future._resolve(error=exc if isinstance(exc, PoolError) else
                            PoolError(f"task submission failed: {exc}"))
        return future

    def submit_shard(self, task: ShardTask, *, worker: int) -> PoolFuture:
        """Analyze one shard span; the worker reads it from ``task.path``."""
        return self._submit("shard", task, worker)

    def ping(self, worker: int = 0) -> float:
        """Round-trip one no-op task; returns the wall seconds it took."""
        started = time.perf_counter()
        self._submit("ping", started, worker).result(timeout=30)
        return time.perf_counter() - started

    # -- completion -----------------------------------------------------------

    def _collect(self) -> None:
        """Drain results, resolve futures, reap and respawn dead workers."""
        while not self._stopped.is_set():
            try:
                task_id, ok, answer = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                self._reap_dead()
                continue
            except (OSError, EOFError, ValueError):
                return
            with self._lock:
                future = self._futures.pop(task_id, None)
                for worker in self._workers:
                    worker.inflight.discard(task_id)
            if future is None:
                continue  # already failed: a worker crash raced its result
            if ok:
                future._resolve(result=answer)
            else:
                future._resolve(error=PoolError(f"worker task failed: {answer}"))

    def _reap_dead(self) -> None:
        """Fail futures routed to dead workers; respawn the workers."""
        crashed: list[tuple[_Worker, list[PoolFuture]]] = []
        with self._lock:
            for slot, worker in enumerate(self._workers):
                if worker.process.is_alive() or self.closed:
                    continue
                failed = []
                for task_id in sorted(worker.inflight):
                    future = self._futures.pop(task_id, None)
                    if future is not None:
                        failed.append(future)
                worker.inflight.clear()
                self._workers[slot] = self._spawn(worker.index)
                self.respawns += 1
                crashed.append((worker, failed))
        for worker, failed in crashed:
            worker.task_queue.close()
            for future in failed:
                future._resolve(error=WorkerCrashError(
                    f"worker {worker.index} died with the task in flight"
                ))

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "workers": len(self._workers),
                "dispatches": self.dispatches,
                "respawns": self.respawns,
                "inflight": sum(len(w.inflight) for w in self._workers),
                "cold_start_seconds": round(self.cold_start_seconds, 4),
            }


# -- the process-global pool ----------------------------------------------------

_global_pool: WorkerPool | None = None
_global_lock = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The process-wide pool, created on first use and grown on demand.

    ``repro analyze --jobs`` calls land here so repeated invocations in
    one process (benchmarks, library users, the campaign loop) pay pool
    startup exactly once.

    Raises:
        PoolUnavailableError: worker processes cannot be started.
    """
    global _global_pool
    with _global_lock:
        if _global_pool is not None and _global_pool.closed:
            _global_pool = None
        if _global_pool is None:
            _global_pool = WorkerPool(workers)
            atexit.register(shutdown_pool)
        elif _global_pool.workers < workers:
            _global_pool.grow(workers)
        return _global_pool


def pool_is_warm() -> bool:
    """True when the process-global pool is already running."""
    with _global_lock:
        return _global_pool is not None and not _global_pool.closed


def shutdown_pool() -> None:
    """Shut the process-global pool down (idempotent; atexit-wired)."""
    global _global_pool
    with _global_lock:
        pool, _global_pool = _global_pool, None
    if pool is not None:
        pool.shutdown()
