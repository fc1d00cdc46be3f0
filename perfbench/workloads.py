"""The five workloads: their operations and the checks on their outputs.

Each workload drives the program the way a user does — through
``repro.cli.main`` or the obs HTTP client — and times one *operation*
at a time: one analysis, one campaign command, one push pass, or one
suite run.  Output checks run after each operation's timed window; a
failed check counts the operation as failed.

Every time the metrics use is *unstolen*: wall time minus the time the
hypervisor withheld from the CPUs doing the work (the ``steal`` column
of ``/proc/stat`` over the window, per CPU in use).  On a shared host
that share swings from a few percent to 40% within a minute and would
otherwise set every figure; raw wall times are kept beside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
#: round budget and fuzzer iterations of the campaign workload per size
CAMPAIGN = {"full": (5, 400), "tiny": (1, 40)}
#: campaign seeds one run covers (derived from the run's seed)
CAMPAIGN_SEEDS = 6
#: the paper-calibrated CrashMonkey open(O_RDONLY) count (Figure 2)
CRASHMONKEY_O_RDONLY = 7924
JOBS = 2
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _online_cpus() -> int:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return max(1, sum(1 for line in handle
                              if line[:3] == "cpu" and line[3:4].isdigit()))
    except OSError:
        return 1


_CPUS = _online_cpus()


def cpu_ticks() -> tuple[int, int, int]:
    """(steal, in use, all) clock ticks so far, summed over this
    machine's CPUs; in use is user, nice, system, irq, softirq and
    steal.  Zeros where ``/proc/stat`` does not report steal."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0, 0
    if len(fields) < 8:
        return 0, 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal, sum(fields)


def stolen_seconds(before: tuple, after: tuple) -> float:
    """Seconds the hypervisor withheld from the work between two
    :func:`cpu_ticks` readings: the steal divided by the number of CPUs
    in use on average, at least one.  An idle CPU accrues no steal, so
    dividing by every CPU would credit a one-process workload with half
    its stall.  Ticks are 10 ms, so a short window reads coarsely."""
    steal, in_use, total = (b - a for a, b in zip(before, after))
    if steal <= 0:
        return 0.0
    return steal / _CLK_TCK / max(1.0, _CPUS * in_use / total)


@dataclass
class Op:
    """One timed operation and what its checks found."""

    wall: float
    events: int
    #: seconds of *wall* the hypervisor withheld (see :func:`stolen_seconds`)
    stolen: float = 0.0
    attempted: int = 1
    failed: int = 0
    #: per-request latencies in ms (push-live); else the op's own wall
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: summed peak RSS of the program's processes during the op, MiB
    peak_mb: float = 0.0

    @property
    def seconds(self) -> float:
        """Unstolen seconds of the operation."""
        return self.wall - self.stolen


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of *pid* in MiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def children(pid: int) -> list[int]:
    """Live direct children of *pid*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def program_pids() -> list[int]:
    """This process and its live children (pool workers, daemon)."""
    return [os.getpid(), *children(os.getpid())]


def reset_peaks(pids: list[int]) -> None:
    """Restart VmHWM at the current RSS (Linux ``clear_refs`` 5).

    Where the kernel refuses, the peak simply stays cumulative.
    """
    for pid in pids:
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")


def strip_envelope(document: dict, *extra: str) -> dict:
    """The coverage payload of a ``--json`` envelope."""
    payload = dict(document)
    for key in ("command", "status", "exit_code", *extra):
        payload.pop(key, None)
    return payload


def run_cli(argv: list[str], clock) -> tuple[int, dict | None]:
    """Run ``repro <argv>`` in-process inside *clock*; parse its JSON."""
    from repro.cli import main

    out = io.StringIO()
    with clock, contextlib.redirect_stdout(out):
        code = main(argv)
    try:
        return code, json.loads(out.getvalue())
    except ValueError:
        return code, None


class Clock:
    """Times one operation; tracing records only inside the window."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.wall = 0.0
        self.stolen = 0.0

    def start(self) -> "Clock":
        if self.tracer is not None:
            self.tracer.recording = True
        self._ticks = cpu_ticks()
        self._started = time.perf_counter()
        return self

    def stop(self) -> None:
        self.wall = time.perf_counter() - self._started
        self.stolen = min(stolen_seconds(self._ticks, cpu_ticks()), self.wall)
        if self.tracer is not None:
            self.tracer.recording = False

    def __enter__(self) -> "Clock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def seconds(self) -> float:
        return self.wall - self.stolen


class Workload:
    """Base: a named workload over one seed."""

    name = ""
    probe_args: tuple[str, ...] = ("import",)
    #: operations every run makes, however long they take
    min_ops = 1
    #: spans a traced daemon wrote, if the workload ran one
    spans_path: str | None = None

    def __init__(self, seed: int, size: str, env: dict, out: str) -> None:
        self.seed = seed
        self.size = size
        self.env = env
        self.out = out
        self.tracer = None
        self.info: dict = {}
        self.final_payload: dict | None = None

    def prepare(self, cache: str, src: str) -> None:
        """Build or load inputs (outside every timed region)."""

    def probe(self) -> tuple[float, dict]:
        """Time one fresh interpreter until ready; (unstolen seconds,
        layer times)."""
        clock = Clock().start()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), *self.probe_args],
            stdout=subprocess.PIPE, env=self.env, text=True,
        ) as proc:
            line = proc.stdout.readline()
            clock.stop()
            proc.stdout.read()
            proc.wait(timeout=60)
        parts = line.split()
        if proc.returncode != 0 or not parts or parts[0] != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        return clock.seconds, {"setup.import_s": float(parts[1]),
                               "setup.pool_start_s": float(parts[2])}

    def start(self, traced: bool) -> None:
        """In-process warm-up before the first timed operation."""

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def final_tcd(self) -> float:
        from repro.campaign.runner import aggregate_tcd
        from repro.core.report import CoverageReport

        return aggregate_tcd(CoverageReport.from_dict(self.final_payload))

    def verify(self) -> list[Op]:
        """Extra checks after the timed operations (counted as operations)."""
        return []

    def daemon_metrics(self) -> dict:
        return {}

    def stop(self) -> None:
        """Stop every process the workload started."""


class Analyze(Workload):
    """Serial ``repro analyze --json`` of the noisy xfstests trace."""

    name = "analyze"
    jobs: int | None = None
    #: whether the input is also split into push pieces
    pieces = False
    input_dir = ""

    def prepare(self, cache: str, src: str) -> None:
        cached = inputs.ensure(cache, src, self.seed, self.size)
        self.input_dir = os.path.join(self.out, f"{self.name}-input")
        self.meta, self.reference = inputs.materialize(cached, self.input_dir, self.pieces)
        self.info["input"] = self.meta

    def stop(self) -> None:
        shutil.rmtree(self.input_dir, ignore_errors=True)

    def check_coverage(self, payload: dict, problems: list[str]) -> None:
        """Payload equals the in-memory reference; events are conserved."""
        if payload != self.reference:
            problems.append("coverage differs from the in-memory reference")
        if payload.get("events_processed") != self.meta["total_events"]:
            problems.append("events_processed differs from the generated total")
        if payload.get("events_admitted") != self.meta["clean_admitted"]:
            problems.append("noise changed events_admitted")

    def op(self, index: int) -> Op:
        argv = ["analyze", os.path.join(self.input_dir, "trace.lttng.txt"),
                "--mount", self.meta["mount"], "--name", self.meta["name"], "--json"]
        if self.jobs:
            argv += ["--jobs", str(self.jobs)]
        clock = Clock(self.tracer)
        code, document = run_cli(argv, clock)
        result = Op(wall=clock.wall, events=self.meta["total_events"],
                    stolen=clock.stolen)
        if code != 0 or document is None:
            result.problems.append(f"exit code {code}")
        else:
            parse = document.get("parse") or {}
            if parse.get("malformed_lines") or parse.get("skipped_lines"):
                result.problems.append(f"parser dropped lines: {parse}")
            if self.jobs:
                self.info["jobs"] = document.get("jobs")
            self.final_payload = strip_envelope(document, "parse", "jobs")
            self.check_coverage(self.final_payload, result.problems)
        result.failed = 1 if result.problems else 0
        result.latencies.append(clock.seconds * 1e3)
        return result


class AnalyzeJobs2(Analyze):
    """The same analysis through ``--jobs 2`` (the persistent pool)."""

    name = "analyze-jobs2"
    jobs = JOBS
    probe_args = ("pool", str(JOBS))

    def start(self, traced: bool) -> None:
        from repro.parallel import get_pool

        pool = get_pool(self.jobs)
        for worker in range(pool.workers):
            pool.ping(worker)

    def stop(self) -> None:
        from repro.parallel import shutdown_pool

        shutdown_pool()
        super().stop()


class Campaign(Workload):
    """``repro campaign``: rounds of fuzz → trace → analyze → re-weight.

    A run cycles through :data:`CAMPAIGN_SEEDS` campaign seeds derived
    from the run's seed, each at least once: how much memory and time a
    campaign takes depends on which programs its seed generates, and one
    campaign seed alone would make a run's figures that seed's.
    """

    name = "campaign"

    def prepare(self, cache: str, src: str) -> None:
        self.rounds, self.iterations = CAMPAIGN[self.size]
        self.seeds = [self.seed * CAMPAIGN_SEEDS + i for i in range(CAMPAIGN_SEEDS)]
        self.min_ops = len(self.seeds)
        self.digests: dict[int, str] = {}
        self.tcds: list[float] = []
        self.info["input"] = {"campaign_seeds": self.seeds, "rounds": self.rounds,
                              "iterations": self.iterations}

    def argv(self, seed: int) -> list[str]:
        return ["campaign", "--seed", str(seed), "--rounds", str(self.rounds),
                "--iterations", str(self.iterations), "--json"]

    def check(self, seed: int, code: int, document: dict | None,
              problems: list[str]) -> None:
        if code not in (0, 1) or document is None:
            problems.append(f"exit code {code}")
            return
        trajectory = document["tcd_trajectory"]
        if any(later > earlier for earlier, later in zip(trajectory, trajectory[1:])):
            problems.append(f"TCD trajectory increased: {trajectory}")
        if trajectory[-1] != document["final_tcd"]:
            problems.append("final_tcd is not the last trajectory point")
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest()
        known = self.digests.setdefault(seed, digest)
        if digest != known:
            problems.append(f"campaign --seed {seed} envelope changed between runs")
        self.info["envelope_sha256"] = self.digests

    def op(self, index: int) -> Op:
        seed = self.seeds[index % len(self.seeds)]
        clock = Clock(self.tracer)
        code, document = run_cli(self.argv(seed), clock)
        rounds = len(document["rounds"]) if document else self.rounds + 1
        result = Op(
            wall=clock.wall,
            events=sum(r["events"] for r in document["rounds"]) if document else 0,
            attempted=rounds,
            stolen=clock.stolen,
        )
        self.check(seed, code, document, result.problems)
        if document is not None:
            self.tcds.append(document["final_tcd"])
        result.failed = rounds if result.problems else 0
        result.latencies.append(clock.seconds * 1e3)
        return result

    def verify(self) -> list[Op]:
        """Re-run the campaign counting what each round's fuzzer recorded.

        Every round must analyse exactly the events its fuzzer recorded,
        and the re-run's envelope must match the measured runs'.
        """
        from repro.testsuites.fuzzer import CoverageGuidedFuzzer

        seed = self.seeds[0]
        recorded: list[int] = []
        original = CoverageGuidedFuzzer.__dict__["run"]

        def counting_run(fuzzer, *args, **kwargs):
            report = original(fuzzer, *args, **kwargs)
            recorded.append(len(fuzzer.all_events))
            return report

        CoverageGuidedFuzzer.run = counting_run
        try:
            clock = Clock()
            code, document = run_cli(self.argv(seed), clock)
        finally:
            CoverageGuidedFuzzer.run = original
        result = Op(wall=clock.wall, events=0, attempted=max(1, len(recorded)))
        self.check(seed, code, document, result.problems)
        if document is not None and recorded != [r["events"] for r in document["rounds"]]:
            result.problems.append(
                f"rounds analysed {[r['events'] for r in document['rounds']]} "
                f"events but the fuzzer recorded {recorded}"
            )
        result.failed = result.attempted if result.problems else 0
        return [result]

    def final_tcd(self) -> float:
        return median(self.tcds)


class SuitesCrashMonkey(Workload):
    """``repro suites --suite crashmonkey --scale 1.0``: the paper's path."""

    name = "suites-crashmonkey"
    #: one suite run takes longer than a run's --seconds; two average
    #: over the host's speed swings, which last about as long as one
    min_ops = 2

    def prepare(self, cache: str, src: str) -> None:
        self.argv = ["suites", "--suite", "crashmonkey", "--scale", "1.0",
                     "--seed", str(self.seed), "--json"]
        self.info["input"] = {"seed": self.seed, "suite": "crashmonkey", "scale": 1.0}

    def op(self, index: int) -> Op:
        clock = Clock(self.tracer)
        code, document = run_cli(self.argv, clock)
        result = Op(wall=clock.wall, events=0, stolen=clock.stolen)
        if code != 0 or document is None:
            result.problems.append(f"exit code {code}")
        else:
            run = document["runs"][0]
            coverage = run["coverage"]
            result.events = run["events"]
            self.info["events"] = run["events"]
            o_rdonly = coverage["input_coverage"]["open"]["flags"]["O_RDONLY"]
            if o_rdonly != CRASHMONKEY_O_RDONLY:
                result.problems.append(
                    f"O_RDONLY count {o_rdonly}, paper {CRASHMONKEY_O_RDONLY}"
                )
            if coverage["events_processed"] != run["events"]:
                result.problems.append("events_processed differs from the suite's events")
            self.final_payload = coverage
        result.failed = 1 if result.problems else 0
        result.latencies.append(clock.seconds * 1e3)
        return result


class PushLive(Analyze):
    """``repro serve`` in its own process; one client pushes the trace
    in ~1,000 closed-loop ``push_file`` calls, then ``POST /runs`` and
    ``GET /live``.  Each operation is one such pass, under a fresh
    tenant so every pass starts from empty coverage."""

    name = "push-live"
    pieces = True

    def prepare(self, cache: str, src: str) -> None:
        self.daemon: subprocess.Popen | None = None
        #: every daemon started, with its store path, for stop()
        self.daemons: list[tuple[subprocess.Popen, str]] = []
        super().prepare(cache, src)
        directory = os.path.join(self.input_dir, "pieces")
        self.piece_paths = [os.path.join(directory, n) for n in sorted(os.listdir(directory))]

    def _spawn(self, traced: bool) -> tuple[subprocess.Popen, float]:
        """Start a daemon; returns it and the unstolen seconds until
        /healthz is ok."""
        from repro.obs.client import fetch_json

        store = os.path.join(self.out, f"serve-{len(self.daemons)}.sqlite")
        serve = ["serve", "--port", "0", "--mount", self.meta["mount"],
                 "--name", self.meta["name"], "--store", store]
        if traced:
            self.spans_path = os.path.join(self.out, "daemon-spans.jsonl")
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    self.spans_path, *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        log = open(os.path.join(self.out, "serve.log"), "a", encoding="utf-8")
        clock = Clock().start()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                env=self.env, text=True)
        log.close()
        self.daemons.append((proc, store))
        line = proc.stdout.readline()
        if "serving on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split("http://", 1)[1].split()[0]
        deadline = started + 60
        while time.perf_counter() < deadline:
            with contextlib.suppress(OSError):
                if fetch_json(self.url, "/healthz", timeout=5).get("status") == "ok":
                    clock.stop()
                    return proc, clock.seconds
            time.sleep(0.002)
        raise RuntimeError("daemon never answered /healthz")

    def probe(self) -> tuple[float, dict]:
        ready, layers = super().probe()
        if self.daemon is not None:
            self._halt(self.daemon)
        self.daemon, daemon_ready = self._spawn(traced=False)
        layers["setup.daemon_ready_s"] = daemon_ready
        return ready + daemon_ready, layers

    def start(self, traced: bool) -> None:
        if traced:
            self._halt(self.daemon)
            self.daemon, _ = self._spawn(traced=True)

    def _http(self, method: str, path: str) -> tuple[int, bytes]:
        host, port = self.url.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def op(self, index: int) -> Op:
        from repro.obs import client

        tenant = f"pass{index}"
        latencies = []
        failed = 0
        problems: list[str] = []
        clock = Clock(self.tracer)
        with clock:
            for piece in self.piece_paths:
                push = Clock().start()
                try:
                    client.push_file(self.url, piece, tenant=tenant, retries=0)
                except (OSError, client.PushError) as exc:
                    failed += 1
                    problems.append(f"push failed: {exc}")
                push.stop()
                latencies.append(push.seconds * 1e3)
            try:
                status, _ = self._http("POST", client.tenant_path("/runs", tenant, None))
            except OSError as exc:
                status = f"nothing ({exc})"
            try:
                live = client.fetch_json(self.url, "/live", tenant=tenant)
            except (OSError, client.PushError) as exc:
                live = None
                problems.append(f"GET /live failed: {exc}")
        if status != 201:
            failed += 1
            problems.append(f"POST /runs answered {status}")
        if live is None:
            failed += 1
        else:
            self.final_payload = live
            before = len(problems)
            self.check_coverage(live, problems)
            failed += len(problems) > before
        return Op(wall=clock.wall, events=self.meta["total_events"],
                  stolen=clock.stolen, attempted=len(self.piece_paths) + 2, failed=failed,
                  latencies=latencies, problems=problems)

    def daemon_metrics(self) -> dict:
        """obs.ingest.* from the daemon's Prometheus ``/metrics``."""
        _, body = self._http("GET", "/metrics")
        totals = {"iocov_ingest_batch_seconds_sum": 0.0,
                  "iocov_ingest_events_total": 0.0,
                  "iocov_parse_errors_total": 0.0}
        for line in body.decode("utf-8").splitlines():
            name = line.split("{", 1)[0].split(" ", 1)[0]
            if name in totals:
                totals[name] += float(line.rsplit(" ", 1)[1])
        return {"obs.ingest.batch_s": totals["iocov_ingest_batch_seconds_sum"],
                "obs.ingest.events": totals["iocov_ingest_events_total"],
                "obs.ingest.parse_errors": totals["iocov_parse_errors_total"]}

    def _halt(self, proc: subprocess.Popen) -> None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def stop(self) -> None:
        for proc, store in self.daemons:
            if proc.poll() is None:
                self._halt(proc)
            elif proc.stdout and not proc.stdout.closed:
                proc.stdout.close()
            for suffix in ("", ".lock", "-wal", "-shm", "-journal"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(store + suffix)
        self.daemons.clear()
        self.daemon = None
        super().stop()


WORKLOADS = {cls.name: cls for cls in (
    Analyze, AnalyzeJobs2, Campaign, PushLive, SuitesCrashMonkey)}


def percentile(values: list[float], share: float) -> float:
    """Inclusive-method percentile (*share* in 0..1) of *values*."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def rate(ops: list[Op]) -> float:
    """Events per unstolen second over all *ops* together."""
    return sum(op.events for op in ops) / sum(op.seconds for op in ops)


def steal_share(ops: list[Op]) -> float:
    """Share of the wall time of *ops* the hypervisor withheld."""
    return sum(op.stolen for op in ops) / sum(op.wall for op in ops)

