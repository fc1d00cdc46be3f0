"""Seeded input builder: the noisy xfstests LTTng trace and its push split.

From one seed this builds, in a cache directory of its own:

* ``trace.lttng.txt.gz`` — an xfstests run (LTTng text) with about a
  quarter extra noise events mixed in: foreign processes opening,
  reading and writing files outside the mount point (their fd numbers
  collide with the tester's), as a whole-system capture would hold;
* ``reference.json`` — the coverage payload of the noisy events counted
  in memory (no text round trip), which every ingest path must match;
* ``meta.json`` — input size (events, noise share) and the
  admitted-event count of the clean trace.

:func:`materialize` unpacks the trace for a run and, for push-live,
splits it on event boundaries into about 1,000 files, one per
``push_file`` call.  Run the builder as ``python3 perfbench/inputs.py
--seed 7 --out DIR``; the benchmark calls :func:`ensure`, which keeps
built seeds cached.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

MOUNT = "/mnt/test"
NAME = "xfstests-noisy"
NOISE_SHARE = 0.25
PIECES = 1000
#: xfstests scale per input size (``tiny`` is for the self-tests)
SCALES = {"full": 0.01, "tiny": 0.0005}
#: seeds kept in the cache before the oldest is evicted (~3.5 MB each)
CACHE_KEEP = 64
TRACE = "trace.lttng.txt"

#: out-of-scope paths a whole-system capture would show (note the
#: prefix-but-not-mount siblings of /mnt/test)
_NOISE_FILES = (
    "/usr/lib/libc.so.6", "/usr/lib/libz.so.1", "/etc/ld.so.cache",
    "/proc/self/stat", "/var/log/xfstests/check.log", "/tmp/fsx.out",
    "/mnt/test2/stale", "/mnt/testing/old.img",
)
_NOISE_COMMS = ("journald", "bash", "sshd", "check")


def _noise_events(count: int, rng: random.Random) -> list:
    """*count* out-of-scope events from foreign pids on a scratch VFS."""
    from repro.trace.recorder import TraceRecorder
    from repro.vfs import constants
    from repro.vfs.fd import FdTable, Process, SystemFileTable
    from repro.vfs.filesystem import FileSystem
    from repro.vfs.path import Credentials
    from repro.vfs.syscalls import SyscallInterface

    fs = FileSystem()
    root = SyscallInterface(fs)
    for path in _NOISE_FILES:
        parts = path.split("/")[1:-1]
        for depth in range(1, len(parts) + 1):
            root.mkdir("/" + "/".join(parts[:depth]), 0o777)
        fd = root.open(path, constants.O_WRONLY | constants.O_CREAT, 0o666).retval
        root.write(fd, count=8192)
        root.close(fd)
    recorder = TraceRecorder()
    procs = []
    for index, comm in enumerate(_NOISE_COMMS):
        process = Process(
            creds=Credentials(uid=0, gid=0),
            fd_table=FdTable(SystemFileTable()),
            cwd_ino=fs.root_ino,
            pid=4000 + index,
            comm=comm,
        )
        sc = SyscallInterface(fs, process=process)
        recorder.attach(sc)
        procs.append(sc)
    while len(recorder) < count:
        sc = rng.choice(procs)
        path = rng.choice(_NOISE_FILES)
        kind = rng.random()
        if kind < 0.6:
            flags = rng.choice((
                constants.O_RDONLY,
                constants.O_RDONLY | constants.O_CLOEXEC,
                constants.O_WRONLY | constants.O_APPEND,
            ))
            fd = sc.open(path, flags).retval
            for _ in range(rng.randint(1, 4)):
                if flags & constants.O_WRONLY:
                    sc.write(fd, count=rng.choice((64, 512, 4096)))
                else:
                    sc.read(fd, rng.choice((64, 832, 4096)))
            if rng.random() < 0.3:
                sc.lseek(fd, 0, rng.randint(0, 2))
            sc.close(fd)
        elif kind < 0.8:
            sc.stat(path)
        elif kind < 0.9:
            sc.access(path, 4)
        else:
            sc.mkdir(f"/tmp/d{rng.randrange(1 << 20)}", 0o755)
    return recorder.drain()[:count]


def _mix(clean: list, noise: list, rng: random.Random) -> list:
    """Interleave *noise* into *clean* at seeded positions."""
    slots = sorted(rng.randrange(len(clean) + 1) for _ in noise)
    mixed = []
    cursor = 0
    for event, slot in zip(noise, slots):
        mixed.extend(clean[cursor:slot])
        cursor = slot
        stamp = clean[slot - 1].timestamp if slot else 0
        mixed.append(dataclasses.replace(event, timestamp=stamp))
    mixed.extend(clean[cursor:])
    return mixed


def build(seed: int, size: str, out: str) -> dict:
    """Build the inputs for *seed* into the directory *out*."""
    from repro.core import IOCov
    from repro.testsuites import SuiteRunner, XfstestsSuite
    from repro.trace.lttng import LttngWriter

    rng = random.Random(seed)
    clean = SuiteRunner(XfstestsSuite(scale=SCALES[size], seed=seed)).run().events
    noise = _noise_events(round(len(clean) * NOISE_SHARE), rng)
    events = _mix(clean, noise, rng)

    os.makedirs(out)
    trace = os.path.join(out, TRACE + ".gz")
    with gzip.open(trace, "wt", encoding="utf-8", compresslevel=1) as handle:
        lines = LttngWriter().write(events, handle)
    reference = IOCov(mount_point=MOUNT, suite_name=NAME).consume(events).report()
    clean_report = IOCov(mount_point=MOUNT, suite_name=NAME).consume(clean).report()
    with open(os.path.join(out, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference.to_dict(), handle)
    meta = {
        "seed": seed,
        "size": size,
        "suite": "xfstests",
        "scale": SCALES[size],
        "mount": MOUNT,
        "name": NAME,
        "clean_events": len(clean),
        "noise_events": len(noise),
        "total_events": len(events),
        "noise_share": round(len(noise) / len(events), 4),
        "lines": lines,
        "clean_admitted": clean_report.events_admitted,
    }
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return meta


def ensure(cache: str, src: str, seed: int, size: str) -> str:
    """The cached input directory for (*seed*, *size*), built if missing.

    The build runs in its own interpreter so the events it holds never
    count toward the benchmark process's memory.
    """
    target = os.path.join(cache, f"{size}-seed{seed}")
    if os.path.exists(os.path.join(target, "meta.json")):
        os.utime(target)
        return target
    os.makedirs(cache, exist_ok=True)
    staging = os.path.join(cache, f".build-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--seed", str(seed),
         "--size", size, "--out", staging],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=150,
    )
    shutil.rmtree(target, ignore_errors=True)
    os.rename(staging, target)
    entries = sorted(
        (os.path.getmtime(os.path.join(cache, name)), name)
        for name in os.listdir(cache)
        if not name.startswith(".")
    )
    for _, name in entries[:-CACHE_KEEP]:
        shutil.rmtree(os.path.join(cache, name), ignore_errors=True)
    return target


def materialize(cached: str, work: str, pieces: bool) -> tuple[dict, dict]:
    """Unpack a cached input into *work*: the trace and, if asked, its
    push split.  Returns (meta, reference payload)."""
    with open(os.path.join(cached, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    with open(os.path.join(cached, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace = os.path.join(work, TRACE)
    with gzip.open(os.path.join(cached, TRACE + ".gz"), "rb") as packed, \
            open(trace, "wb") as handle:
        shutil.copyfileobj(packed, handle, 1 << 20)
    meta["bytes"] = os.path.getsize(trace)
    if pieces:
        # Split on event boundaries: each event is one entry + one exit line.
        per_piece = -(-meta["total_events"] // PIECES) * 2
        os.makedirs(os.path.join(work, "pieces"))
        with open(trace, "rb") as handle:
            for index in itertools.count():
                chunk = list(itertools.islice(handle, per_piece))
                if not chunk:
                    break
                name = os.path.join(work, "pieces", f"{index:05d}.lttng.txt")
                with open(name, "wb") as piece:
                    piece.writelines(chunk)
        meta["pieces"] = index
    return meta, reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(build(args.seed, args.size, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
