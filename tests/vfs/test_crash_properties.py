"""Property-based crash-consistency invariants.

The oracle the CrashMonkey substrate relies on, stated as properties:
whatever op sequence runs, (1) state checkpointed before the sequence
survives a crash exactly, and (2) a crash never leaves the file system
unusable or its accounting negative.  And (3) a differential check: the
undo-log :class:`CrashSimulator` and a whole-volume deep-copy reference
model, run side by side on the same programs, agree on every syscall
result and on the full inode, device and durable-path state after every
step.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.vfs import constants as C
from repro.vfs.crash import CrashSimulator
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import DirInode
from repro.vfs.path import PathResolver
from repro.vfs.syscalls import SyscallInterface

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "truncate", "unlink", "mkdir", "rename"]),
        st.integers(0, 4),       # target index
        st.integers(0, 8192),    # size-ish parameter
    ),
    max_size=15,
)


def _apply(sc: SyscallInterface, op: str, index: int, size: int) -> None:
    path = f"/f{index}"
    if op == "create":
        result = sc.open(path, C.O_CREAT | C.O_WRONLY, 0o644)
        if result.ok:
            sc.close(result.retval)
    elif op == "write":
        result = sc.open(path, C.O_CREAT | C.O_WRONLY, 0o644)
        if result.ok:
            sc.write(result.retval, count=size)
            sc.close(result.retval)
    elif op == "truncate":
        sc.truncate(path, size)
    elif op == "unlink":
        sc.unlink(path)
    elif op == "mkdir":
        sc.mkdir(f"/d{index}", 0o755)
    elif op == "rename":
        sc.rename(path, f"/r{index}")


@given(baseline=_OPS, volatile=_OPS)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_checkpointed_state_survives_any_crash(baseline, volatile):
    fs = FileSystem(total_blocks=256)
    sc = SyscallInterface(fs)
    sim = CrashSimulator(fs)

    for op, index, size in baseline:
        _apply(sc, op, index, size)
    sc.sync()
    sim.checkpoint()

    # Record the durable image precisely.
    durable_files = {}
    for index in range(5):
        for prefix in ("/f", "/r"):
            path = f"{prefix}{index}"
            if sc.stat(path).ok:
                durable_files[path] = fs.lookup(path).size

    for op, index, size in volatile:
        _apply(sc, op, index, size)
    sim.crash()

    # Everything durable is back, byte-for-byte in size.
    for path, size in durable_files.items():
        assert sc.stat(path).ok, path
        assert fs.lookup(path).size == size, path
    # And nothing non-durable leaked in.
    for index in range(5):
        path = f"/f{index}"
        if path not in durable_files and sc.stat(path).ok:
            raise AssertionError(f"{path} survived without persistence")


@given(ops=_OPS)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_crash_never_corrupts_accounting(ops):
    fs = FileSystem(total_blocks=128)
    sc = SyscallInterface(fs)
    sim = CrashSimulator(fs)
    for op, index, size in ops:
        _apply(sc, op, index, size)
    sim.crash()
    assert 0 <= fs.device.allocated_blocks <= fs.device.total_blocks
    # The volume is still usable after the crash.
    result = sc.open("/post_crash", C.O_CREAT | C.O_WRONLY, 0o644)
    assert result.ok
    assert sc.write(result.retval, count=512).retval == 512
    sc.close(result.retval)


class DeepCopyCrashSimulator:
    """Reference model: the whole-volume deep-copy simulator.

    Each checkpoint deep-copies the inode table and each crash installs
    a fresh deep copy of it, then rolls the device and the quotas back
    the same way :class:`CrashSimulator` must.
    """

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self.checkpoint()

    def checkpoint(self) -> None:
        self.fs.sync()
        self._image = copy.deepcopy(self.fs.inodes)

    def crash(self) -> None:
        fs = self.fs
        fs.inodes = copy.deepcopy(self._image)
        fs.resolver = PathResolver(fs.inodes, fs.root_ino)
        device = fs.device
        device._persisted = {
            owner: blocks
            for owner, blocks in device._persisted.items()
            if owner in fs.inodes
        }
        device._allocated = dict(device._persisted)
        for uid, quota in fs._quotas.items():
            quota.blocks_used = _device_blocks_of(fs, uid)

    def durable_paths(self) -> list[str]:
        paths: list[str] = []

        def walk(ino: int, prefix: str) -> None:
            inode = self._image.peek(ino)
            if isinstance(inode, DirInode):
                for name, child in inode.entries.items():
                    path = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                    paths.append(path)
                    walk(child, path)

        walk(self.fs.root_ino, "/")
        return paths


def _device_blocks_of(fs: FileSystem, uid: int) -> int:
    return sum(
        fs.device.owner_blocks(inode.ino)
        for inode in fs.inodes.all_inodes()
        if inode.uid == uid
    )


def _dump(fs: FileSystem) -> list:
    """Every inode in the table, field by field, in inode order."""
    out = []
    for inode in sorted(fs.inodes.all_inodes(), key=lambda i: i.ino):
        fields = []
        for name, value in sorted(vars(inode).items()):
            if name == "times":
                value = (value.atime, value.mtime, value.ctime)
            elif isinstance(value, dict):
                value = list(value.items())
            elif isinstance(value, bytearray):
                value = bytes(value)
            fields.append((name, value))
        out.append((type(inode).__name__, fields))
    return out


def _state(fs: FileSystem, sim) -> tuple:
    return (
        _dump(fs),
        sim.durable_paths(),
        fs.inodes.next_ino,
        dict(fs.device._allocated),
        dict(fs.device._persisted),
    )


_PATHS = ("/", "/a", "/b", "/d", "/d/a", "/d/b", "/e")
_PROGRAM = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "create", "write", "pwrite", "truncate", "unlink", "rename",
                "rmdir", "mkdir", "link", "symlink", "chmod", "setxattr",
                "open", "fd_write", "fd_fsync", "fd_close", "sync",
                "checkpoint", "crash", "double_crash",
            ]
        ),
        st.sampled_from(_PATHS),
        st.sampled_from(_PATHS),
        st.integers(0, 5 * 4096),
    ),
    max_size=30,
)


class _Model:
    """One file system, its crash simulator, and the descriptors held."""

    def __init__(self, sim_cls) -> None:
        self.fs = FileSystem(total_blocks=96)
        self.fs.set_quota(0, 40)
        self.sc = SyscallInterface(self.fs)
        self.sim = sim_cls(self.fs)
        self.held: list[int] = []

    def step(self, op: str, path: str, other: str, size: int):
        """Run one program step; returns what the caller can observe."""
        sc = self.sc
        if op in ("checkpoint", "crash", "double_crash"):
            if op == "checkpoint":
                self.sim.checkpoint()
                return None
            # A remount: CrashMonkey closes its descriptors first.
            self.sc.process.fd_table.close_all()
            self.held = []
            self.sim.crash()
            if op == "double_crash":
                self.sim.crash()
            return None
        if op.startswith("fd_"):
            if not self.held:
                return None
            fd = self.held[size % len(self.held)]
            if op == "fd_write":
                return sc.pwrite64(fd, count=size % 9000, offset=size % 5000).retval
            if op == "fd_fsync":
                return sc.fsync(fd).retval
            self.held.remove(fd)
            return sc.close(fd).retval
        if op == "open":
            result = sc.open(path, C.O_RDWR)
            if result.ok:
                self.held.append(result.retval)
            return result.retval
        if op in ("create", "write"):
            result = sc.open(path, C.O_CREAT | C.O_WRONLY, 0o644)
            if result.ok and op == "write":
                sc.write(result.retval, count=size)
            if result.ok:
                sc.close(result.retval)
            return result.retval
        if op == "pwrite":
            result = sc.open(path, C.O_WRONLY)
            if result.ok:
                written = sc.pwrite64(result.retval, count=size % 7000, offset=size)
                sc.close(result.retval)
                return written.retval
            return result.retval
        if op == "truncate":
            return sc.truncate(path, size).retval
        if op == "unlink":
            return sc.unlink(path).retval
        if op == "rename":
            return sc.rename(path, other).retval
        if op == "rmdir":
            return sc.rmdir(path).retval
        if op == "mkdir":
            return sc.mkdir(path, 0o755).retval
        if op == "link":
            return sc.link(path, other).retval
        if op == "symlink":
            return sc.symlink(path, other).retval
        if op == "chmod":
            return sc.chmod(path, size & 0o777).retval
        if op == "setxattr":
            return sc.setxattr(path, f"user.x{size % 3}", b"v" * (size % 40)).retval
        assert op == "sync"
        return sc.sync().retval


def _assert_crash_invariants(fs: FileSystem) -> None:
    live = {inode.ino for inode in fs.inodes.all_inodes()}
    assert set(fs.device._allocated) <= live
    for uid, quota in fs._quotas.items():
        assert quota.blocks_used == _device_blocks_of(fs, uid)


@given(program=_PROGRAM)
@example(  # writes through a descriptor opened before the checkpoint
    program=[
        ("write", "/a", "/a", 4096),
        ("open", "/a", "/a", 0),
        ("checkpoint", "/a", "/a", 0),
        ("fd_write", "/a", "/a", 8192),
        ("fd_fsync", "/a", "/a", 0),
        ("crash", "/a", "/a", 0),
    ]
)
@example(  # a removed file, a born fsync'd file, and quota use
    program=[
        ("write", "/a", "/a", 16384),
        ("checkpoint", "/a", "/a", 0),
        ("unlink", "/a", "/a", 0),
        ("create", "/b", "/b", 0),
        ("open", "/b", "/b", 0),
        ("fd_write", "/b", "/b", 8000),
        ("fd_fsync", "/b", "/b", 0),
        ("double_crash", "/a", "/a", 0),
        ("write", "/e", "/e", 20000),
    ]
)
@example(  # metadata changes to inodes that predate the checkpoint
    program=[
        ("mkdir", "/d", "/d", 0),
        ("write", "/d/a", "/d/a", 100),
        ("checkpoint", "/a", "/a", 0),
        ("setxattr", "/d/a", "/d/a", 7),
        ("chmod", "/d", "/d", 0o700),
        ("link", "/d/a", "/b", 0),
        ("rename", "/d", "/e", 0),
        ("crash", "/a", "/a", 0),
    ]
)
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_undo_log_matches_deep_copy_reference(program):
    undo = _Model(CrashSimulator)
    ref = _Model(DeepCopyCrashSimulator)
    for step in program:
        assert undo.step(*step) == ref.step(*step), step
        assert _state(undo.fs, undo.sim) == _state(ref.fs, ref.sim), step
        if step[0] in ("crash", "double_crash"):
            _assert_crash_invariants(undo.fs)
            _assert_crash_invariants(ref.fs)
