"""Crash-point simulation for crash-consistency workloads.

CrashMonkey's seq-1 testing runs a small workload, crashes the system
at a persistence point, remounts, and checks that everything that was
fsync'ed survived.  Our CrashMonkey substrate needs the same life
cycle; this module provides it over :class:`~repro.vfs.filesystem.FileSystem`.

The model is allocation-level: data written but not persisted (no
fsync/sync since the write) is discarded by :meth:`CrashSimulator.crash`,
which restores exactly the file-system image of the last checkpoint.

Like CrashMonkey, which keeps a base image plus the writes recorded
since it, the simulator keeps an *undo log* rather than a copy of the
volume.  Each :meth:`~CrashSimulator.checkpoint` starts an epoch: it
empties the log and records the allocator mark (the next inode
number).  The first time the epoch reaches an inode older than the
mark, the log saves a pre-image of it.  Inodes at or above the mark
were born in the epoch and need no entry.  A crash puts the
pre-images back, drops the born inodes and rewinds the allocator, so
checkpoint and crash cost what the epoch touched, not the volume.

This rests on the reach rule: every mutation reaches its inode through
the :class:`~repro.vfs.inode.InodeTable` (``get``/``remove``) or
through a looked-up descriptor.  The table and the syscall layer
report both to the attached simulator before the mutation happens.

Known limitation: a descriptor held open across :meth:`crash` keeps
the inode object it had.  If the epoch reached that inode, the crash
put a pre-image in its place, and writes through the descriptor land
on the detached object: ``write`` returns 10, the restored file stays
0 bytes.  CrashMonkey's workloads close every descriptor before they
crash.
"""

from __future__ import annotations

from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import DirInode, Inode


class CrashSimulator:
    """Checkpoint/crash harness around one file system.

    Usage::

        sim = CrashSimulator(fs)
        ... run workload ...
        sim.checkpoint()      # called by fsync/sync hooks or the harness
        ... more workload ...
        sim.crash()           # discard everything after the checkpoint
    """

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        #: pre-images of the inodes this epoch reached, by inode number
        self._log: dict[int, Inode] = {}
        #: the allocator's next inode number at the last checkpoint
        self._mark = fs.inodes.next_ino
        self.checkpoint_count = 0
        self.crash_count = 0
        fs.inodes.undo = self
        self.checkpoint()  # the freshly made FS is durable

    def reach(self, inode: Inode) -> None:
        """Save *inode*'s pre-image the first time this epoch reaches it."""
        ino = inode.ino
        if ino >= self._mark or ino in self._log:
            return
        # A descriptor kept across a crash may hold an object the crash
        # replaced; it is not part of the image and needs no saving.
        if self.fs.inodes.peek(ino) is inode:
            self._log[ino] = inode.clone()

    def checkpoint(self) -> None:
        """Record the current state as durable (a sync barrier)."""
        self.fs.sync()
        self._log = {}
        self._mark = self.fs.inodes.next_ino
        self.checkpoint_count += 1

    def crash(self) -> None:
        """Simulate power loss: roll back to the last checkpoint."""
        self.crash_count += 1
        table = self.fs.inodes
        table.restore(self._log, self._mark)
        self._log = {}  # the restored pre-images are the live inodes now
        self.fs.device.crash(live=table.numbers())
        self.fs.recount_quotas()

    def durable_paths(self) -> list[str]:
        """List every path reachable in the durable image (for checkers)."""
        paths: list[str] = []

        def walk(ino: int, prefix: str) -> None:
            inode = self._durable(ino)
            if isinstance(inode, DirInode):
                for name, child_ino in inode.entries.items():
                    child_path = f"{prefix}/{name}" if prefix != "/" else f"/{name}"
                    paths.append(child_path)
                    walk(child_ino, child_path)

        walk(self.fs.root_ino, "/")
        return paths

    def _durable(self, ino: int) -> Inode | None:
        """Inode *ino* as of the last checkpoint (``None``: born since)."""
        if ino >= self._mark:
            return None
        saved = self._log.get(ino)
        return saved if saved is not None else self.fs.inodes.peek(ino)
