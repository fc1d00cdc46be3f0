"""Crash simulation: checkpoint/crash life cycle and durability."""

import pytest

from repro.vfs import constants as C
from repro.vfs.crash import CrashSimulator
from repro.vfs.errors import ENOENT
from tests.conftest import make_file


def test_crash_discards_unsynced_file(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=4096)
    sim.crash()
    assert sc.stat("/f").errno == ENOENT


def test_checkpoint_preserves_state(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=4096)
    sim.checkpoint()
    make_file(sc, "/g", size=4096)
    sim.crash()
    assert sc.stat("/f").ok
    assert sc.stat("/g").errno == ENOENT


def test_crash_restores_file_content(fs, sc):
    sim = CrashSimulator(fs)
    fd = sc.open("/f", C.O_CREAT | C.O_RDWR, 0o644).retval
    sc.write(fd, b"durable")
    sc.close(fd)
    sim.checkpoint()
    fd = sc.open("/f", C.O_RDWR).retval
    sc.pwrite64(fd, b"volatile", offset=0)
    sc.close(fd)
    sim.crash()
    fd = sc.open("/f", C.O_RDONLY).retval
    assert sc.read(fd, 16).data == b"durable"
    sc.close(fd)


def test_crash_restores_removed_files(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/keep", size=10)
    sim.checkpoint()
    sc.unlink("/keep")
    sim.crash()
    assert sc.stat("/keep").ok


def test_multiple_crashes_idempotent(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f")
    sim.checkpoint()
    sim.crash()
    sim.crash()
    assert sc.stat("/f").ok
    assert sim.crash_count == 2


def test_device_accounting_survives_crash(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=8 * 4096)
    sim.checkpoint()
    make_file(sc, "/g", size=8 * 4096)
    sim.crash()
    # /g's blocks must be back in the free pool.
    inode = fs.lookup("/f")
    assert fs.device.owner_blocks(inode.ino) == 8
    stats = fs.device.stats()
    assert stats.allocated_blocks == 8  # /f only; /g was rolled back


def test_durable_paths_listing(fs, sc):
    sim = CrashSimulator(fs)
    sc.mkdir("/d", 0o755)
    make_file(sc, "/d/f")
    sim.checkpoint()
    paths = sim.durable_paths()
    assert "/d" in paths and "/d/f" in paths


def test_fs_usable_after_crash(fs, sc):
    sim = CrashSimulator(fs)
    sc.mkdir("/d", 0o755)
    sim.checkpoint()
    sim.crash()
    assert sc.mkdir("/d/sub", 0o755).ok
    make_file(sc, "/d/sub/f", size=100)
    assert fs.lookup("/d/sub/f").size == 100


@pytest.mark.parametrize("remove", ["unlink", "rename", "rmdir"])
def test_removed_inode_comes_back_with_its_blocks(fs, sc, remove):
    sim = CrashSimulator(fs)
    if remove == "rmdir":
        assert sc.mkdir("/victim", 0o755).ok
        blocks = 1  # a directory's entry block
    else:
        make_file(sc, "/victim", size=16 * 1024)
        blocks = 4
    make_file(sc, "/other", size=4096)
    sim.checkpoint()
    allocated = fs.device.allocated_blocks
    if remove == "unlink":
        assert sc.unlink("/victim").ok
    elif remove == "rename":
        assert sc.rename("/other", "/victim").ok
    else:
        assert sc.rmdir("/victim").ok
    sim.crash()
    assert fs.device.owner_blocks(fs.lookup("/victim").ino) == blocks
    assert fs.device.allocated_blocks == allocated


def test_fsynced_file_born_after_checkpoint_frees_its_blocks(fs, sc):
    sim = CrashSimulator(fs)
    fd = sc.open("/born", C.O_CREAT | C.O_WRONLY, 0o644).retval
    assert sc.write(fd, count=8 * 4096).retval == 8 * 4096
    assert sc.fsync(fd).ok
    sc.close(fd)
    sim.crash()
    assert sc.stat("/born").errno == ENOENT
    assert fs.device.allocated_blocks == 0
    # The rewound allocator hands the number out again, uncharged.
    make_file(sc, "/next")
    assert fs.device.owner_blocks(fs.lookup("/next").ino) == 0


def test_crash_rolls_quota_back_with_the_device(fs, sc):
    sim = CrashSimulator(fs)
    fs.set_quota(0, 16)
    make_file(sc, "/one", size=4096)
    sim.checkpoint()
    make_file(sc, "/eight", size=8 * 4096)
    sim.crash()
    assert fs._quota_for(0).blocks_used == fs.device.allocated_blocks == 1
    fd = sc.open("/again", C.O_CREAT | C.O_WRONLY, 0o644).retval
    assert sc.write(fd, count=8 * 4096).retval == 8 * 4096


def test_crash_cost_is_what_the_epoch_touched(fs, sc):
    sim = CrashSimulator(fs)
    for index in range(50):
        make_file(sc, f"/f{index}", size=4096)
    sim.checkpoint()
    make_file(sc, "/f7", size=100)  # O_TRUNC rewrite of one old file
    make_file(sc, "/new", size=10)
    # Saved: the root directory (resolved from) and /f7 itself.
    assert sorted(sim._log) == [fs.root_ino, fs.lookup("/f7").ino]
    sim.crash()
    assert fs.lookup("/f7").size == 4096
    assert sc.stat("/new").errno == ENOENT


def test_descriptor_opened_before_checkpoint_is_rolled_back(fs, sc):
    make_file(sc, "/f", size=10)
    fd = sc.open("/f", C.O_RDWR).retval
    sim = CrashSimulator(fs)
    assert sc.pwrite64(fd, count=4096, offset=0).retval == 4096
    sc.close(fd)
    sim.crash()
    assert fs.lookup("/f").size == 10


def test_descriptor_held_across_crash_writes_a_detached_inode(fs, sc):
    """The documented limitation: close descriptors before crashing."""
    sim = CrashSimulator(fs)
    make_file(sc, "/f")
    sim.checkpoint()
    fd = sc.open("/f", C.O_WRONLY).retval
    assert sc.write(fd, b"lost").retval == 4
    sim.crash()
    assert sc.write(fd, b"0123456789").retval == 10
    assert fs.lookup("/f").size == 0
    # The detached object is no pre-image: a second crash still
    # restores the checkpointed (empty) file.
    sim.crash()
    assert fs.lookup("/f").size == 0


def test_inode_removed_by_number_comes_back(fs, sc):
    sim = CrashSimulator(fs)
    make_file(sc, "/f", size=10)
    ino = fs.lookup("/f").ino
    sim.checkpoint()
    fs.inodes.remove(ino)
    assert ino not in fs.inodes
    sim.crash()
    assert fs.inodes.peek(ino).size == 10
