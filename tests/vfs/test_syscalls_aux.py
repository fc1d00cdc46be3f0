"""Auxiliary syscalls: unlink, rmdir, rename, symlink, stat, sync."""

import pytest

from repro.vfs import constants as C
from repro.vfs.errors import (
    EBADF,
    EBUSY,
    EEXIST,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
    EROFS,
)


def test_unlink_removes_file_and_space(sc, mkfile):
    mkfile("/f", size=4096)
    before = sc.fs.device.free_blocks
    assert sc.unlink("/f").ok
    assert sc.stat("/f").errno == ENOENT
    assert sc.fs.device.free_blocks == before + 1


def test_unlink_missing_is_enoent(sc):
    assert sc.unlink("/nope").errno == ENOENT


def test_unlink_directory_is_eisdir(sc):
    sc.mkdir("/d", 0o755)
    assert sc.unlink("/d").errno == EISDIR


def test_unlink_symlink_removes_link_not_target(sc, mkfile):
    mkfile("/real", size=10)
    sc.symlink("/real", "/ln")
    assert sc.unlink("/ln").ok
    assert sc.stat("/real").ok


def test_unlink_readonly_fs_is_erofs(sc, mkfile):
    mkfile("/f")
    sc.fs.read_only = True
    assert sc.unlink("/f").errno == EROFS


def test_rmdir_removes_empty_dir(sc):
    sc.mkdir("/d", 0o755)
    root_nlink = sc.fs.root.nlink
    assert sc.rmdir("/d").ok
    assert sc.fs.root.nlink == root_nlink - 1


def test_rmdir_nonempty_is_enotempty(sc, mkfile):
    sc.mkdir("/d", 0o755)
    mkfile("/d/f")
    assert sc.rmdir("/d").errno == ENOTEMPTY


def test_rmdir_file_is_enotdir(sc, mkfile):
    mkfile("/f")
    assert sc.rmdir("/f").errno == ENOTDIR


def test_rmdir_root_is_ebusy(sc):
    assert sc.rmdir("/").errno == EBUSY


def test_rename_of_or_onto_root_is_ebusy(sc):
    assert sc.mkdir("/d", 0o755).ok
    assert sc.rename("/", "/x").errno == EBUSY
    assert sc.rename("/d", "/").errno == EBUSY


def test_rename_same_directory(sc, mkfile):
    mkfile("/a", size=10)
    assert sc.rename("/a", "/b").ok
    assert sc.stat("/a").errno == ENOENT
    assert sc.fs.lookup("/b").size == 10


def test_rename_across_directories_updates_nlink(sc):
    sc.mkdir("/src", 0o755)
    sc.mkdir("/dst", 0o755)
    sc.mkdir("/src/mover", 0o755)
    src_nlink = sc.fs.lookup("/src").nlink
    dst_nlink = sc.fs.lookup("/dst").nlink
    assert sc.rename("/src/mover", "/dst/mover").ok
    assert sc.fs.lookup("/src").nlink == src_nlink - 1
    assert sc.fs.lookup("/dst").nlink == dst_nlink + 1
    assert sc.fs.lookup("/dst/mover").parent_ino == sc.fs.lookup("/dst").ino


def test_rename_replaces_existing_file(sc, mkfile):
    mkfile("/a", size=100)
    mkfile("/b", size=5)
    assert sc.rename("/a", "/b").ok
    assert sc.fs.lookup("/b").size == 100


def test_rename_file_over_directory_is_eisdir(sc, mkfile):
    mkfile("/a")
    sc.mkdir("/d", 0o755)
    result = sc.rename("/a", "/d")
    assert result.errno == EISDIR


def test_rename_dir_over_nonempty_dir_is_enotempty(sc, mkfile):
    sc.mkdir("/a", 0o755)
    sc.mkdir("/d", 0o755)
    mkfile("/d/f")
    assert sc.rename("/a", "/d").errno == ENOTEMPTY


def test_rename_dir_over_empty_dir(sc):
    sc.mkdir("/a", 0o755)
    sc.mkdir("/d", 0o755)
    assert sc.rename("/a", "/d").ok
    assert sc.fs.lookup("/d").is_directory()


def test_rename_dir_over_empty_dir_frees_the_replaced_block(sc):
    # Each directory holds one block; the replaced one must give it
    # back to the device and to its owner's quota, as rmdir does.
    sc.fs.set_quota(0, 16)
    sc.mkdir("/a", 0o755)
    sc.mkdir("/b", 0o755)
    assert sc.fs.device.allocated_blocks == 2
    assert sc.rename("/a", "/b").ok
    assert sc.fs.device.allocated_blocks == 1
    assert sc.fs._quota_for(0).blocks_used == 1


def test_rename_onto_itself_is_noop(sc, mkfile):
    mkfile("/a", size=7)
    assert sc.rename("/a", "/a").ok
    assert sc.fs.lookup("/a").size == 7


def test_rename_missing_source_is_enoent(sc):
    assert sc.rename("/nope", "/b").errno == ENOENT


def test_rename_dir_into_own_subtree_is_einval(sc):
    from repro.vfs.errors import EINVAL

    sc.mkdir("/a", 0o755)
    sc.mkdir("/a/b", 0o755)
    assert sc.rename("/a", "/a/b/a").errno == EINVAL
    assert sc.rename("/a", "/a/a").errno == EINVAL
    # Sibling moves still fine.
    sc.mkdir("/c", 0o755)
    assert sc.rename("/a/b", "/c/b").ok


def test_link_creates_hard_link(sc, mkfile):
    mkfile("/f", size=12)
    assert sc.link("/f", "/hard").ok
    inode = sc.fs.lookup("/f")
    assert inode.nlink == 2
    assert sc.fs.lookup("/hard") is inode
    # Unlinking one name keeps the data alive under the other.
    assert sc.unlink("/f").ok
    assert sc.fs.lookup("/hard").size == 12
    assert sc.fs.lookup("/hard").nlink == 1


def test_link_to_directory_is_eperm(sc):
    from repro.vfs.errors import EPERM

    sc.mkdir("/d", 0o755)
    assert sc.link("/d", "/dlink").errno == EPERM


def test_link_existing_target_is_eexist(sc, mkfile):
    mkfile("/a")
    mkfile("/b")
    assert sc.link("/a", "/b").errno == EEXIST


def test_link_missing_source_is_enoent(sc):
    assert sc.link("/nope", "/hard").errno == ENOENT


def test_link_readonly_fs_is_erofs(sc, mkfile):
    mkfile("/f")
    sc.fs.read_only = True
    assert sc.link("/f", "/hard").errno == EROFS


def test_access_existence_and_permissions(sc, user_sc, mkfile):
    mkfile("/f", mode=0o640)
    assert sc.access("/f", 0).ok                 # F_OK
    assert sc.access("/missing", 0).errno == ENOENT
    assert user_sc.access("/f", 4).errno == 13   # EACCES: other has none
    sc.chmod("/f", 0o644)
    assert user_sc.access("/f", 4).ok
    assert user_sc.access("/f", 2).errno == 13


def test_access_invalid_mode_is_einval(sc, mkfile):
    from repro.vfs.errors import EINVAL

    mkfile("/f")
    assert sc.access("/f", 0o77).errno == EINVAL


def test_statfs(sc, mkfile):
    mkfile("/f", size=4096)  # one real block so usage is visible
    assert sc.statfs("/f").ok
    assert sc.statfs("/missing").errno == ENOENT
    stats = sc.fs.stats()
    assert stats.free_blocks < stats.total_blocks


def test_symlink_creates_and_resolves(sc, mkfile):
    mkfile("/real", size=3)
    assert sc.symlink("/real", "/ln").ok
    fd = sc.open("/ln", C.O_RDONLY)
    assert fd.ok
    sc.close(fd.retval)


def test_symlink_existing_name_is_eexist(sc, mkfile):
    mkfile("/f")
    assert sc.symlink("/f", "/f").errno == EEXIST


def test_stat_and_lstat_symlink_difference(sc, mkfile):
    sc.symlink("/dangling", "/ln")
    assert sc.stat("/ln").errno == ENOENT
    assert sc.lstat("/ln").ok


def test_fstat_ok_and_ebadf(sc, mkfile):
    mkfile("/f")
    fd = sc.open("/f", C.O_RDONLY).retval
    assert sc.fstat(fd).ok
    sc.close(fd)
    assert sc.fstat(fd).errno == EBADF


def test_fsync_fdatasync_and_sync(sc, mkfile):
    mkfile("/f")
    fd = sc.open("/f", C.O_WRONLY).retval
    sc.write(fd, count=4096)
    assert sc.fsync(fd).ok
    assert sc.fdatasync(fd).ok
    sc.close(fd)
    assert sc.sync().ok
    assert sc.fsync(fd).errno == EBADF


def test_unlink_with_open_fd_keeps_data_alive(sc, mkfile):
    """POSIX: data reachable via an open fd survives unlink."""
    mkfile("/f", size=10)
    fd = sc.open("/f", C.O_RDONLY).retval
    sc.unlink("/f")
    got = sc.read(fd, 10)
    assert got.retval == 10
    sc.close(fd)
