"""strace output parser: an alternate trace ingestion path.

IOCov's architecture separates *capture* from *analysis*: anything that
yields (syscall, args, retval) records can feed the analyzer.  strace
is the most widely available capture tool, so this parser turns lines
like

.. code-block:: text

    openat(AT_FDCWD, "/mnt/test/f0", O_WRONLY|O_CREAT|O_TRUNC, 0644) = 3
    write(3, "abc"..., 4096) = 4096
    open("/mnt/test/missing", O_RDONLY) = -1 ENOENT (No such file or directory)

into :class:`~repro.trace.events.SyscallEvent` records.  Symbolic flag
expressions (``O_WRONLY|O_CREAT``) are evaluated against the constant
tables in :mod:`repro.vfs.constants`; positional arguments are mapped
to names using the per-syscall signatures below so that downstream
partitioners see the same argument names regardless of capture tool.
"""

from __future__ import annotations

import re
from typing import Any

from repro.trace.events import Row
from repro.trace.textparse import TextParser, cached_int, line_count
from repro.vfs import constants
from repro.vfs.errors import ERRNO_BY_NAME

#: Positional argument names per syscall (as strace prints them).
SYSCALL_SIGNATURES: dict[str, tuple[str, ...]] = {
    "open": ("pathname", "flags", "mode"),
    "openat": ("dfd", "pathname", "flags", "mode"),
    "openat2": ("dfd", "pathname", "how", "size"),
    "creat": ("pathname", "mode"),
    "close": ("fd",),
    "read": ("fd", "buf", "count"),
    "pread64": ("fd", "buf", "count", "pos"),
    "readv": ("fd", "vec", "vlen"),
    "preadv": ("fd", "vec", "vlen", "pos"),
    "write": ("fd", "buf", "count"),
    "pwrite64": ("fd", "buf", "count", "pos"),
    "writev": ("fd", "vec", "vlen"),
    "pwritev": ("fd", "vec", "vlen", "pos"),
    "lseek": ("fd", "offset", "whence"),
    "truncate": ("path", "length"),
    "ftruncate": ("fd", "length"),
    "mkdir": ("pathname", "mode"),
    "mkdirat": ("dfd", "pathname", "mode"),
    "chmod": ("pathname", "mode"),
    "fchmod": ("fd", "mode"),
    "fchmodat": ("dfd", "pathname", "mode", "flags"),
    "chdir": ("filename",),
    "fchdir": ("fd",),
    "setxattr": ("pathname", "name", "value", "size", "flags"),
    "lsetxattr": ("pathname", "name", "value", "size", "flags"),
    "fsetxattr": ("fd", "name", "value", "size", "flags"),
    "getxattr": ("pathname", "name", "value", "size"),
    "lgetxattr": ("pathname", "name", "value", "size"),
    "fgetxattr": ("fd", "name", "value", "size"),
    "link": ("oldpath", "newpath"),
    "access": ("pathname", "mode"),
    "statfs": ("pathname", "buf"),
    "unlink": ("pathname",),
    "rmdir": ("pathname",),
    "rename": ("oldpath", "newpath"),
    "symlink": ("target", "linkpath"),
    "stat": ("pathname", "statbuf"),
    "lstat": ("pathname", "statbuf"),
    "fstat": ("fd", "statbuf"),
    "dup": ("fildes",),
    "dup2": ("oldfd", "newfd"),
    "fsync": ("fd",),
    "fdatasync": ("fd",),
    "sync": (),
}

#: Symbol tables used to evaluate OR-expressions in strace output.
_SYMBOLS: dict[str, int] = {}
_SYMBOLS.update(constants.OPEN_FLAG_NAMES)
_SYMBOLS.update(constants.SEEK_WHENCE_NAMES)
_SYMBOLS.update(constants.MODE_BIT_NAMES)
_SYMBOLS.update(constants.XATTR_FLAG_NAMES)
_SYMBOLS["AT_FDCWD"] = constants.AT_FDCWD
_SYMBOLS["AT_SYMLINK_NOFOLLOW"] = constants.AT_SYMLINK_NOFOLLOW
_SYMBOLS["AT_EMPTY_PATH"] = constants.AT_EMPTY_PATH
_SYMBOLS["O_NDELAY"] = constants.O_NDELAY

#: line shape:  name(args) = ret [ERRNO (message)]
#: (kept as a plain string so it can be recompiled in
#: multiline chunk mode; group order: pid, ts, name, args, ret, errname)
_CALL_PATTERN = (
    r"^(?:\[pid\s+(?P<pid>\d+)\]\s+)?"
    r"(?:(?P<ts>\d+\.\d+|\d+:\d+:\d+\.\d+)\s+)?"
    r"(?P<name>\w+)\((?P<args>.*)\)\s*=\s*"
    r"(?P<ret>-?\d+|\?)"
    r"(?:\s+(?P<errname>E[A-Z0-9]+)\s*(?:\([^)]*\))?)?\s*$"
)
_CALL_RE = re.compile(_CALL_PATTERN)
#: Chunk-mode variant for `findall` over whole reads.
_CALL_RE_M = re.compile("(?m)" + _CALL_PATTERN)

#: Lines that legitimately produce no event (signal/exit annotations,
#: interrupted-call halves, calls with unknown return) — skipped but
#: not *malformed*.
_NOISE_PREFIXES = ("--- ", "+++ ")


class StraceParseError(ValueError):
    """A line could not be parsed in strict mode."""


def _split_args(text: str) -> list[str]:
    """Split a strace argument list at top-level commas."""
    parts: list[str] = []
    depth = 0
    in_string = False
    escaped = False
    current: list[str] = []
    for char in text:
        if in_string:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
            current.append(char)
        elif char in "([{":
            depth += 1
            current.append(char)
        elif char in ")]}":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_arg(text: str) -> Any:
    """Parse one strace argument token into a Python value."""
    text = text.strip()
    if not text:
        return None
    if text.startswith('"'):
        # Strings may be truncated: "abc"... — strip the ellipsis.
        end = text.rfind('"')
        body = text[1:end]
        return body.encode("latin-1", "backslashreplace").decode("unicode_escape")
    if text == "NULL":
        return None
    if "|" in text or text in _SYMBOLS:
        value = 0
        known = True
        for token in text.split("|"):
            token = token.strip()
            if token in _SYMBOLS:
                value |= _SYMBOLS[token]
            else:
                try:
                    value |= int(token, 0)
                except ValueError:
                    known = False
                    break
        if known:
            return value
    # strace prints modes C-style: a leading zero means octal.
    if len(text) > 1 and text[0] == "0" and all(c in "01234567" for c in text[1:]):
        return int(text, 8)
    try:
        return int(text, 0)
    except ValueError:
        return text


#: Argument keys dropped from events (buffer contents are not
#: coverage-relevant, matching LTTng).
_DROP_KEYS = frozenset({"buf", "statbuf", "vec"})

#: Positional fallback names, preallocated for the common arities.
ARGN = tuple(f"arg{i}" for i in range(16))

_MISS = object()

#: argument-token -> parsed value memo (flag expressions, AT_FDCWD,
#: fds and modes repeat; values are immutable).
_ARG_CACHE: dict[str, Any] = {}
_ARG_CACHE_CAP = 16384

#: Tokens in one argument list: maximal runs of quoted strings and
#: non-comma text.  When joining the tokens back with "," exactly
#: reconstructs the argument text, the token boundaries provably sit at
#: top-level commas and the fast split equals `_split_args`.
_TOKEN_RE = re.compile(r'(?:"(?:[^"\\]|\\.)*"|[^",])+')
#: Any bracket (opener *or* closer: a stray closer changes the
#: char-loop splitter's depth) routes to the char-loop splitter.
_BRACKET_RE = re.compile(r"[()\[\]{}]")


def _fast_split(text: str) -> list[str]:
    if not text:
        return []
    if _BRACKET_RE.search(text) is None:
        tokens = _TOKEN_RE.findall(text)
        # A blank last token is dropped by `_split_args`: leave it to it.
        if ",".join(tokens) == text and not tokens[-1].isspace():
            return [token.strip() for token in tokens]
    return _split_args(text)


def _arg_value(token: str) -> Any:
    if token and token[0] == '"' and "\\" not in token:
        # Truncated-string ellipsis strip without the escape decoder.
        return token[1 : token.rfind('"')]
    value = _ARG_CACHE.get(token, _MISS)
    if value is _MISS:
        value = _parse_arg(token)
        if len(_ARG_CACHE) < _ARG_CACHE_CAP:
            _ARG_CACHE[token] = value
    return value


class StraceParser(TextParser):
    """Parses strace `-f -e trace=...` style output into rows."""

    format = "strace"

    def __init__(self, strict: bool = False) -> None:
        super().__init__()
        self.strict = strict

    def _line_row(self, line: str) -> Row | None:
        """Parse one completed-call line; None for noise lines."""
        line = line.strip()
        if not line or line.endswith("<unfinished ...>") or "resumed>" in line:
            self.skipped_lines += 1
            return None
        match = _CALL_RE.match(line)
        if match is None:
            if self.strict:
                raise StraceParseError(f"unparseable line: {line!r}")
            self.skipped_lines += 1
            if not line.startswith(_NOISE_PREFIXES) and not line.endswith("= ?"):
                self.malformed_lines += 1
            return None
        return self._row_from_groups(_split_args, _parse_arg, *match.groups())

    def _chunk_rows(self, chunk: str) -> list[Row] | None:
        # _line_row short-circuits interrupted-call halves *before* the
        # grammar, so their presence anywhere declines the chunk.
        if "<unfinished ...>" in chunk or "resumed>" in chunk:
            return None
        matches = _CALL_RE_M.findall(chunk)
        if len(matches) != line_count(chunk):
            return None
        rows: list[Row] = []
        build = self._row_from_groups
        for groups in matches:
            row = build(_fast_split, _arg_value, *groups)
            if row is not None:
                rows.append(row)
        return rows

    def _row_from_groups(
        self, split, value, pid_s, ts, name, argstr, ret_s, errname
    ) -> Row | None:
        """Build the row of one matched call.

        The per-line grammar passes the reference tokenizer and decoder
        (:func:`_split_args`, :func:`_parse_arg`); the chunk fast path
        passes their shortcuts (:func:`_fast_split`, :func:`_arg_value`),
        so the chunk-parity tests hold the shortcuts to the reference.
        """
        if ret_s == "?":
            self.skipped_lines += 1
            return None
        signature = SYSCALL_SIGNATURES.get(name) or ()
        sig_len = len(signature)
        args: dict[str, Any] = {}
        for index, token in enumerate(split(argstr)):
            if index < sig_len:
                key = signature[index]
                if key in _DROP_KEYS:
                    continue
            else:
                key = ARGN[index] if index < 16 else f"arg{index}"
            args[key] = value(token)
        retval = cached_int(ret_s)
        err = 0
        if retval < 0:
            err = ERRNO_BY_NAME.get(errname, -retval) if errname else -retval
            retval = -err
        pid = cached_int(pid_s) if pid_s else 0
        return (name, args, retval, err, pid, "", 0)
