"""Syzkaller program-log parser (the paper's future-work ingestion path).

Syzkaller does not trace syscalls; it *logs the programs it executes*
in its declarative syntax::

    r0 = openat(0xffffffffffffff9c, &(0x7f0000000040)='./file0\\x00', 0x42, 0x1ff)
    write(r0, &(0x7f0000000080)="616263", 0x3)
    close(r0)

The paper notes that evaluating fuzzers requires parsing these
descriptions rather than using LTTng.  This module implements that
parser: each program line becomes a :class:`SyscallEvent` whose
arguments are decoded (pointer-to-string arguments become the string,
resource identifiers like ``r0`` become small placeholder fds, hex
constants become ints).

Limitation, inherent to the source: syzkaller logs record *inputs
only* — there is no return value — so events carry ``retval=0`` and
are useful for **input coverage** but contribute nothing to output
coverage.  The analyzer handles this by simply seeing only successful
outputs from such traces.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.trace.events import Row
from repro.trace.strace import ARGN, SYSCALL_SIGNATURES
from repro.trace.textparse import TextParser, line_count
from repro.vfs import constants

#: (kept as a plain string so it can be recompiled in
#: multiline chunk mode; group order: res, name, args)
_CALL_PATTERN = r"^(?:(?P<res>r\d+)\s*=\s*)?(?P<name>\w+)\$?\w*\((?P<args>.*)\)\s*$"
_CALL_RE = re.compile(_CALL_PATTERN)
#: Chunk-mode variant for `findall` over whole reads.
_CALL_RE_M = re.compile("(?m)" + _CALL_PATTERN)

#: Argument keys dropped from events (buffer contents).
_DROP_KEYS = frozenset({"buf", "vec"})

#: Tokens in one argument list, allowing single-level bracket groups
#: with no bracket or quote inside (pointer arguments carry parens) and
#: escape-aware quoted strings matching `_split_args`.  When joining the tokens back with ","
#: exactly reconstructs the text, the split provably equals it.
_TOKEN_RE = re.compile(
    r"(?:'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""
    r"|\([^()\[\]{}'\"]*\)|\[[^()\[\]{}'\"]*\]|\{[^()\[\]{}'\"]*\}"
    r"|[^,'\"()\[\]{}])+"
)

#: syzkaller renders AT_FDCWD as the 64-bit two's complement constant.
_AT_FDCWD_U64 = 0xFFFFFFFFFFFFFF9C

_STRING_PTR_RE = re.compile(r"&\(0x[0-9a-f]+\)\s*=?\s*'(?P<s>[^']*)'")
_HEXDATA_PTR_RE = re.compile(r'&\(0x[0-9a-f]+\)\s*=?\s*"(?P<h>[0-9a-fA-F]*)"')


def _split_args(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    current: list[str] = []
    escaped = False
    for char in text:
        if quote:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
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


def _fast_split(text: str) -> list[str]:
    if not text:
        return []
    tokens = _TOKEN_RE.findall(text)
    # A blank last token is dropped by `_split_args`: leave it to it.
    if ",".join(tokens) == text and not tokens[-1].isspace():
        return [token.strip() for token in tokens]
    return _split_args(text)


class SyzkallerParser(TextParser):
    """Parses syzkaller reproducer/log programs into input-only rows.

    Resource bindings are order-dependent, so the chunk fast path
    replays matches strictly in line order against the same resource
    table the per-line grammar builds.

    Args:
        resources: initial resource table (``r0`` -> placeholder fd),
            used by the sharded executor to resume parsing mid-file
            with the bindings earlier shards established.  The
            placeholder allocator continues from the table's size, so
            a resumed parse assigns the same fds a sequential parse
            would.
    """

    format = "syzkaller"

    def __init__(self, resources: Mapping[str, int] | None = None) -> None:
        super().__init__()
        #: resource name (r0) -> placeholder fd value
        self._resources: dict[str, int] = dict(resources or {})

    def _decode_arg(self, token: str) -> Any:
        token = token.strip()
        if not token:
            return None
        if token in self._resources:
            return self._resources[token]
        match = _STRING_PTR_RE.search(token)
        if match:
            return match["s"].replace("\\x00", "").replace("\x00", "")
        match = _HEXDATA_PTR_RE.search(token)
        if match:
            # A data buffer: only its length matters for coverage.
            return len(match["h"]) // 2
        if token.startswith("&("):
            return None  # opaque pointer (struct) — not coverage-tracked
        if token == "nil":
            return None
        try:
            value = int(token, 0)
        except ValueError:
            return token
        if value == _AT_FDCWD_U64:
            return constants.AT_FDCWD
        return value

    def _line_row(self, line: str) -> Row | None:
        # For syzkaller every skipped line is a grammar reject: comments
        # and blanks return None without counting.
        line = line.split("#", 1)[0].strip()
        if not line:
            return None
        match = _CALL_RE.match(line)
        if match is None:
            self.skipped_lines += 1
            self.malformed_lines += 1
            return None
        return self._row_from_groups(_split_args, *match.groups())

    def _chunk_rows(self, chunk: str) -> list[Row] | None:
        # Comments are stripped by _line_row before matching, so their
        # presence anywhere declines the chunk.
        if "#" in chunk:
            return None
        matches = _CALL_RE_M.findall(chunk)
        if len(matches) != line_count(chunk):
            return None
        build = self._row_from_groups
        return [build(_fast_split, *groups) for groups in matches]

    def _row_from_groups(self, split, res, name, argstr) -> Row:
        """Build the row of one matched call, binding its resource.

        The per-line grammar passes the reference splitter
        (:func:`_split_args`), the chunk fast path its shortcut
        (:func:`_fast_split`), so the chunk-parity tests hold the
        shortcut to the reference.
        """
        resources = self._resources
        decode = self._decode_arg
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
            args[key] = decode(token)
        if res:
            # The program binds the result to a resource; hand out a
            # deterministic placeholder fd for later references.
            resources[res] = 3 + len(resources)
        return (name, args, 0, 0, 0, "", 0)


def scan_resource_bindings(line: str, resources: dict[str, int]) -> None:
    """Apply one line's resource binding (if any) to *resources*.

    The cheap sequential pre-scan the sharded executor runs to give
    each shard the exact resource table a sequential parse would have
    at its start line.  Mirrors :meth:`SyzkallerParser._line_row`'s
    binding rule precisely: a full call match with an ``rN =`` prefix
    allocates placeholder fd ``3 + len(resources)``.
    """
    line = line.split("#", 1)[0].strip()
    if not line:
        return
    match = _CALL_RE.match(line)
    if match is not None and match["res"]:
        resources[match["res"]] = 3 + len(resources)
