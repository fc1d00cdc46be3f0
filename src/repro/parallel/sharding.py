"""Byte-range sharding of text trace files.

A shard is a half-open byte span ``[start, end)`` of the file, aligned
to line boundaries so no record straddles two shards.  Alignment is
cheap: seek to the approximate cut point, read to the next newline,
and cut there — no full scan of the file is needed to plan the shards.
"""

from __future__ import annotations

import os
from typing import Iterator

#: A half-open byte range of the trace file, aligned to line starts.
Span = tuple[int, int]

#: Below this size a shard is not worth a worker; :func:`shard_spans`
#: reduces the shard count rather than hand out micro-shards.
DEFAULT_MIN_SHARD_BYTES = 4096


def shard_spans(
    path: str, jobs: int, *, min_shard_bytes: int = DEFAULT_MIN_SHARD_BYTES
) -> list[Span]:
    """Split *path* into up to *jobs* line-aligned byte spans.

    Spans are contiguous (``spans[i][1] == spans[i + 1][0]``), cover
    the whole file, and every span starts at a line start.  Fewer than
    *jobs* spans are returned when the file is small or its lines are
    long enough that some cut points collapse.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    size = os.path.getsize(path)
    if size == 0 or jobs == 1:
        return [(0, size)]
    if min_shard_bytes > 0:
        jobs = min(jobs, max(1, size // min_shard_bytes))
    cuts = [0]
    with open(path, "rb") as handle:
        for index in range(1, jobs):
            target = size * index // jobs
            if target <= cuts[-1]:
                continue
            handle.seek(target)
            handle.readline()  # advance to the next line start
            cut = handle.tell()
            if cut >= size:
                break
            if cut > cuts[-1]:
                cuts.append(cut)
    cuts.append(size)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


#: Bytes per chunk for :func:`iter_span_chunks`.
DEFAULT_SPAN_CHUNK_BYTES = 1 << 20


def iter_span_chunks(
    path: str, start: int, end: int, chunk_bytes: int = DEFAULT_SPAN_CHUNK_BYTES
) -> Iterator[str]:
    """Stream one span as newline-aligned text chunks (batch parsing).

    Concatenating the chunks yields exactly the bytes of
    :func:`iter_span_lines` over the same span, but in a handful of
    big pieces instead of per-line strings.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        remaining = end - start
        while remaining > 0:
            raw = handle.read(min(chunk_bytes, remaining))
            if not raw:
                break
            remaining -= len(raw)
            if remaining > 0 and not raw.endswith(b"\n"):
                tail = handle.readline()
                remaining -= len(tail)
                raw += tail
            yield raw.decode("utf-8")


def iter_span_lines(path: str, start: int, end: int) -> Iterator[str]:
    """Stream the lines of one span, decoded like a sequential parse.

    The span must be line-aligned (produced by :func:`shard_spans`);
    byte accounting — not content — decides where the span ends, so a
    worker reads exactly its slice of the file.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        remaining = end - start
        while remaining > 0:
            raw = handle.readline()
            if not raw:
                break
            remaining -= len(raw)
            yield raw.decode("utf-8")
