"""One ingest path: every way into IOCov counts the same rows.

Each case is a trace text in one format.  Every applicable path --
events through ``consume``, the text file readers, the binary ``.rbt``
reader, the sharded executor (in-process, and through the real worker
pool with each worker reading its own span from disk), and a live ``IngestSession`` fed in arbitrary pieces -- must produce
the same report dict and the same parse statistics, and the counted
``events_processed`` must equal the rows the parser emitted.
"""

from __future__ import annotations

import os

import pytest

from repro.core import IOCov
from repro.parallel import executor, run_sharded, shutdown_pool
from repro.testsuites.fuzzer import CoverageGuidedFuzzer
from repro.trace.batch import make_batch_parser
from repro.trace.binary import convert_file
from repro.trace.lttng import LttngWriter
from repro.trace.textparse import split_lines
from tests.trace.test_batch import FORMFEED_LTTNG, FORMFEED_STRACE
from tests.trace.test_push import MINI, SUITE, push_pieces


def _cases():
    fuzzer = CoverageGuidedFuzzer(seed=11, mount_point="/mnt/fuzz")
    fuzzer.run(iterations=30)
    with open(MINI, encoding="utf-8") as handle:
        mini = handle.read()
    return {
        "fuzzer-lttng": ("lttng", LttngWriter().dumps(fuzzer.all_events), "/mnt/fuzz"),
        "fuzzer-syzkaller": ("syzkaller", fuzzer.export_corpus() + "\n", None),
        "mini": ("lttng", mini, "/mnt/test"),
        "formfeed-lttng": ("lttng", FORMFEED_LTTNG, "/mnt/test"),
        "formfeed-strace": ("strace", FORMFEED_STRACE, "/mnt/test"),
    }


CASES = _cases()


@pytest.fixture(scope="module", autouse=True)
def _stop_pool():
    yield
    shutdown_pool()


def _malformed_lines(fmt: str, text: str) -> list[int]:
    """1-based numbers of grammar-rejected lines, judged one by one."""
    numbers = []
    for number, line in enumerate(split_lines(text), 1):
        parser = make_batch_parser(fmt)
        parser.parse_line(line)
        if parser.malformed_lines:
            numbers.append(number)
    return numbers


@pytest.mark.parametrize("case", sorted(CASES))
def test_ingest_paths_agree(case, tmp_path, monkeypatch):
    fmt, text, mount = CASES[case]
    path = str(tmp_path / f"trace.{fmt}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)

    parser = make_batch_parser(fmt)
    reference = IOCov(mount_point=mount, suite_name=SUITE).consume(
        parser.iter_parse_file(path)
    )
    want = reference.report().to_dict()
    want_stats = parser.stats()
    assert reference.events_processed == parser.events_parsed

    text_file = IOCov(mount_point=mount, suite_name=SUITE)
    getattr(text_file, f"consume_{fmt}_file")(path)
    assert text_file.report().to_dict() == want
    assert text_file.parse_stats == want_stats

    rbt = str(tmp_path / "trace.rbt")
    convert_file(path, rbt, fmt)
    binary = IOCov(mount_point=mount, suite_name=SUITE).consume_rbt_file(rbt)
    assert binary.report().to_dict() == want
    assert binary.parse_stats == want_stats

    # Fan-out at any trace size, on any box: every case gets >= 2 spans.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(executor, "MIN_SHARD_EVENTS", 0)
    monkeypatch.setattr(executor, "MIN_SHARD_EVENTS_WARM", 0)
    for jobs, inline in ((3, True), (2, False)):
        stats: dict = {}
        sharded = run_sharded(
            path,
            fmt=fmt,
            jobs=jobs,
            mount_point=mount,
            suite_name=SUITE,
            inline=inline,
            min_shard_bytes=1,
            stats=stats,
        )
        assert stats["shards"] >= 2 and not stats["sequential_fallback"], stats
        assert inline or stats["pool"]["workers"] >= 2
        assert sharded.to_dict() == want, inline
        assert stats["parse"] == want_stats, inline

    malformed = _malformed_lines(fmt, text)
    assert len(malformed) == want_stats["malformed_lines"]
    for piece in (7, 211, 1 << 20):
        report, stats, quarantined = push_pieces(fmt, text, mount, piece)
        assert report == want, piece
        assert stats == want_stats, piece
        assert quarantined == malformed, piece
