"""Push-mode feeding: lines one at a time, or payloads cut anywhere.

A live daemon receives trace text in arbitrary network-sized pieces
and must keep LTTng entry/exit pairing and syzkaller resource bindings
alive between feeds.  There is no separate push parser: the one parser
per format takes lines one at a time (``parse_line``) or in chunks
(``parse_chunk``, which also reports where the lines its grammar
rejected sit), and :class:`~repro.obs.ingest.IngestSession` carries
partial lines over from one piece to the next.  Whatever is pushed
must count exactly as the same text read from a file.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IOCov
from repro.obs.ingest import IngestSession
from repro.trace.batch import make_batch_parser, make_parse_stats
from repro.trace.events import make_event
from repro.trace.lttng import LttngParser, LttngWriter

MINI = "tests/parallel/fixtures/mini.lttng.txt"
SUITE = "push"

_EVENT = st.builds(
    make_event,
    name=st.sampled_from(["open", "openat", "write", "read", "lseek", "close"]),
    args=st.dictionaries(
        st.sampled_from(["pathname", "flags", "mode", "fd", "count", "whence"]),
        st.integers(min_value=-(2**31), max_value=2**31),
        max_size=4,
    ),
    retval=st.integers(min_value=-133, max_value=2**31),
    errno=st.just(0),
    pid=st.integers(min_value=0, max_value=65535),
    comm=st.just("tester"),
    timestamp=st.integers(min_value=0, max_value=10**12),
)


def push_pieces(fmt: str, text: str, mount: str | None, piece: int):
    """Feed *text* to a live session in *piece*-character payloads.

    Returns ``(report dict, parse stats, quarantined line numbers)``.
    """
    session = IngestSession(fmt, mount_point=mount, suite_name=SUITE)
    try:
        for start in range(0, len(text), piece):
            session.feed_text(text[start : start + piece])
        session.end_of_stream()
        assert session.flush()
        parser = session.parser
        stats = make_parse_stats(
            fmt, parser.skipped_lines, parser.malformed_lines, parser.pending_entries
        )
        quarantined = [item.line_number for item in session.quarantine]
        return session.report().to_dict(), stats, quarantined
    finally:
        session.close()


def _read_whole(fmt: str, text: str):
    parser = make_batch_parser(fmt)
    report = IOCov(suite_name=SUITE).consume(parser.parse_text(text)).report()
    return report.to_dict(), parser.stats()


@given(events=st.lists(_EVENT, max_size=15), piece=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_lttng_push_parity_any_split(events, piece):
    """Pushed in arbitrary pieces == the events themselves, for any trace."""
    text = LttngWriter().dumps(events)
    want = IOCov(suite_name=SUITE).consume(events).report().to_dict()
    report, stats, quarantined = push_pieces("lttng", text, None, piece)
    assert report == want
    assert stats == make_parse_stats("lttng", 0, 0, 0)
    assert quarantined == []


@pytest.mark.parametrize("piece", (7, 211, 1 << 20))
def test_lttng_push_parity_real_fixture(piece):
    with open(MINI) as handle:
        text = handle.read()
    report, stats, _ = push_pieces("lttng", text, None, piece)
    assert (report, stats) == _read_whole("lttng", text)


def test_lttng_pending_entries_and_orphan_exits():
    parser = LttngParser()
    entry = ('[00:00:00.000000001] (+0.000000001) sim syscall_entry_close:'
             ' { cpu_id = 0 }, { procname = "t", pid = 5 }, { fd = 3 }')
    orphan_exit = ('[00:00:00.000000002] (+0.000000001) sim syscall_exit_read:'
                   ' { cpu_id = 0 }, { procname = "t", pid = 5 }, { ret = 0 }')
    # Mid-stream start: a benign skip, neither malformed nor kept.
    assert parser.parse_line(orphan_exit) is None
    assert (parser.skipped_lines, parser.malformed_lines) == (1, 0)
    assert parser.orphans is None
    assert parser.parse_line(entry) is None
    assert parser.unpaired_entries == 1
    exit_line = entry.replace("entry", "exit").replace("{ fd = 3 }", "{ ret = 0 }")
    event = parser.parse_line(exit_line)
    assert (event.name, event.args, event.pid) == ("close", {"fd": 3}, 5)
    assert parser.unpaired_entries == 0


def test_lttng_malformed_detection():
    parser = make_batch_parser("lttng")
    assert parser.parse_chunk("utter garbage\n\n") == []
    assert parser.malformed_at == [0]  # the blank line is not malformed
    assert (parser.malformed_lines, parser.skipped_lines) == (1, 2)
    parser.parse_chunk("\n")
    assert parser.malformed_at == []  # positions are per chunk
    session = IngestSession("lttng")
    try:
        session.feed_text("utter garbage\n\n")
        assert session.flush()
        assert session.parser.lines_fed == 2
        assert [item.line_number for item in session.quarantine] == [1]
    finally:
        session.close()


def test_strace_push_parity():
    text = (
        'open("/mnt/test/f", O_RDONLY|O_CLOEXEC) = 3\n'
        "read(3, 100) = 100\n"
        "close(3) = 0\n"
        'open("/mnt/test/missing", O_WRONLY) = -1 ENOENT (No such file)\n'
    )
    report, stats, _ = push_pieces("strace", text, None, 13)
    assert (report, stats) == _read_whole("strace", text)
    assert report["events_processed"] == 4


def test_strace_noise_is_not_malformed():
    noise = [
        "--- SIGCHLD {si_signo=SIGCHLD} ---",
        "+++ exited with 0 +++",
        'write(1, "x", 1 <unfinished ...>',
        "<... write resumed>) = 1",
        "exit_group(0) = ?",
        "",
    ]
    parser = make_batch_parser("strace")
    assert parser.parse_chunk("\n".join(noise) + "\n") == []
    assert parser.malformed_at == []
    parser.parse_chunk("\n".join([*noise, "complete nonsense here"]) + "\n")
    assert parser.malformed_at == [len(noise)]
    assert parser.malformed_lines == 1


def test_syzkaller_push_keeps_resource_bindings():
    text = 'r0 = open(&(0x7f0000000000)="2f746d702f78", 0x2, 0x1ff)\nclose(r0)\n'
    report, stats, _ = push_pieces("syzkaller", text, None, 9)
    assert (report, stats) == _read_whole("syzkaller", text)
    parser = make_batch_parser("syzkaller")
    events = [parser.parse_line(line) for line in text.splitlines()]
    assert [event.name for event in events] == ["open", "close"]
    assert events[1].args["fd"] == 3  # r0, bound by the line before


def test_syzkaller_malformed_detection():
    parser = make_batch_parser("syzkaller")
    parser.parse_chunk("# a comment\n]]]]not a program[[[\n")
    assert parser.malformed_at == [1]
    assert parser.malformed_lines == 1


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        make_batch_parser("dtrace")
    with pytest.raises(ValueError):
        IngestSession("dtrace")
