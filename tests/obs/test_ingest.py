"""Ingest session: parity with one-shot analysis, and the failure modes."""

from __future__ import annotations

import pytest

from repro.obs.ingest import IngestSession, SessionDegradedError
from repro.obs.store import RunStore
from tests.obs.conftest import MINI_MOUNT


@pytest.fixture
def session():
    s = IngestSession("lttng", mount_point=MINI_MOUNT, suite_name="mini")
    yield s
    s.close()


def _feed_in_pieces(session, text: str, piece: int) -> None:
    for start in range(0, len(text), piece):
        session.feed_text(text[start:start + piece])
    session.end_of_stream()
    assert session.flush()


@pytest.mark.parametrize("piece", (1 << 20, 137, 61))
def test_streamed_parity_with_one_shot(session, mini_trace, mini_report, piece):
    """A trace split at arbitrary byte offsets counts identically."""
    with open(mini_trace) as handle:
        text = handle.read()
    _feed_in_pieces(session, text, piece)
    assert session.report().to_dict() == mini_report.to_dict()


def test_flush_makes_counts_visible(session):
    assert session.report().events_processed == 0
    session.feed_lines(
        ['[00:00:00.000000003] (+0.000000001) sim syscall_entry_close:'
         ' { cpu_id = 0 }, { procname = "t", pid = 1 }, { fd = 3 }',
         '[00:00:00.000000004] (+0.000000001) sim syscall_exit_close:'
         ' { cpu_id = 0 }, { procname = "t", pid = 1 }, { ret = 0 }']
    )
    assert session.flush()
    assert session.report().events_processed == 1
    assert session.events_counted == 1


def test_malformed_lines_quarantined_below_grace(session):
    session.feed_lines(["this is not lttng at all", "neither is this"])
    session.flush()
    assert not session.degraded
    assert session.parser.malformed_lines == 2
    assert len(session.quarantine) == 2
    assert session.quarantine[0].line == "this is not lttng at all"
    stats = session.stats()
    assert stats["parse_errors"] == 2
    assert stats["degraded"] is False


def test_feed_lines_splits_items_like_a_file_reader(session, mini_trace, mini_report):
    """readlines() output (endings kept) and multi-line items count as lines."""
    with open(mini_trace) as handle:
        lines = handle.readlines()
    session.feed_lines(lines + ["not lttng\nnor this"])
    assert session.flush()
    assert session.report().to_dict() == mini_report.to_dict()
    assert session.lines_received == len(lines) + 2
    assert [(q.line_number, q.line) for q in session.quarantine] == [
        (len(lines) + 1, "not lttng"),
        (len(lines) + 2, "nor this"),
    ]


def test_error_budget_degrades_session():
    session = IngestSession(
        "lttng", suite_name="bad", error_budget=0.5, budget_grace=5
    )
    try:
        session.feed_lines([f"garbage {n}" for n in range(10)])
        session.flush()
        assert session.degraded
        with pytest.raises(SessionDegradedError):
            session.feed_lines(["more garbage"])
    finally:
        session.close()


def test_blank_lines_are_not_malformed(session):
    session.feed_lines(["", "   ", ""])
    session.flush()
    assert session.parser.malformed_lines == 0
    assert session.quarantine == []


def test_journal_written_before_counting(tmp_path, mini_trace):
    store = RunStore(str(tmp_path / "runs.sqlite"))
    session = IngestSession(
        "lttng", mount_point=MINI_MOUNT, store=store, journal_session="live"
    )
    try:
        with open(mini_trace) as handle:
            lines = handle.read().splitlines()
        session.feed_lines(lines)
        session.flush()
        assert store.journal_size("live") == len(lines)
    finally:
        session.close()
        store.close()


def test_crash_recovery_replays_journal(tmp_path, mini_trace, mini_report):
    """Journaled-but-never-counted lines survive a simulated crash."""
    path = str(tmp_path / "runs.sqlite")
    store = RunStore(path)
    session = IngestSession("lttng", mount_point=MINI_MOUNT, store=store)
    with open(mini_trace) as handle:
        lines = handle.read().splitlines()
    session.feed_lines(lines)
    # Crash: the worker dies with the queue still full; no flush, no
    # snapshot.  The journal is the only durable record.
    session.close(drain=False)
    store.close()

    store = RunStore(path)
    fresh = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        replayed = fresh.recover()
        assert replayed == len(lines)
        assert fresh.report().to_dict() == mini_report.to_dict()
        # Recovery must not double-journal what is already durable.
        assert store.journal_size("live") == len(lines)
    finally:
        fresh.close()
        store.close()


def test_snapshot_to_store_clears_journal(tmp_path, mini_trace, mini_report):
    store = RunStore(str(tmp_path / "runs.sqlite"))
    session = IngestSession(
        "lttng", mount_point=MINI_MOUNT, suite_name="mini", store=store
    )
    try:
        with open(mini_trace) as handle:
            session.feed_text(handle.read())
        session.end_of_stream()
        run_id = session.snapshot_to_store(meta={"reason": "test"})
        assert store.load_report(run_id).to_dict() == mini_report.to_dict()
        assert store.journal_size("live") == 0
        assert store.get_run(run_id).meta["reason"] == "test"
        assert session.runs_stored == 1
    finally:
        session.close()
        store.close()


def test_snapshot_without_store_raises(session):
    with pytest.raises(RuntimeError):
        session.snapshot_to_store()


def test_close_rejects_further_feeding(session):
    session.close()
    with pytest.raises(RuntimeError):
        session.feed_lines(["late line"])


def test_metrics_instrumented(session, mini_trace):
    with open(mini_trace) as handle:
        session.feed_text(handle.read())
    session.end_of_stream()
    session.flush()
    labels = {"tenant": session.tenant, "project": session.project}
    assert session.m_lines.value(**labels) == session.lines_received
    assert session.m_events.value(**labels) == session.events_counted > 0
    assert session.m_batch_seconds.count > 0
