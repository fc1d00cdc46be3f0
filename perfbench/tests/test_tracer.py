"""Self-time arithmetic and span nesting of the benchmark's tracer."""

from __future__ import annotations

import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracer  # noqa: E402


def span(span_id, name, start, end, parent):
    return (span_id, name, start, end, parent, "run", 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, "a", 0, 100, 0),
        span(2, "b", 10, 40, 1),
        span(3, "c", 20, 30, 2),
        span(4, "d", 50, 90, 1),
    ]
    times = {name: round(value * 1e9) for name, value in tracer.self_times(spans).items()}
    assert times == {"a": 30, "b": 20, "c": 10, "d": 40}
    assert sum(times.values()) == 100  # the root's duration, no more, no less
    assert round(tracer.root_seconds(spans) * 1e9) == 100


def test_self_time_sums_spans_of_one_name():
    spans = [
        span(1, "a", 0, 50, 0),
        span(2, "a", 10, 20, 1),  # recursion: inner span of the same name
        span(3, "a", 60, 70, 0),
    ]
    assert round(tracer.self_times(spans)["a"] * 1e9) == 60


def test_wrappers_nest_and_account_for_the_root():
    recorder = tracer.Tracer()
    outer_flags = []

    def leaf():
        return sum(range(1000))

    leaf = tracer.wrap(recorder, "leaf", leaf,
                       after=lambda b, a, k, r, outer: outer_flags.append(outer))

    def middle():
        return leaf() + leaf()

    middle = tracer.wrap(recorder, "middle", middle)

    def root():
        return middle() + leaf()

    root = tracer.wrap(recorder, "root", root)
    root()
    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record[1], []).append(record)
    (root_span,) = by_name["root"]
    (middle_span,) = by_name["middle"]
    assert root_span[4] == 0
    assert middle_span[4] == root_span[0]
    assert sorted(s[4] for s in by_name["leaf"]) == sorted(
        [middle_span[0], middle_span[0], root_span[0]]
    )
    assert outer_flags == [True, True, True]
    total = sum(tracer.self_times(recorder.spans).values())
    assert abs(total - tracer.root_seconds(recorder.spans)) < 1e-9


def test_generator_spans_cover_only_next_calls():
    recorder = tracer.Tracer()
    items = tracer.wrap_generator(recorder, "gen", lambda: iter(range(3)),
                                  on_item=lambda item: recorder.count("items"))

    def consume():
        return list(items())

    consume = tracer.wrap(recorder, "consumer", consume)
    assert consume() == [0, 1, 2]
    gen_spans = [s for s in recorder.spans if s[1] == "gen"]
    consumer = next(s for s in recorder.spans if s[1] == "consumer")
    assert len(gen_spans) == 4  # three items plus the exhausting call
    assert all(s[4] == consumer[0] for s in gen_spans)
    assert recorder.counters["items"] == 3


def test_threads_keep_separate_stacks():
    recorder = tracer.Tracer()
    inner = tracer.wrap(recorder, "inner", lambda: None)
    barrier = threading.Barrier(2)

    def body():
        barrier.wait()
        inner()

    outer = tracer.wrap(recorder, "outer", body)
    worker = threading.Thread(target=body)
    worker.start()
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outer_span = next(s for s in recorder.spans if s[1] == "outer")
    parents = sorted(s[4] for s in recorder.spans if s[1] == "inner")
    assert parents == [0, outer_span[0]]


def test_recording_off_records_nothing():
    recorder = tracer.Tracer()
    recorder.recording = False
    assert tracer.wrap(recorder, "x", lambda: 7)() == 7
    assert recorder.spans == []
