"""CrashMonkey substrate: seq-1 enumeration, crash checks, calibration."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.core import IOCov
from repro.testsuites import CrashMonkeySuite, Seq1Generator, SuiteRunner


def test_seq1_generates_exactly_300_workloads():
    specs = list(Seq1Generator())
    assert len(specs) == 300
    assert len({spec.name for spec in specs}) == 300


def test_seq1_specs_cover_all_ops_and_modes():
    specs = list(Seq1Generator())
    assert {spec.persist for spec in specs} == {"none", "fsync", "fdatasync", "sync"}
    assert len({spec.op for spec in specs}) >= 8


#: SHA-256 of the stdout of
#: ``repro suites --suite crashmonkey --scale 1.0 --seed 3 --json``, as
#: produced when every checkpoint deep-copied the whole volume.
PAPER_SCALE_SEED3_SHA256 = (
    "920af160e220f36c25bed43f610c7b5a1fc6b04b89e577759aa2b94c27b86245"
)


def test_paper_scale_reproduction_is_pinned(capsys):
    argv = ["suites", "--suite", "crashmonkey", "--scale", "1.0", "--seed", "3"]
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_SCALE_SEED3_SHA256
    (run,) = json.loads(out)["runs"]
    # EXPERIMENTS.md: the paper-calibrated open(O_RDONLY) frequency.
    assert run["coverage"]["input_coverage"]["open"]["flags"]["O_RDONLY"] == 7924


@pytest.fixture(scope="module")
def cm_run():
    """One full CrashMonkey run at a small calibration scale."""
    suite = CrashMonkeySuite(scale=0.05)
    result = SuiteRunner(suite).run()
    return suite, result


def test_no_workload_failures(cm_run):
    suite, result = cm_run
    assert result.failures == []
    assert suite.violations == []


def test_seq1_plus_generic_workloads_ran(cm_run):
    _, result = cm_run
    groups = {wr.group for wr in result.workload_results}
    assert groups == {"seq1", "generic"}
    assert len(result.workload_results) == 305


def test_trace_contains_persistence_ops(cm_run):
    _, result = cm_run
    names = {event.name for event in result.events}
    assert {"fsync", "fdatasync", "sync"} <= names


def test_crashmonkey_flag_shape(cm_run):
    """Even at 5% scale the flag shape holds: O_RDONLY dominates and
    the never-tested flags stay at zero."""
    _, result = cm_run
    report = IOCov(mount_point="/mnt/test", suite_name="cm").consume(result.events).report()
    flags = report.input_frequencies("open", "flags")
    assert flags["O_RDONLY"] == max(
        flags[k] for k in ("O_RDONLY", "O_WRONLY", "O_RDWR")
    )
    for never in ("O_LARGEFILE", "O_PATH", "O_TMPFILE", "O_NOATIME", "O_ASYNC"):
        assert flags[never] == 0


def test_crashmonkey_errors_limited_to_four_codes(cm_run):
    _, result = cm_run
    report = IOCov(mount_point="/mnt/test").consume(result.events).report()
    observed = {
        code
        for code, count in report.output_frequencies("open").items()
        if count and not code.startswith("OK")
    }
    assert observed <= {"ENOENT", "EEXIST", "ENOTDIR", "EISDIR"}
    assert "ENOTDIR" in observed


def test_deterministic_across_runs():
    result_a = SuiteRunner(CrashMonkeySuite(scale=0.02)).run()
    result_b = SuiteRunner(CrashMonkeySuite(scale=0.02)).run()
    assert len(result_a.events) == len(result_b.events)
    assert [e.name for e in result_a.events[:200]] == [
        e.name for e in result_b.events[:200]
    ]


def test_crash_consistency_detects_injected_violation():
    """Sabotage the durability model: the checker must catch it."""
    suite = CrashMonkeySuite(scale=0.02, run_generic=False)
    runner = SuiteRunner(suite)
    fs = suite.make_filesystem()
    ctx = runner._make_context(fs)
    runner._mount(ctx)

    # Run one seq-1 workload but corrupt the durable image first:
    # checkpoint() silently forgets to persist (simulate by crashing
    # right after the op *without* the checkpoint the persist mode did).
    from repro.testsuites.crashmonkey import CrashConsistencyViolation, Seq1Spec

    spec = Seq1Spec(index=0, op="creat", target="foo", persist="sync")
    original_checkpoint = ctx.crash_sim.checkpoint
    calls = {"n": 0}

    def flaky_checkpoint():
        calls["n"] += 1
        if calls["n"] >= 2:  # drop the post-op barrier
            return None
        return original_checkpoint()

    ctx.crash_sim.checkpoint = flaky_checkpoint
    with pytest.raises(CrashConsistencyViolation):
        suite._run_seq1(ctx, spec)
    assert suite.violations
