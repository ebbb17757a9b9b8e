"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import signal
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from perfbench import calib, spans, stats  # noqa: E402
from perfbench.bench import Rep, check_against, end_to_end, per_layer  # noqa: E402
from perfbench.workloads import MiB, AtcSweep  # noqa: E402
from repro.workloads import GdrSweepRow  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(spans.self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_one_tree_add_up_to_the_root_duration():
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.5]
    parent = [-1, 0, 1, 0, 3]
    assert sum(spans.self_times(start, end, parent)) == pytest.approx(10.0)


def test_recorder_nests_wrapped_calls_and_sums_self_time_by_name():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("memory/leaf", lambda x: x + 1)
    mid = recorder.wrap("pcie/mid", lambda x: leaf(leaf(x)))
    root = recorder.wrap(spans.ROOT_SPAN, lambda x: mid(x) + leaf(x))
    assert root(1) == 5
    names = [recorder.names[i] for i in recorder.name]
    assert names == [spans.ROOT_SPAN, "pcie/mid", "memory/leaf", "memory/leaf",
                     "memory/leaf"]
    assert list(recorder.parent) == [-1, 0, 1, 1, 0]
    assert recorder.calls_by_name() == {
        spans.ROOT_SPAN: 1, "pcie/mid": 1, "memory/leaf": 3}
    by_name = recorder.self_seconds_by_name()
    assert sum(by_name.values()) == pytest.approx(recorder.end[0] - recorder.start[0])
    assert all(seconds >= 0 for seconds in by_name.values())


def test_recorder_closes_a_span_when_the_call_raises():
    recorder = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("memory/boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.end[0] >= recorder.start[0] > 0
    assert recorder.wrap("memory/ok", lambda: 1)() == 1
    assert list(recorder.parent) == [-1, -1]


# -- tracer install / removal --------------------------------------------------

def test_tracer_restores_every_wrapped_entry_point():
    from repro.net.packet_sim import MessageFlow

    targets = [spans._resolve(module, path) for _, module, path in spans.TARGETS]
    before = [owner.__dict__[attribute] for owner, attribute in targets]
    init_before = MessageFlow.__dict__["__init__"]
    with spans.LayerTracer():
        during = [owner.__dict__[attribute] for owner, attribute in targets]
        assert all(a is not b for a, b in zip(before, during))
    after = [owner.__dict__[attribute] for owner, attribute in targets]
    assert all(a is b for a, b in zip(before, after))
    assert MessageFlow.__dict__["__init__"] is init_before


# -- aggregation and failure fractions ----------------------------------------

def _timed_rep(traced, setup_s, run_s, work, layer=None):
    rep = Rep(seed=17, traced=traced)
    rep.setup_s, rep.run_s, rep.work, rep.layer = setup_s, run_s, work, layer
    return rep


def test_end_to_end_takes_medians_of_untraced_runs_and_of_every_setup():
    reps = [_timed_rep(False, 0.3, 2.0, 100.0), _timed_rep(False, 0.1, 4.0, 200.0),
            _timed_rep(False, 0.2, 3.0, 90.0), _timed_rep(True, 0.2, 9.0, 100.0)]
    metrics = end_to_end([0.5, 0.4], reps)
    assert metrics["run_s"] == 3.0
    assert metrics["work_per_s"] == 50.0
    # Median of the standalone set-ups and every repetition's set-up.
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"] > 0


def test_per_layer_takes_medians_of_traced_runs_and_the_overhead():
    reps = [_timed_rep(False, 0.1, 2.0, 1.0),
            _timed_rep(True, 0.1, 2.2, 1.0, {"pcie.self_s": 1.0, "pcie.calls": 7}),
            _timed_rep(True, 0.1, 2.6, 1.0, {"pcie.self_s": 2.0, "pcie.calls": 7}),
            _timed_rep(False, 0.1, 2.0, 1.0)]
    metrics = per_layer(reps)
    assert metrics["pcie.self_s"] == 1.5
    assert metrics["pcie.calls"] == 7
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)


# -- host-speed calibration ----------------------------------------------------

def test_reference_seconds_scale_by_the_mean_probe():
    ref = calib.REFERENCE_PROBE_S
    assert calib.reference_seconds(3.0, [ref, ref]) == pytest.approx(3.0)
    # Probes twice as slow as reference: the host ran at half speed.
    assert calib.slowdown([1.5 * ref, 2.5 * ref]) == pytest.approx(2.0)
    assert calib.reference_seconds(3.0, [1.5 * ref, 2.5 * ref]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        calib.slowdown([])


def test_timed_region_takes_its_probes_out_and_restores_the_alarm():
    def previous(signum, frame):
        pass

    signal.signal(signal.SIGALRM, previous)
    try:
        began = time.perf_counter()
        with calib.Timed() as timed:
            end = time.perf_counter() + 3 * calib.INTERVAL_S
            while time.perf_counter() < end:
                sum(range(1000))
        elapsed = time.perf_counter() - began
        inside = len(timed.probes) - 2 * calib.BRACKET
        assert inside >= 1
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert timed.host_s < elapsed - sum(timed.probes[:calib.BRACKET])
    assert timed.ref_s == pytest.approx(calib.reference_seconds(timed.host_s, timed.probes))


def test_unsampled_region_takes_only_the_bracketing_probes():
    with calib.Timed(sample=False) as timed:
        time.sleep(2 * calib.INTERVAL_S)
    assert len(timed.probes) == 2 * calib.BRACKET
    assert timed.host_s >= 2 * calib.INTERVAL_S


# -- digests and failure counting ----------------------------------------------

OPS = {"job-a": {"iters": 40, "wait_s": 1.25}, "job-b": {"iters": 8, "wait_s": 0.5}}


def test_digest_ignores_last_bit_float_noise_but_not_real_changes():
    assert stats.digest(0.1 + 0.2) == stats.digest(0.3)
    assert stats.digest(0.3) != stats.digest(0.3001)
    assert stats.digest((1, 2.0)) == stats.digest([1, 2.0])
    assert stats.digest({"a": 1, "b": 2}) == stats.digest({"b": 2, "a": 1})


def test_corrupted_op_is_a_mismatch():
    expected = stats.digest_outputs(OPS, (1.0, 2.0))
    corrupted = dict(OPS, **{"job-b": {"iters": 7, "wait_s": 0.5}})
    observed = stats.digest_outputs(corrupted, (1.0, 2.0))
    assert stats.mismatched_ops(observed, expected) == {"job-b"}
    assert stats.mismatched_ops(expected, expected) == set()


def test_corrupted_shared_output_fails_every_op():
    expected = stats.digest_outputs(OPS, (1.0, 2.0))
    observed = stats.digest_outputs(OPS, (1.0, 2.5))
    assert stats.mismatched_ops(observed, expected) == {"job-a", "job-b"}


def test_missing_op_is_a_mismatch():
    expected = stats.digest_outputs(OPS, None)
    observed = stats.digest_outputs({"job-a": OPS["job-a"]}, None)
    assert stats.mismatched_ops(observed, expected) == {"job-b"}


def _rep(ops, counters, shared=None):
    rep = Rep(seed=17, traced=False)
    rep.digests = stats.digest_outputs(ops, shared)
    rep.ops = len(ops)
    rep.counters = counters
    return rep


def test_digest_mismatch_against_the_record_counts_as_failed_ops():
    expected = stats.digest_outputs(OPS, None)
    rep = _rep(dict(OPS, **{"job-a": {"iters": 41, "wait_s": 1.25}}), {})
    check_against(rep, [], expected)
    assert rep.failed == {"job-a"}
    assert stats.ops_failed_frac(len(rep.failed), rep.ops) == 0.5


def test_repetition_that_differs_from_the_first_fails():
    first = _rep(OPS, {"cluster.events": 458})
    check_against(first, [], None)
    same = _rep(OPS, {"cluster.events": 458})
    check_against(same, [first], None)
    assert first.failed == same.failed == set()
    drifted = _rep(OPS, {"cluster.events": 459})
    check_against(drifted, [first], None)
    assert drifted.failed == {"job-a", "job-b"}
    assert any("cluster.events" in note for note in drifted.notes)


def test_drifted_counters():
    assert stats.drifted_counters({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert stats.drifted_counters({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 0}) == ["b", "c"]


# -- Fig 8 regime bands ----------------------------------------------------------

def _fig8_rows():
    # (gbps, atc hit, iotlb hit, avg PCIe latency s) inside every band.
    points = {
        2 * MiB: (190.0, 1.0, 1.0, 100e-9),
        4 * MiB: (170.0, 0.0, 1.0, 1000e-9),
        32 * MiB: (170.0, 0.0, 1.0, 1000e-9),
        64 * MiB: (150.0, 0.0, 0.0, 2000e-9),
    }
    return [GdrSweepRow(size, gbps * 1e9, atc, iotlb, latency)
            for size, (gbps, atc, iotlb, latency) in sorted(points.items())]


def test_fig8_bands_pass_in_band_rows():
    assert AtcSweep().failed_checks(None, _fig8_rows()) == set()


def test_fig8_bands_count_a_corrupted_point():
    rows = _fig8_rows()
    rows[2] = GdrSweepRow(32 * MiB, 190.0e9, 0.0, 1.0, 1000e-9)  # no knee
    assert AtcSweep().failed_checks(None, rows) == {"%dB" % (32 * MiB)}
