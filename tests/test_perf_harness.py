"""repro.perf harness tests: timing plumbing, BENCH_perf.json round
trips, baseline selection, and the machine-normalized regression gate.

Kernel *timings* are machine-dependent and never asserted; what is
asserted is the contract around them — determinism of event counts,
schema shape, and gate arithmetic.
"""

import json

import pytest

from repro.perf import harness
from repro.perf.harness import (
    KERNELS,
    KernelSpec,
    check_regression,
    find_baseline,
    load_bench,
    machine_score,
    run_suite,
    time_kernel,
    write_bench,
)


def _entry(label, mode, score, eps_by_kernel):
    return {
        "label": label,
        "mode": mode,
        "machine_score": score,
        "kernels": {
            name: {"wall_seconds": 1.0, "events": int(eps),
                   "events_per_sec": eps, "repeats": 1, "meta": {}}
            for name, eps in eps_by_kernel.items()
        },
    }


class TestMachineScore:
    def test_score_is_positive_and_plausible(self):
        score = machine_score()
        # A frozen 2M-iteration LCG loop: anything from an embedded core
        # to a fast desktop lands within these rails.
        assert 1e5 < score < 1e9


class TestTimeKernel:
    def test_best_of_n_and_stable_events(self):
        calls = []

        def fake_kernel(smoke=False):
            calls.append(smoke)
            return {"events": 123, "meta": {"k": 1}}

        spec = KernelSpec("fake", fake_kernel, 3, "test kernel")
        result = time_kernel(spec, smoke=True)
        assert calls == [True, True, True]
        assert result.events == 123
        assert result.repeats == 3
        assert result.meta == {"k": 1}
        assert result.wall_seconds >= 0.0

    def test_nondeterministic_kernel_is_rejected(self):
        counter = {"n": 0}

        def flaky_kernel(smoke=False):
            counter["n"] += 1
            return {"events": counter["n"], "meta": {}}

        spec = KernelSpec("flaky", flaky_kernel, 2, "drifting event count")
        with pytest.raises(AssertionError):
            time_kernel(spec)

    def test_events_per_sec_handles_zero_wall(self):
        from repro.perf.harness import KernelResult

        assert KernelResult("x", 0.0, 10, {}, 1).events_per_sec == 0.0


class TestSuite:
    def test_unknown_kernel_name_raises(self):
        with pytest.raises(KeyError):
            run_suite(smoke=True, names=["no_such_kernel"])

    def test_smoke_suite_runs_one_real_kernel(self):
        report = run_suite(smoke=True, names=["scheduler_churn"])
        assert report.mode == "smoke"
        assert report.machine_score > 0
        result = report.results["scheduler_churn"]
        assert result.events > 0
        assert result.events_per_sec > 0
        entry = report.to_entry("test-label")
        assert entry["label"] == "test-label"
        assert entry["mode"] == "smoke"
        assert "scheduler_churn" in entry["kernels"]

    def test_kernel_registry_matches_issue_suite(self):
        assert set(KERNELS) == {
            "scheduler_churn", "scheduler_cancel", "packet_fig9",
            "packet_fig11", "flight_overhead", "fluid_allreduce_512",
            "fleet_churn", "fleet_1024_churn", "fleet_1024_hybrid",
            "runner_fanout", "trace_replay", "fig8_translation",
        }

    def test_fig8_translation_kernel_counts_page_translations(self):
        # Smoke: 4 MiB is 16 x 1024 pages, warm + full window; 64 MiB is
        # 16 x 16384 pages warm, then the 200,000-page window.
        out = KERNELS["fig8_translation"].fn(smoke=True)
        assert out["events"] == 2 * 16 * 1024 + 16 * 16384 + 200_000
        assert out["meta"]["points"] == 2

    def test_flight_overhead_kernel_modes_do_identical_work(self):
        # The overhead gate's correctness half: attaching a recorder to
        # the lossy fig11 ring must not change the scheduler's work.
        out = KERNELS["flight_overhead"].fn(smoke=True)
        meta = out["meta"]
        assert meta["disabled_events"] == meta["enabled_events"]
        assert out["events"] == 2 * meta["disabled_events"]
        assert meta["flight_recorded"] > 0
        assert meta["flight_dropped"] == 0
        # Deterministic: a second run does the same work.
        again = KERNELS["flight_overhead"].fn(smoke=True)
        assert again["events"] == out["events"]
        assert again["meta"]["flight_recorded"] == meta["flight_recorded"]

    def test_runner_fanout_modes_agree_on_events(self, monkeypatch):
        # The fan-out kernel must do bit-identical work inline and pooled
        # (the PR 2/PR 4 invariant); only the wall clock may differ.
        monkeypatch.setenv("REPRO_RUNNER_MODE", "sequential")
        sequential = KERNELS["runner_fanout"].fn(smoke=True)
        monkeypatch.setenv("REPRO_RUNNER_MODE", "pooled")
        monkeypatch.setenv("REPRO_RUNNER_WORKERS", "2")
        pooled = KERNELS["runner_fanout"].fn(smoke=True)
        assert sequential["events"] == pooled["events"]
        assert sequential["meta"]["packets"] == pooled["meta"]["packets"]
        assert sequential["meta"]["rtos"] == pooled["meta"]["rtos"]
        assert sequential["meta"]["mode"] == "sequential"
        assert pooled["meta"]["mode"] == "pooled"


class TestBenchFile:
    def test_missing_file_is_empty_history(self, tmp_path):
        data = load_bench(str(tmp_path / "nope.json"))
        assert data == {"schema": harness.SCHEMA, "history": []}

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_perf.json")
        data = load_bench(path)
        data["history"].append(_entry("a", "full", 1e7, {"k": 100.0}))
        write_bench(path, data)
        again = load_bench(path)
        assert again["history"][0]["label"] == "a"
        # File is plain JSON, newline-terminated.
        text = open(path).read()
        assert text.endswith("\n")
        json.loads(text)

    def test_find_baseline_prefers_newest_matching_mode(self, tmp_path):
        data = {"schema": 1, "history": [
            _entry("old-full", "full", 1e7, {"k": 100.0}),
            _entry("smoke", "smoke", 1e7, {"k": 10.0}),
            _entry("new-full", "full", 1e7, {"k": 200.0}),
        ]}
        assert find_baseline(data, "full")["label"] == "new-full"
        assert find_baseline(data, "smoke")["label"] == "smoke"
        assert find_baseline(data, "full", label="old-full")["label"] == "old-full"
        assert find_baseline(data, "full", label="absent") is None
        assert find_baseline({"history": []}, "full") is None


class TestRegressionGate:
    def test_same_speed_passes(self):
        base = _entry("base", "full", 1e7, {"k": 100.0})
        cur = _entry("cur", "full", 1e7, {"k": 100.0})
        findings = check_regression(cur, base)
        assert findings == [("k", 1.0, False)]

    def test_machine_normalization_absorbs_slow_runner(self):
        # Same simulator speed on a half-speed machine: raw events/sec
        # halves, but so does the machine score — no regression.
        base = _entry("base", "full", 1e7, {"k": 100.0})
        cur = _entry("cur", "full", 0.5e7, {"k": 50.0})
        [(kernel, ratio, regressed)] = check_regression(cur, base)
        assert kernel == "k"
        assert ratio == pytest.approx(1.0)
        assert not regressed

    def test_true_regression_fires_past_threshold(self):
        base = _entry("base", "full", 1e7, {"k": 100.0})
        cur = _entry("cur", "full", 1e7, {"k": 60.0})  # 40% slower
        [(_, ratio, regressed)] = check_regression(cur, base, threshold=0.30)
        assert ratio == pytest.approx(0.6)
        assert regressed

    def test_within_threshold_slowdown_passes(self):
        base = _entry("base", "full", 1e7, {"k": 100.0})
        cur = _entry("cur", "full", 1e7, {"k": 80.0})  # 20% slower
        [(_, ratio, regressed)] = check_regression(cur, base, threshold=0.30)
        assert ratio == pytest.approx(0.8)
        assert not regressed

    def test_kernels_missing_on_either_side_are_skipped(self):
        base = _entry("base", "full", 1e7, {"k": 100.0})
        cur = _entry("cur", "full", 1e7, {"k": 100.0, "new_kernel": 5.0})
        findings = check_regression(cur, base)
        assert [f[0] for f in findings] == ["k"]

    def test_acceptance_speedup_is_recorded_in_shipped_bench(self):
        # The shipped BENCH_perf.json must contain the pre-optimisation
        # baseline and a post-optimisation entry showing >= 2x normalized
        # speedup on the Fig. 11 packet kernel and the fleet churn
        # scenario (the PR 4 acceptance gate).
        data = load_bench("BENCH_perf.json")
        pre = find_baseline(data, "full", label="pr4-pre-optimisation")
        post = find_baseline(data, "full", label="pr4-post-optimisation")
        if pre is None or post is None:
            pytest.skip("bench history not recorded in this checkout")
        for kernel in ("packet_fig11", "fleet_churn"):
            ratios = dict(
                (k, r) for k, r, _ in check_regression(post, pre)
            )
            assert ratios[kernel] >= 2.0, (
                "%s speedup %.2fx below the 2x acceptance gate"
                % (kernel, ratios[kernel])
            )

    def test_runner_fanout_speedup_is_recorded_in_shipped_bench(self):
        # PR 5 acceptance gate: pooled warm-cache execution of the fan-out
        # kernel at 4 workers must be >= 2x the sequential baseline, with
        # both entries recorded in the shipped bench history and doing
        # identical work (same summed event count).
        data = load_bench("BENCH_perf.json")
        pre = find_baseline(data, "full", label="pr5-runner-fanout-pre")
        post = find_baseline(data, "full", label="pr5-runner-fanout-post")
        if pre is None or post is None:
            pytest.skip("bench history not recorded in this checkout")
        assert pre["kernels"]["runner_fanout"]["meta"]["mode"] == "sequential"
        assert post["kernels"]["runner_fanout"]["meta"]["mode"] == "pooled"
        assert post["kernels"]["runner_fanout"]["meta"]["workers"] == 4
        assert (pre["kernels"]["runner_fanout"]["events"]
                == post["kernels"]["runner_fanout"]["events"])
        ratios = dict((k, r) for k, r, _ in check_regression(post, pre))
        assert ratios["runner_fanout"] >= 2.0, (
            "runner_fanout speedup %.2fx below the 2x acceptance gate"
            % ratios["runner_fanout"]
        )

    def test_flight_overhead_gate_is_recorded_in_shipped_bench(self):
        # PR 6 acceptance gate: the flight-recorder hooks may cost the
        # disabled path at most 5%.  'pr6-flight-pre' predates the hooks;
        # 'pr6-flight-post' carries them with flight=None on the fig11
        # kernel, so the normalized packet_fig11 ratio bounds the
        # disabled-path overhead.
        data = load_bench("BENCH_perf.json")
        pre = find_baseline(data, "full", label="pr6-flight-pre")
        post = find_baseline(data, "full", label="pr6-flight-post")
        if pre is None or post is None:
            pytest.skip("bench history not recorded in this checkout")
        ratios = dict((k, r) for k, r, _ in check_regression(post, pre))
        assert ratios["packet_fig11"] >= 0.95, (
            "disabled-path flight overhead %.1f%% exceeds the 5%% budget"
            % (100.0 * (1.0 - ratios["packet_fig11"]))
        )
        overhead = post["kernels"]["flight_overhead"]
        assert (overhead["meta"]["disabled_events"]
                == overhead["meta"]["enabled_events"])
        # Same-entry sanity: the off+on kernel's throughput tracks the
        # plain fig11 kernel's (no per-packet recording cost).
        fig11 = post["kernels"]["packet_fig11"]
        assert overhead["events_per_sec"] >= 0.9 * fig11["events_per_sec"]
