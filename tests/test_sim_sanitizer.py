"""SimSanitizer runtime invariants: clock, event leaks, conservation."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim import EventScheduler, SanitizerError, SimSanitizer


def _hook(sched):
    """The scheduler's per-event hook, which observers wrap."""
    return sched._hook  # simlint: ok L-private


class TestAttachDetach:
    def test_attach_wraps_and_detach_restores(self):
        # attach() wraps the per-event hook it finds; detach() puts that
        # hook back — None here, the tracer's hook below.
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        assert sanitizer.attach() is sanitizer
        assert _hook(sched) is not None
        sanitizer.detach()
        assert _hook(sched) is None

        sched.set_tracer(Tracer())
        traced = _hook(sched)
        SimSanitizer(sched).attach().detach()
        assert _hook(sched) == traced

    def test_attach_is_idempotent(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()
        wrapped = _hook(sched)
        sanitizer.attach()
        assert _hook(sched) is wrapped
        sanitizer.detach()
        assert _hook(sched) is None

    def test_wrapped_scheduler_still_runs(self):
        sched = EventScheduler()
        seen = []
        with SimSanitizer(sched):
            for delay in (3.0, 1.0, 2.0):
                sched.schedule(delay, lambda d=delay: seen.append(d))
            sched.run()
        assert seen == [1.0, 2.0, 3.0]
        assert sched.now == 3.0


class TestClock:
    def test_monotonic_run_passes(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()
        sched.schedule(1.0, lambda: None)
        sched.run()
        sanitizer.check_clock()

    def test_backwards_clock_detected(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()
        sched.schedule(1.0, lambda: None)
        sched.run()
        # Simulate a component rewinding the clock behind the
        # scheduler's back (the bug class the sanitizer exists for).
        sched.now = 0.25
        with pytest.raises(SanitizerError, match="regressed"):
            sanitizer.check_clock()

    def test_backwards_step_detected(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()

        def rewind():
            sched.now = -5.0  # a callback corrupting the clock

        sched.schedule(1.0, rewind)
        with pytest.raises(SanitizerError, match="backwards"):
            sched.run()


class TestTracerComposition:
    """A tracer and a sanitizer share the per-event hook in any order."""

    @staticmethod
    def _workload(sched):
        fired = []
        for i in range(40):
            sched.schedule((i % 7) * 1e-6, lambda i=i: fired.append(i))
        sched.schedule_call(3e-6, lambda: fired.append("bare"))
        return fired

    @staticmethod
    def _recorded(tracer):
        return sum(1 for event in tracer.events if event.cat == "callback")

    @pytest.mark.parametrize("tracer_first", [True, False])
    def test_both_observe_every_event(self, tracer_first):
        sched = EventScheduler()
        tracer = Tracer()
        sanitizer = SimSanitizer(sched)
        if tracer_first:
            sched.set_tracer(tracer)
            sanitizer.attach()
        else:
            sanitizer.attach()
            sched.set_tracer(tracer)
        fired = self._workload(sched)
        assert sched.run() == 41
        assert len(fired) == 41
        assert self._recorded(tracer) == 41  # every callback recorded

        def rewind():
            sched.now = -1.0

        sched.schedule(1.0, rewind)
        with pytest.raises(SanitizerError, match="backwards"):
            sched.run()  # the clock is still checked
        sched.now = 0.0

        sanitizer.detach()
        self._workload(sched)
        assert sched.run() == 41
        assert self._recorded(tracer) == 41 + 1 + 41  # tracing stays on
        sched.set_tracer(None)
        assert _hook(sched) is None


class TestEventLeak:
    def test_drained_queue_passes(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        sched.schedule(1.0, lambda: None)
        sched.run()
        sanitizer.assert_drained()

    def test_injected_leak_detected(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)

        def leaky_workload():
            sched.schedule(10.0, lambda: None)  # never consumed

        sched.schedule(1.0, leaky_workload)
        sched.run(until=5.0)
        with pytest.raises(SanitizerError, match="event leak: 1 live"):
            sanitizer.assert_drained()

    def test_cancelled_events_are_not_leaks(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        event = sched.schedule(10.0, lambda: None)
        event.cancel()
        sanitizer.assert_drained()

    def test_leak_error_names_the_callback(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)

        def culprit():
            pass

        sched.schedule(2.0, culprit)
        with pytest.raises(SanitizerError, match="culprit"):
            sanitizer.assert_drained()


class TestConservation:
    @staticmethod
    def good_snapshot():
        return {
            "net.sim.packets_sent": 10,
            "net.sim.packets_delivered": 8,
            "net.sim.packets_dropped": 2,
            "mem.iommu.iotlb_size": 2,
            "mem.iommu.iotlb_capacity": 4,
            "pcie.switch.s0.lut_used": 1,
            "pcie.switch.s0.lut_capacity": 32,
        }

    def test_balanced_snapshot_passes(self):
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=self.good_snapshot())
        assert sanitizer.checks_run == 1

    def test_overdelivery_detected(self):
        snapshot = self.good_snapshot()
        snapshot["net.sim.packets_delivered"] = 11
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="exceeds sent"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_unaccounted_packets_at_drain_detected(self):
        snapshot = self.good_snapshot()
        snapshot["net.sim.packets_dropped"] = 0  # 2 packets vanish
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="unaccounted"):
            sanitizer.check_conservation(snapshot=snapshot, drained=True)

    def test_in_flight_packets_allowed_mid_run(self):
        snapshot = self.good_snapshot()
        snapshot["net.sim.packets_dropped"] = 0  # still in flight
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=snapshot, drained=False)

    def test_occupancy_over_capacity_detected(self):
        snapshot = self.good_snapshot()
        snapshot["mem.iommu.iotlb_size"] = 5
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="exceeds configured capacity"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_lut_over_capacity_detected(self):
        snapshot = self.good_snapshot()
        snapshot["pcie.switch.s0.lut_used"] = 33
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="lut_used"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_negative_occupancy_detected(self):
        snapshot = self.good_snapshot()
        snapshot["mem.iommu.iotlb_size"] = -1
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="negative"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_registry_source(self):
        registry = MetricsRegistry("t")
        registry.counter("net.sim.packets_sent").inc(3)
        registry.counter("net.sim.packets_delivered").inc(3)
        registry.counter("net.sim.packets_dropped")
        sanitizer = SimSanitizer(EventScheduler(), registry=registry)
        sanitizer.check_conservation()

    def test_no_registry_and_no_snapshot_raises(self):
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="no registry"):
            sanitizer.check_conservation()


class TestFullStack:
    """The sanitizer against the real telemetry probe."""

    def test_probe_run_satisfies_all_invariants(self):
        from repro.obs.probe import run_probe
        from repro.obs.trace import Tracer

        result = run_probe(registry=MetricsRegistry("sanitizer-probe"),
                           tracer=Tracer("sanitizer-probe"))
        sanitizer = SimSanitizer(result.sim.scheduler,
                                 registry=result.registry)
        sanitizer.check_clock()
        sanitizer.check_conservation()
        sanitizer.check()

    def test_context_manager_checks_on_exit(self):
        registry = MetricsRegistry("t")
        registry.counter("x.packets_sent").inc(2)
        registry.counter("x.packets_delivered").inc(1)
        registry.counter("x.packets_dropped")
        sched = EventScheduler()
        with pytest.raises(SanitizerError, match="unaccounted"):
            with SimSanitizer(sched, registry=registry):
                sched.run(until=1.0)  # drains; 1 packet unaccounted


class TestJobConservation:
    @staticmethod
    def fleet_snapshot():
        return {
            "cluster.fleet.jobs_submitted": 3,
            "cluster.fleet.jobs_queued": 1,
            "cluster.fleet.jobs_starting": 0,
            "cluster.fleet.jobs_running": 1,
            "cluster.fleet.jobs_completed": 1,
            "cluster.fleet.jobs_failed": 0,
        }

    def test_balanced_job_counts_pass(self):
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=self.fleet_snapshot())

    def test_lost_job_detected(self):
        snapshot = self.fleet_snapshot()
        snapshot["cluster.fleet.jobs_running"] = 0  # a job vanished
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="3 were submitted"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_double_counted_job_detected(self):
        snapshot = self.fleet_snapshot()
        snapshot["cluster.fleet.jobs_completed"] = 2  # counted twice
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="job states sum to 4"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_partial_families_are_skipped(self):
        snapshot = {"cluster.fleet.jobs_submitted": 3}  # no state leaves
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=snapshot)
