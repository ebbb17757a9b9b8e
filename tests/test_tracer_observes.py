"""A tracer only observes: the same seeded run with and without a
:class:`~repro.obs.trace.Tracer` produces identical outputs.

The scheduler has one dispatch loop and the packet sim one transmission
path; tracing rides along in the scheduler's per-event hook.  These
tests lock that attaching a tracer changes nothing the simulation
computes — flow results, fabric counters, per-port float accumulators,
fleet job rows and fleet snapshots.
"""

import pytest

from repro.net import DualPlaneTopology, ServerAddress
from repro.net.packet_sim import MessageFlow, PacketNetSim, run_flows
from repro.obs.trace import Tracer
from repro.rnic.cc import WindowCC
from repro.sim.units import usec
from repro.workloads.fleet_bench import run_churn


def _spray_run(tracer, loss, recovery):
    topology = DualPlaneTopology(segments=2, servers_per_segment=4,
                                 rails=1, planes=2, aggs_per_plane=4)
    sim = PacketNetSim(topology, seed=11, tracer=tracer)
    flows = []
    for i in range(4):
        flows.append(MessageFlow(
            sim, "f%d" % i, ServerAddress(0, i), ServerAddress(1, (i + 1) % 4),
            0, message_bytes=2 * 1024 * 1024, algorithm="obs",
            path_count=16, mtu=32 * 1024, connection_id=i,
            cc=WindowCC(init_window=512 * 1024, additive_bytes=64 * 1024,
                        target_rtt=usec(150)),
            recovery=recovery,
        ))
    if loss:
        # Loss on a second hop: the first hops stay burst-eligible.
        route = topology.route(ServerAddress(0, 0), ServerAddress(1, 1), 0,
                               path_id=0, connection_id=0)
        sim.inject_loss(route[1], loss)
    results = run_flows(sim, flows, timeout=0.05)
    return {
        "flows": [
            (r.flow_id, r.bytes_acked, r.completion_time, r.retransmissions,
             r.rtos)
            for r in results
        ],
        "snapshot": sim.snapshot(),
        "ports": sorted(
            (repr(p.ref), p.busy_until, p.queue_sample_sum, p.queue_samples,
             p.queue_max, p.ecn_marks, p.drops_random, p.drops_overflow)
            for p in sim.ports()
        ),
        "now": sim.now,
    }


class TestTracerOnlyObserves:
    @pytest.mark.parametrize("loss, recovery", [
        (0.0, "selective"),
        (0.1, "selective"),
        (0.1, "go_back_n"),
    ])
    def test_packet_spray_outputs_match(self, loss, recovery):
        tracer = Tracer()
        untraced = _spray_run(None, loss, recovery)
        traced = _spray_run(tracer, loss, recovery)
        assert traced == untraced
        assert all(row[1] == 2 * 1024 * 1024 for row in untraced["flows"])
        names = {event.name for event in tracer.events}
        assert "PacketNetSim._hop" in names
        assert "MessageFlow._on_ack" in names
        if loss:
            assert sum(row[4] for row in untraced["flows"]) > 0
            assert "flow.rto" in names
            assert "MessageFlow._rto_tick" in names

    def test_hybrid_churn_outputs_match(self):
        tracer = Tracer()
        fleet, result = run_churn(seed=17, fidelity="hybrid")
        traced_fleet, traced_result = run_churn(
            seed=17, fidelity="hybrid", tracer=tracer,
        )
        assert traced_result.rows() == result.rows()
        assert traced_fleet.snapshot() == fleet.snapshot()
        assert len(tracer) > 0
