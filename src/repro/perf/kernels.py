"""Canonical, seeded perf kernels for the simulation core.

Each kernel is a plain function ``kernel(smoke=False) -> dict`` that runs
a fixed, deterministic workload and returns at least:

* ``events`` — the unit-of-work count the harness divides by wall time
  (scheduler events for the event-driven kernels, flow-steps for the
  fluid solver).
* ``meta``   — a small dict of workload facts for the report table.

Kernels never read the wall clock themselves — timing lives in
:mod:`repro.perf.harness` so every kernel is measured the same way.
Seeds are fixed: two runs of a kernel do identical work, so wall time is
the only thing that varies and ``events/sec`` is comparable across
commits.  ``smoke=True`` (CI) shrinks the workload, never the shape.
"""

from repro.collectives.allreduce import RingAllReduceTask
from repro.net import (
    DualPlaneTopology,
    MessageFlow,
    PacketNetSim,
    ServerAddress,
    run_flows,
)
from repro.net.fluid_sim import FluidSimulation
from repro.rnic.cc import WindowCC
from repro.sim.engine import EventScheduler
from repro.sim.units import GB, MB, usec
from repro.workloads.fleet_bench import (
    run_churn,
    run_fleet1024_churn,
    run_fleet1024_smoke,
    run_fleet_smoke,
)
from repro.workloads.gdr_bench import AtcMissExperiment, default_gdr_sizes


def scheduler_churn_kernel(smoke=False):
    """Pure event-loop throughput: 64 self-rescheduling callback chains.

    No packets, no tracer — this isolates heap push/pop, tie-breaking
    and dispatch, the floor under every other kernel.
    """
    target = 50_000 if smoke else 500_000
    sched = EventScheduler()

    def make_chain(lane):
        delay = (lane % 7 + 1) * 1e-6

        def tick():
            sched.schedule(delay, tick)

        return tick

    for lane in range(64):
        sched.schedule((lane + 1) * 1e-7, make_chain(lane))
    sched.run(max_events=target)
    assert sched.events_executed == target
    return {
        "events": sched.events_executed,
        "meta": {"chains": 64, "sim_seconds": round(sched.now, 6)},
    }


def scheduler_cancel_kernel(smoke=False):
    """Cancellation-heavy loop mirroring the packet sim's RTO pattern.

    Every executed "ack" cancels a pending 250 us timer and arms a new
    one, so live events are a sliver of the heap: exactly the shape that
    bloats Fig. 11 loss runs.  Exercises lazy skipping + compaction.
    """
    target = 30_000 if smoke else 300_000
    sched = EventScheduler()
    rto = usec(250)

    def make_lane():
        state = {"timer": None}

        def timeout():  # never fires in the steady state
            state["timer"] = None

        def ack():
            if state["timer"] is not None:
                state["timer"].cancel()
            state["timer"] = sched.schedule(rto, timeout)
            sched.schedule(2e-6, ack)

        return ack

    for lane in range(32):
        sched.schedule((lane + 1) * 1e-7, make_lane())
    sched.run(max_events=target)
    snap = sched.snapshot()
    return {
        "events": sched.events_executed,
        "meta": {"lanes": 32, "final_queue_len": snap["queue_len"]},
    }


def _fig_topology():
    return DualPlaneTopology(
        segments=2, servers_per_segment=12, rails=1, planes=2,
        aggs_per_plane=60,
    )


def _ring_servers(count):
    # Alternate segments so half the ring edges cross the agg layer.
    servers = []
    for i in range(count // 2):
        servers.append(ServerAddress(0, i))
        servers.append(ServerAddress(1, i))
    return servers


def _ring_flows(sim, servers, loss):
    flows = []
    for i, src in enumerate(servers):
        dst = servers[(i + 1) % len(servers)]
        flows.append(MessageFlow(
            sim, "ring-%d" % i, src, dst, 0,
            message_bytes=1000 * MB,
            algorithm="obs", path_count=128,
            mtu=128 * 1024, connection_id=i,
            cc=WindowCC(init_window=2 * 1024 * 1024,
                        additive_bytes=64 * 1024, target_rtt=usec(150)),
            recovery="selective",
        ))
    if loss > 0:
        victim_route = sim.topology.route(
            servers[0], servers[1], 0, path_id=0, connection_id=0)
        sim.inject_loss(victim_route[1], loss)
    return flows


def packet_fig9_kernel(smoke=False):
    """Loss-free Fig. 9 shape: 24-server spray ring at packet granularity.

    Hot paths: per-packet route resolution, per-hop scheduling, port
    serialization, ECN marks, window CC.
    """
    window = 0.0008 if smoke else 0.003
    sim = PacketNetSim(_fig_topology(), seed=17, ecn_threshold=1 * MB)
    flows = _ring_flows(sim, _ring_servers(24), loss=0.0)
    run_flows(sim, flows, timeout=window)
    return {
        "events": sim.scheduler.events_executed,
        "meta": {
            "packets": sim.packets_sent,
            "sim_seconds": window,
            "flows": len(flows),
        },
    }


def packet_fig11_kernel(smoke=False):
    """Fig. 11 loss kernel: same ring with 3% drop on one victim uplink.

    The >= 2x speedup acceptance gate is measured on this kernel — loss
    triggers RTO timer churn, retransmission and per-path repair, so it
    stresses the scheduler's cancelled-event handling hardest.
    """
    window = 0.001 if smoke else 0.004
    sim = PacketNetSim(_fig_topology(), seed=17, ecn_threshold=1 * MB)
    flows = _ring_flows(sim, _ring_servers(24), loss=0.03)
    results = run_flows(sim, flows, timeout=window)
    rtos = sum(r.rtos for r in results)
    return {
        "events": sim.scheduler.events_executed,
        "meta": {
            "packets": sim.packets_sent,
            "rtos": rtos,
            "sim_seconds": window,
            "flows": len(flows),
        },
    }


def flight_overhead_kernel(smoke=False):
    """The flight-recorder overhead gate: fig11 ring, recorder off vs on.

    Runs the same lossy spray ring twice — once with ``flight=None``
    (the disabled path every hot component ships with) and once with a
    live :class:`repro.obs.flight.FlightRecorder`.  Both legs execute
    identical scheduler work (asserted), so the ≤5% disabled-path
    overhead budget is checked by comparing this kernel's recorded
    events/sec against the pre-change ``packet_fig11`` baseline in
    BENCH_perf.json — recording hooks live only on rare paths (RTOs,
    loss injection), never per packet.
    """
    from repro.obs.flight import FlightRecorder

    window = 0.0008 if smoke else 0.003
    per_mode = {}
    flight = None
    for mode in ("disabled", "enabled"):
        recorder = None if mode == "disabled" else FlightRecorder(capacity=8192)
        sim = PacketNetSim(_fig_topology(), seed=17, ecn_threshold=1 * MB,
                           flight=recorder)
        flows = _ring_flows(sim, _ring_servers(24), loss=0.03)
        run_flows(sim, flows, timeout=window)
        per_mode[mode] = sim.scheduler.events_executed
        if recorder is not None:
            flight = recorder
    assert per_mode["disabled"] == per_mode["enabled"]
    return {
        "events": per_mode["disabled"] + per_mode["enabled"],
        "meta": {
            "disabled_events": per_mode["disabled"],
            "enabled_events": per_mode["enabled"],
            "flight_recorded": flight.recorded,
            "flight_dropped": flight.dropped,
            "sim_seconds": window,
        },
    }


def fluid_allreduce_kernel(smoke=False):
    """512-GPU continuous AllReduce in the fluid solver.

    64 servers x 8 GPUs, 4 rails, 128-way spray: 256 flows re-priced by
    progressive-filling max-min each dt.  The flow set never changes
    after launch, so a solver that notices static epochs wins big here.
    """
    duration = 0.06 if smoke else 0.3
    topology = DualPlaneTopology(
        segments=4, servers_per_segment=16, rails=4, planes=2,
        aggs_per_plane=8,
    )
    sim = FluidSimulation(topology, dt=0.01, seed=17)
    task = RingAllReduceTask(
        "perf-allreduce", list(topology.servers()), data_bytes=int(1 * GB),
        rails=4, algorithm="obs", path_count=128, gpus_per_server=8,
    )
    task.launch(sim, continuous=True)
    steps = sim.run(duration=duration)
    return {
        "events": steps * len(sim.flows),
        "meta": {
            "gpus": task.gpu_count,
            "flows": len(sim.flows),
            "steps": steps,
            "bus_gbps": round(task.bus_bandwidth_bytes() * 8 / 1e9, 3),
        },
    }


#: Cache root shared by every ``runner_fanout`` run in this process, so
#: the harness's best-of-N repeats measure the warm-cache path (repeat 1
#: populates it, repeat 2 reads it back — exactly the "re-running figures
#: only recomputes what changed" contract the runner exists for).
_FANOUT_CACHE = {"root": None}


def _fanout_cache_root():
    import tempfile

    if _FANOUT_CACHE["root"] is None:
        _FANOUT_CACHE["root"] = tempfile.mkdtemp(prefix="repro-fanout-cache-")
    return _FANOUT_CACHE["root"]


def runner_fanout_kernel(smoke=False):
    """N independent Fig. 11-style rings through the repro.runner pool.

    The fan-out kernel: every task is a seeded lossy spray ring
    (``repro.runner.tasks.fig11_ring``), fully independent of its
    siblings.  ``REPRO_RUNNER_MODE=sequential`` executes them inline with
    no cache (the pre-runner baseline entry in ``BENCH_perf.json``); the
    default pooled mode runs ``REPRO_RUNNER_WORKERS`` (default 4) worker
    processes over the shared content-addressed cache, so the harness's
    best-of-N lands on the warm-cache path.  Pooled and sequential modes
    must agree bit-for-bit on every per-task result — asserted here,
    since the determinism digests are the acceptance oracle.

    Unlike its siblings this kernel *is* about runner overhead, so its
    meta records mode/workers/cache hits explicitly; events (scheduler
    events summed across rings) are identical in every mode.
    """
    import os

    from repro.runner import ResultCache, TaskSpec, run_tasks

    mode = os.environ.get("REPRO_RUNNER_MODE", "pooled")
    task_count = 4 if smoke else 8
    window = 0.0008 if smoke else 0.002
    specs = [
        TaskSpec(
            "fanout/ring-%02d" % index,
            "repro.runner.tasks:fig11_ring",
            {"servers": 8, "window": window, "loss": 0.03},
            seed=101 + index,
        )
        for index in range(task_count)
    ]
    if mode == "sequential":
        workers, cache = 0, None
    else:
        workers = int(os.environ.get("REPRO_RUNNER_WORKERS", "4"))
        cache = ResultCache(_fanout_cache_root())
    report = run_tasks(specs, workers=workers, cache=cache)
    values = report.values()
    assert len(values) == task_count
    # Distinct seeds must do distinct work or the fan-out is fake.
    assert len({value["events"] for value in values}) > 1
    return {
        "events": sum(value["events"] for value in values),
        "meta": {
            "mode": mode,
            "workers": report.workers,
            "tasks": task_count,
            "cache_hits": report.hits,
            "packets": sum(value["packets"] for value in values),
            "rtos": sum(value["rtos"] for value in values),
        },
    }


def fleet_churn_kernel(smoke=False):
    """Fleet end-to-end: 16-host 3-tenant churn (2-host smoke in CI).

    Everything at once — container boot, PVDMA, congestion-epoch fluid
    repricing, link failures, ATC sharing.  The second >= 2x acceptance
    gate is measured on this kernel's full mode.
    """
    if smoke:
        fleet, result = run_fleet_smoke(seed=17)
    else:
        fleet, result = run_churn(seed=17)
    snap = fleet.snapshot()
    return {
        "events": fleet.engine.events_executed,
        "meta": {
            "completed_jobs": snap["jobs_completed"],
            "rate_epochs": snap["rate_epochs"],
            "sim_seconds": round(fleet.engine.now, 3),
        },
    }


def fleet_1024_churn_kernel(smoke=False):
    """Paper-scale fleet: 1024 hosts, 3-tier dual-plane, job churn.

    The tractability gate for the vectorized fluid engine: every
    congestion epoch re-prices 8-32-host rings on the shared 1024-host
    fabric, so the kernel stresses plan construction, the sparse
    max-min solve, and the fleet-level incidence reuse all at once.
    Smoke keeps the full 1024-host topology and shrinks the workload to
    three fixed jobs (never the shape).
    """
    if smoke:
        fleet, result = run_fleet1024_smoke(seed=17)
    else:
        fleet, result = run_fleet1024_churn(seed=17)
    snap = fleet.snapshot()
    return {
        "events": fleet.engine.events_executed,
        "meta": {
            "hosts": len(fleet.scheduler.hosts),
            "completed_jobs": snap["jobs_completed"],
            "rate_epochs": snap["rate_epochs"],
            "sim_seconds": round(fleet.engine.now, 3),
        },
    }


def fleet_1024_hybrid_kernel(smoke=False):
    """Paper-scale fleet under the hybrid-fidelity engine.

    The same 1024-host churn as ``fleet_1024_churn``, but priced by the
    fidelity controller: fluid epochs by default, bounded packet-level
    windows promoted around link failures / loss injections / admission
    bursts.  ``REPRO_FIDELITY_MODE`` overrides the mode (``packet``
    prices *every* epoch on the packet engine — the pre-hybrid baseline
    entry in ``BENCH_perf.json``; ``fluid`` never promotes), so one
    kernel yields the pre/post pair the >= 2x acceptance gate compares.

    ``events`` counts simulated milliseconds, not scheduler dispatches:
    packet windows execute vastly more events per sim-second than fluid
    epochs, so a wall-per-event metric would flatter exactly the mode
    this kernel exists to beat.  Same sim horizon in every mode ->
    normalized speedup is a pure wall-clock ratio.
    """
    import os

    mode = os.environ.get("REPRO_FIDELITY_MODE", "hybrid")
    if smoke:
        fleet, result = run_fleet1024_smoke(seed=17, fidelity=mode)
    else:
        fleet, result = run_fleet1024_churn(seed=17, fidelity=mode)
    snap = fleet.snapshot()
    return {
        "events": int(round(fleet.engine.now * 1000.0)),
        "meta": {
            "mode": mode,
            "hosts": len(fleet.scheduler.hosts),
            "completed_jobs": snap["jobs_completed"],
            "rate_epochs": snap["rate_epochs"],
            "fidelity_promotions": snap["fidelity_promotions"],
            "fidelity_pricing_events": snap["fidelity_pricing_events"],
            "dp_bytes_packet": snap["dp_bytes_packet"],
            "sim_seconds": round(fleet.engine.now, 3),
        },
    }


def fig8_translation_kernel(smoke=False):
    """Fig. 8 ATS/ATC sweep: every page translation of 16 round-robin GDR
    connections through the RNIC's ATC and, on a miss, the IOMMU's IOTLB.

    Events are page translations: per message size, one warm cycle plus
    the capped measured window.  Smoke runs the 4 MiB point (past the ATC)
    and the 64 MiB point (past the IOTLB too).
    """
    experiment = AtcMissExperiment()
    sizes = [4 << 20, 64 << 20] if smoke else default_gdr_sizes()
    rows = experiment.sweep(sizes)
    events = 0
    for size in sizes:
        cycle = max(1, size // experiment.page_bytes) * experiment.connections
        events += cycle + min(cycle, experiment.measure_cap_pages)
    return {
        "events": events,
        "meta": {"points": len(sizes), "last_gbps": round(rows[-1].gbps, 3)},
    }


def trace_replay_kernel(smoke=False):
    """Trace-DAG replay: the bundled MoE trace on its 8-host ring.

    End to end through ``repro.traces``: host bring-up (8 StellarHosts,
    one RunD container per rank), DAG execution over the EventScheduler,
    and fluid pricing of every unique collective shape (4 uneven
    alltoalls + 4 allreduces per pass).  Events count scheduler
    dispatches plus fluid solver flow-steps, which is where the time
    goes.  Smoke replays a 2-iteration trace built by the same builder —
    smaller workload, identical shape.
    """
    from repro.traces.builders import build_moe_trace
    from repro.traces.library import load_bundled
    from repro.traces.replay import TraceReplayer

    if smoke:
        replays = 2
        trace = build_moe_trace(iterations=2)
    else:
        replays = 8
        trace = load_bundled("moe_training")
    events = 0
    makespans = set()
    for _ in range(replays):
        replayer = TraceReplayer(trace, seed=17)
        result = replayer.run()
        events += replayer.scheduler.events_executed + replayer.pricing_events
        makespans.add(round(result.makespan, 12))
    # Same trace, same seed: every replay must land on the same makespan.
    assert len(makespans) == 1, makespans
    return {
        "events": events,
        "meta": {
            "trace": trace.name,
            "ops": len(trace.ops),
            "ranks": trace.ranks,
            "replays": replays,
            "makespan": makespans.pop(),
        },
    }
