"""The telemetry probe: a canned full-stack run that lights every layer.

``python -m repro metrics`` (and any tour run with ``--trace`` /
``--metrics``) executes this probe: a small :class:`StellarHost` with two
tenant containers doing vStellar RDMA (rnic/pcie/pvdma/mem families),
then a packet-level spray run with background loss (net/scheduler
families, flow spans, queue-depth sampling), then a two-host fleet smoke
scenario with churn, an abort, and an uplink failure (cluster family).
Everything is seeded, so two probes produce identical metric snapshots —
the regression tests rely on that.
"""

# The probe is obs's one sanctioned full-stack entry point: it exists to
# light up every domain layer, so it imports them deliberately.  It is
# imported lazily (never from repro.obs.__init__), which keeps the obs
# package itself domain-free.
from repro.core import StellarHost  # simlint: ok L-layer
from repro.net import DualPlaneTopology, MessageFlow, PacketNetSim, ServerAddress, run_flows  # simlint: ok L-layer
from repro.obs.metrics import get_registry
from repro.obs.sampler import TimeSeriesSampler
from repro.rnic import connect_qps  # simlint: ok L-layer
from repro.sim.units import GiB, KiB, MiB


#: Default sim-time sampling cadence for the probe (Figure 9 style).
_DEFAULT_SAMPLE_INTERVAL = 100e-6


# Result type returned by run_probe(); consumers duck-type the
# instance rather than importing the class.
class ProbeResult:  # simlint: ok L-api-drift
    """Everything a probe run produced, ready for reporting or export."""

    def __init__(self, host, containers, sim, flow_results, registry, tracer,
                 sampler, fleet=None, flight=None):
        self.host = host
        self.containers = containers
        self.sim = sim
        self.flow_results = flow_results
        self.registry = registry
        self.tracer = tracer
        self.sampler = sampler
        self.fleet = fleet
        self.flight = flight

    def reports(self):
        """``[(title, report dict)]`` for the Neohost-style console dump."""
        from repro.analysis.diagnostics import (  # simlint: ok L-layer
            fabric_report,
            network_report,
            pvdma_report,
            rnic_report,
        )

        reports = [
            ("RNIC counters: %s" % self.host.rnics[0].name,
             rnic_report(self.host.rnics[0])),
            ("vStellar device counters: %s"
             % self.containers[0].vstellar_device.name,
             rnic_report(self.containers[0].vstellar_device)),
            ("PCIe fabric counters", fabric_report(self.host.fabric)),
            ("PVDMA map cache", pvdma_report(self.host.pvdma, self.containers)),
            ("Packet network hot ports", network_report(self.sim, top_n=5)),
        ]
        return reports

    def __repr__(self):
        traced = "untraced" if self.tracer is None else (
            "%d trace events" % len(self.tracer))
        return "ProbeResult(%d flows, %d metrics, %s)" % (
            len(self.flow_results), len(self.registry.snapshot()), traced,
        )


def run_probe(registry=None, tracer=None, seed=17,
              sample_interval=_DEFAULT_SAMPLE_INTERVAL, max_samples=512,
              message_bytes=1 * MiB, flow_count=4, loss_rate=0.005,
              fleet=True, flight=None):
    """Run the canned full-stack telemetry workload; returns ProbeResult.

    ``registry`` defaults to the process-wide registry; pass a fresh one
    for isolated runs.  ``tracer`` and ``flight`` are off when ``None``.
    """
    registry = registry if registry is not None else get_registry()

    # -- host leg: vStellar RDMA over the PCIe fabric ---------------------
    host = StellarHost.build(
        host_memory_bytes=32 * GiB, gpus=4, rnics=2, gpu_hbm_bytes=4 * GiB
    )
    containers = []
    for index, name in enumerate(("probe-a", "probe-b")):
        record = host.launch_container(name, 1 * GiB, rnic_index=index)
        containers.append(record.container)
    dev_a = containers[0].vstellar_device
    dev_b = containers[1].vstellar_device
    buf_a = containers[0].alloc_buffer(4 * MiB)
    buf_b = containers[1].alloc_buffer(4 * MiB)
    host.dma_prepare(containers[0], buf_a)
    host.dma_prepare(containers[1], buf_b)
    mr_a = dev_a.reg_mr_host(buf_a)
    mr_b = dev_b.reg_mr_host(buf_b)
    qp_a = dev_a.create_qp(dev_a.default_pd)
    qp_b = dev_b.create_qp(dev_b.default_pd)
    connect_qps(qp_a, qp_b, nic_a=dev_a, nic_b=dev_b)
    for index, size in enumerate((4 * KiB, 64 * KiB, 256 * KiB, 1 * MiB)):
        dev_a.rdma_write(qp_a, "probe-w%d" % index, mr_a, buf_a.start, size,
                         mr_b.rkey, buf_b.start)
    # Push a couple of raw TLPs through the fabric so switch/RC counters
    # move (the pcm-iio view).
    dev_a.dma_access(mr_a, buf_a.start, 4 * KiB, emit=True)
    dev_b.dma_access(mr_b, buf_b.start, 4 * KiB, emit=True)

    for rnic in host.rnics:
        rnic.register_metrics(registry)
    host.fabric.register_metrics(registry)
    host.pvdma.register_metrics(registry)

    # -- network leg: packet spray with sampling + tracing ---------------
    topology = DualPlaneTopology(segments=2, servers_per_segment=2, rails=1)
    sim = PacketNetSim(topology, seed=seed, tracer=tracer, flight=flight)
    sim.register_metrics(registry)
    if loss_rate:
        victim = topology.tor_uplinks(segment=0, rail=0)[0]
        sim.inject_loss(victim, loss_rate)
    sampler = TimeSeriesSampler(
        sim.scheduler, registry, interval=sample_interval,
        prefixes=("net.", "scheduler."), max_samples=max_samples,
    ).start()
    flows = [
        MessageFlow(
            sim, "probe-flow-%d" % index,
            ServerAddress(0, index % 2), ServerAddress(1, index % 2), 0,
            message_bytes=message_bytes, algorithm="obs", path_count=32,
            mtu=64 * KiB, connection_id=index,
        )
        for index in range(flow_count)
    ]
    results = run_flows(sim, flows, timeout=0.05)
    sampler.stop()

    # -- fleet leg: two-host churn smoke (cluster.* family) ---------------
    fleet_sim = None
    if fleet:
        from repro.workloads.fleet_bench import run_fleet_smoke  # simlint: ok L-layer

        fleet_sim, _ = run_fleet_smoke(seed=seed, tracer=tracer,
                                       registry=registry, flight=flight)
    return ProbeResult(host, containers, sim, results, registry, tracer,
                       sampler, fleet=fleet_sim, flight=flight)
