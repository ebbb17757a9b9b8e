"""Outside-in tracing: spans and counts around each layer's public entry points.

A :class:`LayerTracer` replaces a fixed list of public functions and
methods with wrappers while it is installed, and puts the originals back
when it is removed, so an untraced run executes the program untouched.
Every wrapper records one span (name, start, end, parent) into compact
in-memory arrays; the spans are written out only when the run ends.

The simulator's scheduler dispatch and spray path selection have no public
entry point of their own, so their time lands in the self time of
whichever layer called them (see README.md).
"""

import array
import collections
import importlib
import time

import numpy as np

#: The span the benchmark opens around each timed run.  Its self time is the
#: benchmark's own driving code plus everything no layer span covers.
ROOT_SPAN = "other/run"

#: (layer, module, attribute path) of every wrapped public entry point.
TARGETS = (
    ("memory", "repro.cluster.host", "FleetHost.touch"),
    ("memory", "repro.memory.iommu", "Iommu.ats_translate"),
    ("pcie", "repro.pcie.atc", "DeviceAtc.translate"),
    ("net.packet", "repro.net.packet_sim", "PacketNetSim.run"),
    ("net.packet", "repro.net.packet_sim", "run_flows"),
    ("net.fluid", "repro.net.fluid_sim", "FluidSimulation.run"),
    ("cluster", "repro.cluster.fleet", "FleetSimulation.run"),
    ("virt", "repro.cluster.host", "FleetHost.launch"),
    ("virt", "repro.cluster.host", "FleetHost.stop"),
)

#: Layers reported as per-layer metrics, in report order.
LAYERS = ("memory", "pcie", "net.packet", "net.fluid", "cluster", "virt")


def span_layer(name):
    """``"memory/FleetHost.touch"`` -> ``"memory"``."""
    return name.split("/", 1)[0]


def self_times(start, end, parent):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from synchronous nested calls on one thread, so children of
    one parent never overlap and their durations simply add up.
    ``parent`` holds each span's parent index, or -1 for a root.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


class SpanRecorder:
    """Spans kept in parallel arrays: start, end, name id and parent index."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("q")
        self._stack = []

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, result)``
        runs inside the span, so a span's time includes its own counting."""
        name_id = self.name_id(name)
        starts, ends, names, parents = self.start, self.end, self.name, self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def self_seconds_by_name(self):
        """{span name: summed self time} over every recorded span."""
        own = self_times(self.start, self.end, self.parent)
        totals = np.bincount(
            np.asarray(self.name, dtype=np.int64), weights=own,
            minlength=len(self.names),
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def calls_by_name(self):
        counts = np.bincount(np.asarray(self.name, dtype=np.int64),
                             minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span to an uncompressed ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute


class LayerTracer:
    """Installs the span wrappers and counters; removing it restores the program.

    Use as a context manager around exactly one traced run.
    """

    def __init__(self):
        self.spans = SpanRecorder()
        self.counts = collections.Counter()
        #: Objects whose public ``snapshot()`` reports evictions, by id.
        self._eviction_sources = {}
        self._packet_sims = {}
        self._flows = []
        self._saved = []

    # -- observers: counts read from arguments and return values ----------

    def _on_touch(self, args, hits):
        host, pages = args[0], args[2]
        self.counts["memory.pages"] += len(pages)
        self.counts["memory.atc_hits"] += hits
        self._eviction_sources[id(host.atc)] = host.atc

    def _on_ats(self, args, result):
        iommu = args[0]
        self.counts["memory.ats_replies"] += 1
        self.counts["memory.iotlb_hits"] += result.iotlb_hit
        self._eviction_sources[id(iommu)] = iommu

    def _on_translate(self, args, result):
        atc = args[0]
        self.counts["memory.pages"] += 1
        self.counts["memory.atc_hits"] += result.atc_hit
        self._eviction_sources[id(atc.cache)] = atc.cache

    def _on_packet_run(self, args, executed):
        self._packet_sims[id(args[0])] = args[0]

    def _on_fluid_run(self, args, steps):
        self.counts["net.fluid.steps"] += steps
        self.counts["net.fluid.flow_steps"] += steps * len(args[0].flows)

    def _observer(self, path):
        return {
            "FleetHost.touch": self._on_touch,
            "Iommu.ats_translate": self._on_ats,
            "DeviceAtc.translate": self._on_translate,
            "PacketNetSim.run": self._on_packet_run,
            "FluidSimulation.run": self._on_fluid_run,
        }.get(path)

    # -- install / remove --------------------------------------------------

    def _replace(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self):
        try:
            for layer, module_name, path in TARGETS:
                owner, attribute = _resolve(module_name, path)
                original = getattr(owner, attribute)
                self._replace(owner, attribute, self.spans.wrap(
                    "%s/%s" % (layer, path), original, self._observer(path)
                ))
            # Flows are registered, not spanned: FlowResult fields are the
            # only public record of retransmissions and RTOs, and the fleet
            # builds its pricing flows internally.
            flow_cls, _ = _resolve("repro.net.packet_sim", "MessageFlow.__init__")
            flow_init = flow_cls.__init__
            flows = self._flows

            def registering_init(flow, *args, **kwargs):
                flow_init(flow, *args, **kwargs)
                flows.append(flow)

            self._replace(flow_cls, "__init__", registering_init)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        return False

    def root(self, fn):
        """``fn`` wrapped in the root span."""
        return self.spans.wrap(ROOT_SPAN, fn)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, snapshot_counters):
        """Every per-layer metric except ``trace.overhead_frac``.

        ``snapshot_counters`` are the workload's counters read from public
        ``snapshot()`` calls after the run (zero where a layer did not run).
        """
        self_s = collections.defaultdict(float)
        for name, seconds in self.spans.self_seconds_by_name().items():
            self_s[span_layer(name)] += seconds
        calls = collections.Counter()
        span_calls = self.spans.calls_by_name()
        for name, count in span_calls.items():
            calls[span_layer(name)] += count
        counts = self.counts
        metrics = {layer + ".self_s": self_s[layer] for layer in LAYERS}
        metrics["other.self_s"] = self_s[span_layer(ROOT_SPAN)]
        for layer in ("memory", "pcie", "net.packet", "net.fluid", "virt"):
            metrics[layer + ".calls"] = calls[layer]

        pages = counts["memory.pages"]
        metrics["memory.pages"] = pages
        metrics["memory.atc_hit_frac"] = counts["memory.atc_hits"] / pages if pages else 0.0
        replies = counts["memory.ats_replies"]
        metrics["memory.iotlb_hit_frac"] = (
            counts["memory.iotlb_hits"] / replies if replies else 0.0)
        metrics["memory.evictions"] = sum(
            _evictions(source) for source in self._eviction_sources.values())

        sim_snaps = [sim.snapshot() for sim in self._packet_sims.values()]
        sent = sum(snap["packets_sent"] for snap in sim_snaps)
        delivered = sum(snap["packets_delivered"] for snap in sim_snaps)
        results = [flow.result() for flow in self._flows]
        metrics["net.packet.events"] = sum(
            sim.scheduler.snapshot()["events_executed"]
            for sim in self._packet_sims.values())
        metrics["net.packet.packets_sent"] = sent
        metrics["net.packet.delivered_frac"] = delivered / sent if sent else 0.0
        metrics["net.packet.retx"] = sum(result.retransmissions for result in results)
        metrics["net.packet.rtos"] = sum(result.rtos for result in results)

        metrics["net.fluid.steps"] = counts["net.fluid.steps"]
        metrics["net.fluid.flow_steps"] = counts["net.fluid.flow_steps"]

        epochs = snapshot_counters.get("cluster.epochs", 0)
        solves = span_calls.get("net.fluid/FluidSimulation.run", 0) + len(self._packet_sims)
        metrics["cluster.events"] = snapshot_counters.get("cluster.events", 0)
        metrics["cluster.epochs"] = epochs
        metrics["cluster.solves_per_epoch"] = solves / epochs if epochs else 0.0
        metrics["cluster.jobs_done"] = snapshot_counters.get("cluster.jobs_done", 0)
        for name in ("cluster.fidelity.promotions", "cluster.fidelity.packet_events",
                     "cluster.fidelity.packet_bytes_frac"):
            metrics[name] = snapshot_counters.get(name, 0)
        return metrics


def _evictions(source):
    """Evictions from a SharedAtc, Iommu (its IOTLB) or TranslationCache snapshot."""
    snap = source.snapshot()
    return snap.get("evictions", snap.get("iotlb_evictions", 0))
