"""The fleet orchestrator: churn, contention, and failures on one fabric.

:class:`FleetSimulation` ties the whole stack together.  Jobs arrive on
an :class:`repro.sim.engine.EventScheduler`; admitted jobs boot *real*
secure containers on their :class:`repro.cluster.host.FleetHost` rings
(paying Figure 6 boot + pinning costs through ``repro.virt`` and PVDMA),
then iterate at a rate set by the shared network.

Congestion is recomputed in *epochs*: whenever fleet membership changes
(job starts running, finishes, fails, or a link fails/heals) every
running multi-host job's DP ring is launched onto one shared
:class:`repro.net.fluid_sim.FluidSimulation` whose link capacities are
reduced by cross-job background load (``repro.net.loadmodel``), and the
measured per-GPU bandwidth is fed to
:class:`repro.training.TrainingSimulation` to reprice the job's
iteration time.  Link failures (``repro.net.failure``) multiply a job's
bandwidth by the fraction of its sprayed paths that survive — 128-way
spray barely notices a dead uplink, a 4-path legacy transport loses up
to a quarter of its ring.  A job's isolated baseline is the same fluid
pricing with the job alone, no background load and no failed links.

Epochs are priced at a configurable *fidelity*: the vectorized fluid
solver everywhere (default), packet-level DES everywhere, or — the
hybrid engine — fluid steady state with bounded packet windows that a
:class:`repro.cluster.fidelity.FidelityController` promotes around
failures, loss injections, admission bursts and CC collapse, then
demotes with hysteresis.  See EXPERIMENTS.md "Hybrid fidelity".

Every epoch is priced on one path: the background load and its
:class:`ContendedTopology` are built once, one fluid solve runs, and
inside a promoted window one packet solve is seeded from the fluid fair
shares.  No epoch is memoized: an epoch's inputs include its set of
running jobs, and job indices never repeat.  What is reused across
epochs depends on less — sprayed-ring plans, per-(job, failed links)
ring penalties, the repeated-sum table of background loads — and what
depends only on a job and its placement (DP volume, background draw
counts) is computed once at admission and kept on the :class:`Job`.

Everything is seeded; a fleet run is a pure function of
``(topology, hosts, arrivals, seed, fidelity)`` and double-runs
digest-identical at every fidelity.
"""

from functools import partial

from repro import calibration
from repro.cluster.fidelity import Fidelity, FidelityController
from repro.cluster.host import FleetHost
from repro.cluster.job import Job, JobState
from repro.cluster.scheduler import FleetScheduler, PlacementPolicy
from repro.collectives.allreduce import RingAllReduceTask
from repro.core.spray import make_selector
from repro.net.failure import effective_loss_rate, pick_victim_uplink
from repro.net.fluid_sim import FluidSimulation
from repro.net.packet_sim import MessageFlow, PacketNetSim
from repro.net.topology import ServerAddress
from repro.rnic.cc import WindowCC
from repro.obs.slo import (
    SLO_LATENCY_MULTIPLE,
    SloBoard,
    SloPolicy,
    build_health_document,
    default_job_policy,
)
from repro.sim.engine import EventScheduler
from repro.sim.rng import RngStream
from repro.sim.units import GB, usec
from repro.training.comms import comm_volumes
from repro.training.models import MODELS
from repro.training.trainer import (
    CostModelConfig,
    TRANSPORTS,
    TrainingSimulation,
)
from repro.virt.hypervisor import MemoryMode

#: Connection-id block per job, so no two jobs' sprayed flows ever share
#: an ECMP hash seed (and the failure model can reconstruct any flow).
CONNECTION_STRIDE = 4096

#: Floor on measured per-GPU bandwidth — max-min fairness never starves a
#: flow completely, and iteration times must stay finite.
_MIN_DP_BANDWIDTH = 1e7

#: Background-load modelling constants, mirroring the
#: ``StaticLoadModel.add_flow`` call _background_rates reproduces:
#: a 1-second pricing window, the model's default packet size, and the
#: 64-draw cap each background flow was sprayed with.
_BG_DURATION = 1.0
_BG_PACKET_BYTES = 4096
_BG_MAX_DRAWS = 64

#: Packet-window pricing knobs (hybrid/packet fidelities).  One promoted
#: epoch drives every running multi-host job's rail-0 DP ring through a
#: real :class:`PacketNetSim` for a short bounded window; large MTUs and
#: CC windows seeded at the fluid fair-share BDP keep the event count
#: per epoch in the tens of thousands even at 1024 hosts.  The window is
#: long enough for the 250 us spray RTO to fire several times on a dead
#: link, so failures are priced by real retransmission behaviour instead
#: of the analytic path-survival penalty.
_PRICING_WINDOW_SECONDS = 0.002
_PRICING_MTU = 256 * 1024
_PRICING_TARGET_RTT = usec(150)
_PRICING_MAX_WINDOW = 32 * 1024 * 1024
_PRICING_MESSAGE_BYTES = 1 << 40
_PRICING_MAX_EVENTS = 5_000_000


def quantile(values, q):
    """Deterministic nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[rank]


class ContendedTopology:
    """Read-through topology view with background load subtracted.

    The fluid simulator asks ``link_rate`` lazily per link; this wrapper
    answers with the residual capacity after cross-job storage/checkpoint
    traffic, floored at 5% so a saturated port still drains.
    """

    def __init__(self, base, background_bits_per_second):
        self._base = base
        self._background = dict(background_bits_per_second)

    def link_rate(self, link):
        rate = self._base.link_rate(link)
        load = self._background.get(link, 0.0)
        return max(rate * 0.05, rate - load)

    def __getattr__(self, name):
        return getattr(self._base, name)


class FleetResult:
    """Tenant-facing outcome of a fleet run."""

    def __init__(self, jobs, counters):
        self.jobs = list(jobs)
        self.counters = dict(counters)

    def by_state(self, state):
        return [job for job in self.jobs if job.state is state]

    def mean_wait_seconds(self):
        waits = [j.wait_seconds for j in self.jobs if j.wait_seconds is not None]
        return sum(waits) / len(waits) if waits else 0.0

    def mean_startup_seconds(self):
        starts = [j.startup_seconds for j in self.jobs
                  if j.startup_seconds is not None]
        return sum(starts) / len(starts) if starts else 0.0

    def total_goodput(self):
        """Aggregate training iterations per simulated second."""
        return sum(job.goodput() for job in self.jobs)

    def p99_slowdown(self):
        """p99 of per-block iteration slowdown vs each job's isolated run."""
        samples = [s for job in self.jobs for s in job.slowdown_samples]
        return quantile(samples, 0.99)

    def rows(self):
        rows = []
        for job in self.jobs:
            rows.append({
                "job": job.spec.name,
                "tenant": job.spec.tenant,
                "state": job.state.value,
                "wait_s": job.wait_seconds,
                "startup_s": job.startup_seconds,
                "iters": job.iterations_done,
                "goodput_it_s": job.goodput(),
                "p99_slowdown": quantile(job.slowdown_samples, 0.99),
            })
        return rows

    def __repr__(self):
        return "FleetResult(%d jobs, p99 slowdown %.2fx)" % (
            len(self.jobs), self.p99_slowdown(),
        )


class FleetSimulation:
    """A multi-tenant fleet on one shared dual-plane fabric."""

    def __init__(
        self,
        topology,
        hosts=None,
        policy=PlacementPolicy.DUAL_PLANE,
        seed=0,
        tracer=None,
        host_config=None,
        block_iterations=5,
        sample_pages=256,
        background_gbps_per_host=10.0,
        ring_bytes=int(1 * GB),
        congestion_dt=0.005,
        congestion_seconds=0.03,
        flight=None,
        trace_recorder=None,
        fidelity="fluid",
    ):
        self.topology = topology
        self.seed = seed
        self.tracer = tracer
        #: Optional FlightRecorder + the SLO board feeding off it.  Both
        #: are passive observers: attaching them cannot perturb the run
        #: (repro.obs.determinism asserts exactly that).
        self.flight = flight
        #: Optional duck-typed TraceRecorder (repro.traces): passive like
        #: the flight recorder — it only receives on_iteration_block()
        #: callbacks, so attaching one cannot perturb the run either.
        self.trace_recorder = trace_recorder
        self.slo = SloBoard(flight=flight)
        self.engine = EventScheduler(tracer=tracer)
        if hosts is None:
            config = dict(host_config or {})
            hosts = [
                FleetHost("h%d-%d" % (address.segment, address.index),
                          address, **config)
                for address in topology.servers()
            ]
        self.scheduler = FleetScheduler(hosts, policy)
        if flight is not None:
            # Container churn flows in via the hypervisor hook, not via
            # an upward import from repro.virt.
            for host in self.scheduler.hosts:
                host.host.hypervisor.on_churn = partial(
                    self._on_host_churn, host.name
                )
        self.trainer = TrainingSimulation(topology, seed=seed)
        self.block_iterations = block_iterations
        self.sample_pages = sample_pages
        self.background_gbps_per_host = background_gbps_per_host
        self.ring_bytes = ring_bytes
        self.congestion_dt = congestion_dt
        self.congestion_seconds = congestion_seconds
        #: How congestion epochs are priced: ``"fluid"`` (default — the
        #: vectorized solver everywhere, digests unchanged), ``"packet"``
        #: (packet-level DES everywhere, the costly reference), or
        #: ``"hybrid"`` (fluid steady state + auto-promoted packet
        #: windows around failures/loss/bursts/CC collapse).  Accepts a
        #: mode string, a :class:`Fidelity`, or a pre-tuned
        #: :class:`FidelityController`.
        self.fidelity = FidelityController.coerce(fidelity)
        #: Active loss injections: ``(link, drop probability)`` pairs.
        #: Random loss is below the fluid model's resolution, so it only
        #: changes rates inside packet-priced epochs — but it always
        #: counts as a fidelity trigger.
        self.active_losses = []
        self.loss_injections = 0
        #: Packet events spent pricing promoted epochs: every
        #: packet-priced epoch runs its own window, and all of their
        #: events count.
        self.fidelity_pricing_events = 0
        #: DP-allreduce byte ledger, split by the regime that priced each
        #: iteration block.  fluid + packet == total is the cross-fidelity
        #: conservation invariant SimSanitizer checks.
        self.dp_bytes_fluid = 0
        self.dp_bytes_packet = 0
        self.dp_bytes_total = 0
        self.atc_page = calibration.GDR_PAGE_BYTES
        self.jobs = []
        self.failed_links = []
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.link_failures = 0
        self.rate_epochs = 0
        self._starting = 0
        self._running = 0
        #: Cross-epoch reuse, bit-identical to recomputation by
        #: construction: sprayed-ring plan rows shared by every fluid
        #: solve, the repeated-sum table background loads collapse onto,
        #: and per-(job, failed-links) ring penalties.
        self._plan_cache = {}
        self._bg_partial_sums = [0.0]
        self._penalty_cache = {}

    # -- workload intake ---------------------------------------------------

    def submit(self, spec, at=None):
        """Schedule a job submission at simulated time ``at`` (now if None)."""
        when = self.engine.now if at is None else at
        return self.engine.schedule_at(when, partial(self._on_submit, spec))

    def load(self, arrivals):
        """Feed a ``JobArrivalProcess.generate()`` schedule."""
        for at, spec in arrivals:
            self.submit(spec, at=at)
        return self

    def inject_link_failure(self, at, duration, link=None):
        """Fail one ToR uplink at ``at`` for ``duration`` seconds.

        With ``link=None`` the victim is picked at failure time from a
        running job's actual sprayed path (first cross-segment ring edge,
        path 0), guaranteeing the failure lands on live traffic;
        :func:`repro.net.failure.pick_victim_uplink` is the fallback when
        nothing is running.
        """
        self.engine.schedule_at(at, partial(self._on_link_fail, link, duration))

    def inject_loss(self, at, duration, loss=0.05, link=None):
        """Schedule random loss on one uplink at ``at`` for ``duration``.

        Random loss sits below the fluid model's resolution: it is a
        fidelity trigger (promoting a packet window in hybrid mode) and
        is modelled natively — dropped packets, RTOs, re-spray — inside
        packet-priced epochs only.  ``link=None`` picks a live victim
        like :meth:`inject_link_failure`.
        """
        self.engine.schedule_at(
            at, partial(self._on_loss_start, link, duration, loss)
        )

    def run(self, until=None, max_events=None):
        """Drive the event loop; returns the :class:`FleetResult`."""
        self.engine.run(until=until, max_events=max_events)
        return self.result()

    def result(self):
        return FleetResult(self.jobs, self.snapshot())

    # -- event handlers ----------------------------------------------------

    def _instant(self, name, args=None):
        if self.tracer is not None:
            self.tracer.instant(name, self.engine.now, track="fleet",
                                cat="cluster", args=args)

    def _record(self, kind, entity=None, severity="info", **payload):
        if self.flight is not None:
            self.flight.record(self.engine.now, "cluster", kind,
                               entity=entity, severity=severity, **payload)

    def _on_host_churn(self, host_name, kind, container_name):
        if self.flight is not None:
            self.flight.record(self.engine.now, "virt", kind,
                               entity=container_name, severity="info",
                               host=host_name)

    def _on_submit(self, spec):
        job = Job(spec, self.engine.now)
        job.index = len(self.jobs)
        self.jobs.append(job)
        self.jobs_submitted += 1
        self._instant("job-submit %s" % spec.name, {"tenant": spec.tenant})
        ring = None
        if not self.scheduler.queue:  # FIFO: no overtaking the queue head
            ring = self.scheduler.place(spec)
        if ring is None:
            self.scheduler.enqueue(job)
            self._record("admission-queue", entity="job:%s" % spec.name,
                         severity="warn", tenant=spec.tenant,
                         queue_depth=len(self.scheduler.queue))
            if len(self.scheduler.queue) >= self.fidelity.admission_burst_depth:
                self._fidelity_trigger("admission-burst",
                                       entity="job:%s" % spec.name)
        else:
            self._admit(job, ring)

    def _admit(self, job, ring):
        spec = job.spec
        job.state = JobState.STARTING
        job.start_time = self.engine.now
        job.hosts = ring
        self._starting += 1
        for entry in self.scheduler.host_totals(spec, ring).values():
            entry["host"].reserve(
                spec.name, entry["gpus"], entry["dram_bytes"],
                entry["sfs"], entry["lut_entries"],
            )
        # Containers on the same host boot sequentially; hosts boot in
        # parallel, so startup is the slowest host's total (Figure 6 cost
        # lives in launch() + prepare_working_set()).
        per_host_seconds = {}
        for slot, host in enumerate(ring):
            cname = "%s-c%d" % (spec.name, slot)
            record = host.launch(cname, spec.memory_bytes,
                                 memory_mode=spec.memory_mode)
            container = record.container
            cost = record.total_seconds
            region = container.alloc_buffer(spec.working_set_bytes)
            if spec.memory_mode is MemoryMode.PVDMA:
                cost += host.prepare_working_set(container, region)
            job.containers.append(container)
            job.touch_pages[cname] = self._sample_pages(container, region)
            per_host_seconds[host.name] = (
                per_host_seconds.get(host.name, 0.0) + cost
            )
        job.startup_seconds = max(per_host_seconds.values())
        job.dp_volume = int(comm_volumes(
            MODELS[spec.model], spec.strategy, spec.framework
        ).dp)
        job.background_counts = self._background_counts(job)
        job.iso_iter_seconds = self._isolated_iter_seconds(job)
        self._instant("job-start %s" % spec.name, {
            "tenant": spec.tenant,
            "hosts": len(per_host_seconds),
            "startup_s": round(job.startup_seconds, 3),
        })
        self._record("job-admit", entity="job:%s" % spec.name,
                     tenant=spec.tenant, hosts=len(per_host_seconds),
                     startup_s=round(job.startup_seconds, 6))
        self.engine.schedule(job.startup_seconds, partial(self._on_running, job))

    def _on_running(self, job):
        if job.state is not JobState.STARTING:
            return
        job.state = JobState.RUNNING
        job.running_time = self.engine.now
        self._starting -= 1
        self._running += 1
        self._recompute_rates()
        now = self.engine.now
        tracker = self.slo.tracker(
            "job:%s" % job.spec.name, default_job_policy(job.iso_iter_seconds)
        )
        tracker.observe(now, "admission_wait", job.wait_seconds)
        # Tenant trackers aggregate the normalized slowdown, which is
        # comparable across jobs with different isolated baselines.
        self.slo.tracker(
            "tenant:%s" % job.spec.tenant,
            SloPolicy(latency_p99_ceiling=SLO_LATENCY_MULTIPLE),
        )
        if job.spec.abort_after is not None:
            job.abort_event = self.engine.schedule(
                job.spec.abort_after, partial(self._on_abort, job)
            )
        self.engine.schedule(0.0, partial(self._iterate, job))

    def _iterate(self, job):
        if job.state is not JobState.RUNNING:
            return
        block = min(self.block_iterations,
                    job.spec.iterations - job.iterations_done)
        seconds = job.iter_seconds
        job.iteration_log.append(
            (self.engine.now, block, seconds, self.failure_penalty(job))
        )
        slowdown = seconds / job.iso_iter_seconds
        job.slowdown_samples.append(slowdown)
        now = self.engine.now
        entity = "job:%s" % job.spec.name
        if entity in self.slo:
            self.slo.observe(now, entity, "latency", seconds)
            self.slo.observe(now, entity, "goodput", 1.0 / seconds)
            self.slo.observe(
                now, "tenant:%s" % job.spec.tenant, "latency", slowdown
            )
        for slot, container in enumerate(job.containers):
            job.hosts[slot].touch(container, job.touch_pages[container.name])
        if self.trace_recorder is not None:
            self.trace_recorder.on_iteration_block(
                now, job.spec.name, job.spec.strategy.dp, block,
                seconds, job.dp_seconds or 0.0, job.dp_volume,
            )
        # Cross-fidelity byte ledger: attribute the block's DP-allreduce
        # traffic, at block start, to the regime that priced it.  Exact
        # integer accounting — fluid + packet must equal total per job
        # and fleet-wide (SimSanitizer's conservation check).
        if len(job.unique_hosts()) >= 2:
            volume = block * job.dp_volume
            job.dp_bytes_total += volume
            self.dp_bytes_total += volume
            if job.rate_fidelity == "packet":
                job.dp_bytes_packet += volume
                self.dp_bytes_packet += volume
            else:
                job.dp_bytes_fluid += volume
                self.dp_bytes_fluid += volume
        job.iterations_done += block
        if job.done:
            self.engine.schedule(block * seconds, partial(self._on_complete, job))
        else:
            self.engine.schedule(block * seconds, partial(self._iterate, job))

    def _on_complete(self, job):
        if job.state is not JobState.RUNNING:
            return
        self.jobs_completed += 1
        self._finish(job, JobState.COMPLETED, abnormal=False)

    def _on_abort(self, job):
        if job.state is not JobState.RUNNING:
            return
        self.jobs_failed += 1
        self._finish(job, JobState.FAILED, abnormal=True)

    def _finish(self, job, state, abnormal):
        if job.abort_event is not None:
            job.abort_event.cancel()
            job.abort_event = None
        for slot, container in enumerate(job.containers):
            job.hosts[slot].stop(container, abnormal=abnormal)
        for host in job.unique_hosts():
            host.release(job.spec.name)
        job.state = state
        job.end_time = self.engine.now
        self._running -= 1
        self._instant("job-%s %s" % (state.value, job.spec.name), {
            "tenant": job.spec.tenant,
            "iterations": job.iterations_done,
        })
        self._record(
            "job-abort" if abnormal else "job-complete",
            entity="job:%s" % job.spec.name,
            severity="error" if abnormal else "info",
            tenant=job.spec.tenant, iterations=job.iterations_done,
        )
        self._recompute_rates()
        self._drain_queue()

    def _drain_queue(self):
        while self.scheduler.queue:
            head = self.scheduler.queue[0]
            ring = self.scheduler.place(head.spec)
            if ring is None:
                break
            self.scheduler.queue.popleft()
            self._admit(head, ring)

    def _on_link_fail(self, link, duration):
        if link is None:
            link = self._auto_victim()
        self.failed_links.append(link)
        self.link_failures += 1
        self._instant("link-fail", {"link": str(link)})
        self._record("link-fail", entity=str(link), severity="error",
                     duration=duration)
        self._fidelity_trigger("link-fail", entity=str(link))
        self._recompute_rates()
        self.engine.schedule(duration, partial(self._on_link_heal, link))

    def _on_link_heal(self, link):
        if link in self.failed_links:
            self.failed_links.remove(link)
        self._instant("link-heal", {"link": str(link)})
        self._record("link-heal", entity=str(link))
        self._fidelity_trigger("link-heal", entity=str(link))
        self._recompute_rates()

    def _on_loss_start(self, link, duration, loss):
        if link is None:
            link = self._auto_victim()
        self.active_losses.append((link, loss))
        self.loss_injections += 1
        self._instant("loss-inject", {"link": str(link), "loss": loss})
        self._record("loss-inject", entity=str(link), severity="warn",
                     loss=loss, duration=duration)
        self._fidelity_trigger("loss-inject", entity=str(link))
        self._recompute_rates()
        self.engine.schedule(duration, partial(self._on_loss_end, link, loss))

    def _on_loss_end(self, link, loss):
        if (link, loss) in self.active_losses:
            self.active_losses.remove((link, loss))
        self._instant("loss-clear", {"link": str(link)})
        self._record("loss-clear", entity=str(link))
        self._fidelity_trigger("loss-inject", entity=str(link))
        self._recompute_rates()

    # -- fidelity windows --------------------------------------------------

    def _fidelity_trigger(self, kind, entity=None):
        """Report a trigger to the controller; arm the demotion timer.

        No-op in fluid mode (beyond trigger counting), so default-fidelity
        runs schedule no extra events and record nothing new — their
        digests are untouched.  Window boundaries derive from simulated
        time only, keeping hybrid runs double-run digest-identical.
        """
        ctl = self.fidelity
        action = ctl.on_trigger(self.engine.now, kind)
        if action is None:
            return
        release = ctl.release_time()
        self._instant("fidelity-%s" % action,
                      {"trigger": kind, "release": release})
        self._record("fidelity-%s" % action, entity=entity,
                     severity="warn" if action == "promote" else "info",
                     trigger=kind, release=release)
        self.engine.schedule_at(release, self._on_fidelity_release)

    def _on_fidelity_release(self):
        """Demote with hysteresis: close the window only if it stayed quiet."""
        ctl = self.fidelity
        if not ctl.note_demotion(self.engine.now):
            return  # extended since; a later callback is armed
        start, end, _closed_at = ctl.windows[-1]
        self._instant("fidelity-demote", {"window_start": start})
        self._record("fidelity-demote", window_start=start, window_end=end)
        # Demotion handoff: re-price immediately so the fleet leaves the
        # window on fluid steady-state rates.  A fresh fluid solve; with
        # the fleet unchanged since the window opened it is bit-identical
        # to the pre-window steady state.
        self._recompute_rates()

    def _auto_victim(self):
        """A ToR uplink actually carrying a running job's sprayed traffic."""
        for job in self.jobs:  # index order: deterministic
            if job.state is not JobState.RUNNING:
                continue
            servers = [h.address for h in job.unique_hosts()]
            n = len(servers)
            if n < 2:
                continue
            for i, src in enumerate(servers):
                dst = servers[(i + 1) % n]
                if src.segment == dst.segment:
                    continue
                route = self.topology.route(
                    src, dst, 0, path_id=0,
                    connection_id=job.index * CONNECTION_STRIDE + i,
                )
                for link in route:
                    if link.kind == "tor_up":
                        return link
        return pick_victim_uplink(self.topology)

    # -- congestion epochs -------------------------------------------------

    def failure_penalty(self, job, failed_links=None):
        """Fraction of the job's ring bandwidth surviving failed links.

        The ring turns at its slowest member, so the penalty is set by the
        worst flow: the share of its sprayed path ids whose route crosses
        a failed link (``effective_loss_rate`` with 100% loss).  A 128-way
        spray spreads that share across every equivalent (plane, agg)
        choice; a 4-QP legacy transport concentrates it.
        ``failed_links`` defaults to the fleet's current failures.
        """
        if failed_links is None:
            failed_links = self.failed_links
        if not failed_links:
            return 1.0
        servers = [h.address for h in job.unique_hosts()]
        n = len(servers)
        if n < 2:
            return 1.0
        # Routes are static and placement is fixed while a job runs, so
        # the penalty is a pure function of (job, failed-link set) —
        # memoize it across the repeated repricings of one failure window.
        key = (job.index, tuple(sorted(
            (link.kind, link.key) for link in failed_links
        )))
        cached = self._penalty_cache.get(key)
        if cached is not None:
            return cached
        transport = TRANSPORTS[job.spec.transport]
        worst = 0.0
        for rail in range(self.topology.rails):
            for i, src in enumerate(servers):
                dst = servers[(i + 1) % n]
                connection_id = job.index * CONNECTION_STRIDE + rail * n + i
                crossing = 0
                for path_id in range(transport.path_count):
                    route = self.topology.route(
                        src, dst, rail, path_id=path_id,
                        connection_id=connection_id,
                    )
                    if any(link in failed_links for link in route):
                        crossing += 1
                share = effective_loss_rate(1.0, transport.path_count, crossing)
                worst = max(worst, share)
        penalty = max(0.05, 1.0 - worst)
        self._penalty_cache[key] = penalty
        return penalty

    def _background_counts(self, job):
        """Per-link draw counts of one job's background flows.

        Replays exactly the draws :meth:`StaticLoadModel.add_flow` would
        make for this job — same selectors, same ``RngStream`` seeds,
        same routes — but records draw *counts* instead of byte loads.
        Placement is fixed while a job runs, so the counts are a pure
        function of (job, placement): :meth:`_admit` computes them once
        and keeps them on the job.
        """
        counts = {}
        total_bytes = self.background_gbps_per_host * 1e9 / 8 * _BG_DURATION
        draws = min(max(1, int(total_bytes // _BG_PACKET_BYTES)),
                    _BG_MAX_DRAWS)
        for k, host in enumerate(job.unique_hosts()):
            src = host.address
            if self.topology.segments > 1:
                dst = ServerAddress(
                    (src.segment + 1) % self.topology.segments, src.index
                )
            else:
                dst = ServerAddress(
                    src.segment,
                    (src.index + 1) % self.topology.servers_per_segment,
                )
            if dst == src:
                continue
            selector = make_selector(
                "obs", 16,
                rng=RngStream(self.seed, "bg", job.spec.name, str(k)),
            )
            connection_id = 1_000_000 + job.index * 64 + k
            for _ in range(draws):
                path_id = selector.next_path()
                route = self.topology.route(
                    src, dst, 0, path_id=path_id, connection_id=connection_id
                )
                for link in route:
                    counts[link] = counts.get(link, 0) + 1
        return counts

    def _background_rates(self, running):
        """Cross-job storage/checkpoint load per link, in bits/second.

        Numerically identical to spraying every running job's flows
        through one shared :class:`StaticLoadModel`: each (draw, route
        link) there adds the same ``bytes_per_draw`` constant, and a
        float slot's value depends only on its own addition sequence, so
        a link's accumulated load is exactly the repeated sum
        ``S(n) = S(n-1) + bytes_per_draw`` evaluated at its combined
        (integer, exact) draw count.  The partial-sum table is grown once
        per fleet, which turns each epoch's background pricing into dict
        merges instead of hundreds of re-sprayed flows.
        """
        if not running:
            return {}
        totals = {}
        for job in running:
            for link, count in job.background_counts.items():
                totals[link] = totals.get(link, 0) + count
        if not totals:
            return {}
        total_bytes = self.background_gbps_per_host * 1e9 / 8 * _BG_DURATION
        draws = min(max(1, int(total_bytes // _BG_PACKET_BYTES)),
                    _BG_MAX_DRAWS)
        bytes_per_draw = total_bytes / draws
        sums = self._bg_partial_sums
        deepest = max(totals.values())
        while len(sums) <= deepest:
            sums.append(sums[-1] + bytes_per_draw)
        return {
            link: sums[count] * 8.0 / _BG_DURATION
            for link, count in totals.items()
        }

    def _launch_ring(self, job, sim):
        transport = TRANSPORTS[job.spec.transport]
        servers = [h.address for h in job.unique_hosts()]
        task = RingAllReduceTask(
            "ring-%s" % job.spec.name,
            servers,
            data_bytes=self.ring_bytes,
            rails=self.topology.rails,
            algorithm=transport.algorithm,
            path_count=transport.path_count,
            gpus_per_server=max(1, job.spec.gpus // len(servers)),
        )
        task.launch(sim, continuous=True,
                    connection_base=job.index * CONNECTION_STRIDE)
        return task

    def _iteration_breakdown(self, job, dp_bandwidth):
        return self.trainer.train(
            MODELS[job.spec.model],
            job.spec.strategy,
            framework=job.spec.framework,
            transport=job.spec.transport,
            secure_container=True,
            dp_bandwidth=dp_bandwidth,
        )

    def _isolated_iter_seconds(self, job):
        """The job alone on a clean fabric — the slowdown baseline.

        Priced by the epoch pricer with the job alone, no background load
        and no failed links.  Also stashes the baseline's DP-allreduce
        share on the job (``iso_dp_seconds``), which the trace recorder
        hook reads for single-host jobs that never enter a congestion
        epoch.
        """
        if len(job.unique_hosts()) < 2:
            # Single-host ring: NVLink-assisted DP, no fabric traffic.
            breakdown = self._iteration_breakdown(
                job, CostModelConfig().intra_server_dp_bandwidth
            )
            job.iso_dp_seconds = breakdown.dp
            return breakdown.total
        clean = ContendedTopology(self.topology, {})
        total, job.iso_dp_seconds, _ = self._fluid_epoch_values(
            clean, [job], failed_links=()
        )[job.index]
        return total

    def _recompute_rates(self):
        """One congestion epoch: reprice every running job's iteration.

        The background load and its contended topology are built once;
        one fluid solve prices every multi-host job, and inside a
        promoted window one packet solve, seeded from the fluid fair
        shares, replaces its values.  Both solves are pure functions of
        (failed links, active losses, running jobs and their placement,
        fleet seed), so a run is repeatable without memoizing any epoch.
        """
        self.rate_epochs += 1
        running = [job for job in self.jobs if job.state is JobState.RUNNING]
        multi = [job for job in running if len(job.unique_hosts()) >= 2]
        if multi:
            contended = ContendedTopology(
                self.topology, self._background_rates(running)
            )
            values = self._fluid_epoch_values(
                contended, multi, self.failed_links
            )
            regime = "fluid"
            if self.fidelity.active(self.engine.now):
                values = self._packet_epoch_values(contended, multi, values)
                regime = "packet"
            for job in multi:
                entry = values[job.index]
                job.iter_seconds = entry[0]
                job.dp_seconds = entry[1]
                job.rate_fidelity = regime
        for job in running:
            if len(job.unique_hosts()) < 2:
                job.iter_seconds = job.iso_iter_seconds
                job.dp_seconds = job.iso_dp_seconds
        if self.tracer is not None:
            self.tracer.counter("fleet", self.engine.now, {
                "running": self._running,
                "queued": len(self.scheduler.queue),
                "links_down": len(self.failed_links),
            }, track="fleet")
        self._record("congestion-epoch", running=self._running,
                     links_down=len(self.failed_links))

    def _fluid_epoch_values(self, topology, jobs, failed_links):
        """One fluid solve: {job.index: (iter, dp, per-GPU bandwidth)}.

        Launches every ring in ``jobs`` onto one fresh same-seed
        :class:`FluidSimulation` over ``topology`` and scales each ring's
        bus bandwidth by its survival share under ``failed_links``.  The
        per-GPU bandwidth rides along as the third element so packet
        windows can seed their CC contexts from the fluid fair share.
        """
        sim = FluidSimulation(topology, dt=self.congestion_dt,
                              seed=self.seed, plan_cache=self._plan_cache)
        tasks = [(job, self._launch_ring(job, sim)) for job in jobs]
        sim.run(duration=self.congestion_seconds)
        values = {}
        for job, task in tasks:
            per_host_gpus = max(1.0, job.spec.gpus / len(job.unique_hosts()))
            per_gpu = (task.bus_bandwidth_bytes() * self.topology.rails
                       / per_host_gpus)
            per_gpu = max(per_gpu * self.failure_penalty(job, failed_links),
                          _MIN_DP_BANDWIDTH)
            breakdown = self._iteration_breakdown(job, per_gpu)
            values[job.index] = (breakdown.total, breakdown.dp, per_gpu)
        return values

    def _packet_epoch_values(self, topology, multi, fluid_values):
        """One packet-level DES window over every multi-host DP ring.

        Promotion handoff: each ring edge's :class:`WindowCC` opens at
        the bandwidth-delay product of its fluid fair share, so flows
        start at steady state instead of slow-starting through the
        window.  Failed links become 100% loss on the real port — RTOs,
        re-spray and window cuts replace the analytic path-survival
        penalty — and active loss injections drop packets at their real
        rate.  The measured goodput is the ring's slowest edge over the
        window, scaled exactly like the fluid treatment (rail-0 ring
        times ``rails``, divided across the host's GPUs).  The window's
        events add to ``fidelity_pricing_events``, and a window that left
        any flow's CC window at its floor fires the ``cc-collapse``
        trigger.
        """
        # Untraced and flightless on purpose: the pricing sim has its own
        # 0-based clock, and like the fluid epochs it is an inner solver —
        # fleet-level records (fidelity-promote/demote, congestion-epoch)
        # carry the observability.
        psim = PacketNetSim(topology, seed=self.seed)
        for link in self.failed_links:
            psim.inject_loss(link, 1.0)
        for link, rate in self.active_losses:
            psim.inject_loss(link, rate)
        window = _PRICING_WINDOW_SECONDS
        jobs_flows = []
        for job in multi:
            transport = TRANSPORTS[job.spec.transport]
            servers = [h.address for h in job.unique_hosts()]
            n = len(servers)
            per_host_gpus = max(1.0, job.spec.gpus / n)
            per_gpu = fluid_values[job.index][2]
            flow_rate = per_gpu * per_host_gpus / self.topology.rails
            init_window = min(
                _PRICING_MAX_WINDOW,
                max(64 * 1024, flow_rate * _PRICING_TARGET_RTT),
            )
            flows = []
            for i, src in enumerate(servers):
                dst = servers[(i + 1) % n]
                flows.append(MessageFlow(
                    psim,
                    "dp:%s:%d" % (job.spec.name, i),
                    src, dst, 0,
                    message_bytes=_PRICING_MESSAGE_BYTES,
                    algorithm=transport.algorithm,
                    path_count=transport.path_count,
                    mtu=_PRICING_MTU,
                    connection_id=job.index * CONNECTION_STRIDE + i,
                    cc=WindowCC(
                        init_window=init_window,
                        max_window=_PRICING_MAX_WINDOW,
                        additive_bytes=64 * 1024,
                        target_rtt=_PRICING_TARGET_RTT,
                    ),
                ))
            jobs_flows.append((job, flows))
        psim.run(until=window, max_events=_PRICING_MAX_EVENTS)
        values = {}
        collapsed = False
        for job, flows in jobs_flows:
            per_host_gpus = max(1.0, job.spec.gpus / len(flows))
            worst = min(flow.bytes_acked for flow in flows) / window
            per_gpu = max(
                worst * self.topology.rails / per_host_gpus,
                _MIN_DP_BANDWIDTH,
            )
            breakdown = self._iteration_breakdown(job, per_gpu)
            values[job.index] = (breakdown.total, breakdown.dp, per_gpu)
            for flow in flows:
                if flow.conn.cc.window <= flow.conn.cc.min_window:
                    collapsed = True
        self.fidelity_pricing_events += psim.scheduler.events_executed
        if collapsed:
            self._fidelity_trigger("cc-collapse")
        return values

    # -- working-set sampling ----------------------------------------------

    def _sample_pages(self, container, region):
        """A bounded, evenly-strided page sample of the working set."""
        pages = []
        page = self.atc_page
        for _, gpa, length in container.gva_to_gpa_chunks(
            region.start, region.length
        ):
            cursor = gpa - (gpa % page)
            end = gpa + length
            while cursor < end:
                pages.append(cursor)
                cursor += page
        stride = max(1, len(pages) // self.sample_pages)
        return pages[::stride][: self.sample_pages]

    # -- telemetry ---------------------------------------------------------

    def health_report(self, grace=5.0):
        """The fleet health document: counters, jobs, SLOs, incidents.

        This is what ``python -m repro fleet --health-report`` writes and
        the runner's health suite merges; see
        :func:`repro.obs.slo.build_health_document` for the schema.
        """
        return build_health_document(
            self.snapshot(), self.result().rows(),
            board=self.slo, flight=self.flight, grace=grace,
        )

    def snapshot(self):
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_queued": len(self.scheduler.queue),
            "jobs_starting": self._starting,
            "jobs_running": self._running,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "rate_epochs": self.rate_epochs,
            "link_failures": self.link_failures,
            "links_down": len(self.failed_links),
            "loss_injections": self.loss_injections,
            "policy": self.scheduler.policy.value,
            "fidelity_mode": self.fidelity.mode.value,
            "fidelity_promotions": self.fidelity.promotions,
            "fidelity_extensions": self.fidelity.extensions,
            "fidelity_demotions": self.fidelity.demotions,
            "fidelity_triggers": self.fidelity.triggers,
            "fidelity_pricing_events": self.fidelity_pricing_events,
            "dp_bytes_fluid": self.dp_bytes_fluid,
            "dp_bytes_packet": self.dp_bytes_packet,
            "dp_bytes_total": self.dp_bytes_total,
        }

    def register_metrics(self, registry, prefix="cluster"):
        registry.add_provider("%s.fleet" % prefix, self.snapshot)
        registry.add_provider("%s.scheduler" % prefix, self.scheduler.snapshot)
        for host in self.scheduler.hosts:
            host.register_metrics(
                registry, prefix="%s.host.%s" % (prefix, host.name)
            )
        self.engine.register_metrics(registry, prefix="%s.engine" % prefix)
        return registry

    def __repr__(self):
        return "FleetSimulation(hosts=%d, jobs=%d, t=%.1fs)" % (
            len(self.scheduler.hosts), len(self.jobs), self.engine.now,
        )
