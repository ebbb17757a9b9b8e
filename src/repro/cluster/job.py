"""Tenant jobs and the seeded arrival process.

A :class:`JobSpec` is what a tenant submits: a model, a parallel shape
(``containers`` secure containers of ``gpus_per_container`` GPUs each), a
memory footprint, and a lifetime in training iterations.  A :class:`Job`
is the fleet's runtime record of one submission moving through
``QUEUED -> STARTING -> RUNNING -> COMPLETED/FAILED``.

Arrivals are a merged Poisson process, one seeded
:class:`repro.sim.rng.RngStream` child per tenant, so adding a tenant
never perturbs the other tenants' draws (the repo-wide determinism
contract).
"""

import enum

from repro.sim.rng import RngStream
from repro.sim.units import GiB, MiB
from repro.training.models import MODELS, Framework, ParallelStrategy
from repro.virt.hypervisor import MemoryMode


class JobState(enum.Enum):
    QUEUED = "queued"
    STARTING = "starting"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


class JobSpec:
    """What a tenant asks the fleet for."""

    def __init__(
        self,
        name,
        tenant,
        model="Llama-2B",
        containers=2,
        gpus_per_container=2,
        memory_bytes=8 * GiB,
        working_set_bytes=16 * MiB,
        iterations=10,
        memory_mode=MemoryMode.PVDMA,
        framework=Framework.MEGATRON,
        transport="stellar",
        lut_entries_per_container=0,
        abort_after=None,
    ):
        if model not in MODELS:
            raise ValueError("unknown model %r (have %s)"
                             % (model, ", ".join(sorted(MODELS))))
        if containers < 1:
            raise ValueError("job %r needs at least one container" % name)
        self.name = name
        self.tenant = tenant
        self.model = model
        self.containers = containers
        self.gpus_per_container = gpus_per_container
        self.memory_bytes = int(memory_bytes)
        self.working_set_bytes = int(working_set_bytes)
        self.iterations = iterations
        self.memory_mode = memory_mode
        self.framework = framework
        self.transport = transport
        #: Legacy VF-style deployments burn one switch-LUT entry per
        #: container (Section 3.1 problem 3); Stellar vdevices share the
        #: parent BDF and burn none.
        self.lut_entries_per_container = lut_entries_per_container
        #: Simulated seconds after reaching RUNNING at which the tenant
        #: kills the job (models crashes/preemption churn); ``None`` runs
        #: to completion.
        self.abort_after = abort_after

    @property
    def gpus(self):
        return self.containers * self.gpus_per_container

    @property
    def strategy(self):
        """TP within a container, DP across containers (ring traffic)."""
        return ParallelStrategy(
            tp=self.gpus_per_container, pp=1, dp=self.containers,
        )

    def __repr__(self):
        return "JobSpec(%r, tenant=%r, %s, %dx%d gpus, %s)" % (
            self.name, self.tenant, self.model, self.containers,
            self.gpus_per_container, self.memory_mode.value,
        )


class Job:
    """Runtime record of one submitted job."""

    def __init__(self, spec, submit_time):
        self.spec = spec
        self.submit_time = submit_time
        self.state = JobState.QUEUED
        self.index = None            # fleet-assigned, keys connection ids
        self.start_time = None       # admission (containers start booting)
        self.running_time = None     # first iteration possible
        self.end_time = None
        self.startup_seconds = None
        self.hosts = []              # one FleetHost per container, ring order
        self.containers = []         # RunDContainer per placement slot
        self.touch_pages = {}        # container name -> sampled GPA pages
        self.dp_volume = None        # per-rank DP-allreduce bytes/iteration
        self.background_counts = {}  # link -> background-flow draws
        self.iterations_done = 0
        #: ``(sim time, iterations in block, seconds/iteration, penalty)``
        #: — the series the failure/recovery assertions read.
        self.iteration_log = []
        self.slowdown_samples = []   # iter_seconds / isolated iter_seconds
        self.iter_seconds = None     # current contended estimate
        self.iso_iter_seconds = None # measured alone on a clean fabric
        self.dp_seconds = None       # DP-allreduce share of iter_seconds
        self.iso_dp_seconds = None   # DP share of the isolated baseline
        self.abort_event = None
        #: Which engine priced the current iter_seconds ("fluid" or
        #: "packet"), and the DP-allreduce byte ledger split by regime.
        #: Bytes are attributed at block start to the regime that priced
        #: the block; fluid + packet must always equal total (the
        #: SimSanitizer cross-fidelity conservation check).
        self.rate_fidelity = "fluid"
        self.dp_bytes_fluid = 0
        self.dp_bytes_packet = 0
        self.dp_bytes_total = 0

    @property
    def wait_seconds(self):
        """Queue wait: submission to admission (None while queued)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def unique_hosts(self):
        """Ring order over distinct hosts (containers may share a host)."""
        seen = {}
        for host in self.hosts:
            if host.name not in seen:
                seen[host.name] = host
        return list(seen.values())

    @property
    def done(self):
        return self.iterations_done >= self.spec.iterations

    def goodput(self):
        """Iterations per second over the RUNNING window (0 if never ran)."""
        if self.running_time is None or not self.iterations_done:
            return 0.0
        end = self.end_time
        if end is None or end <= self.running_time:
            return 0.0
        return self.iterations_done / (end - self.running_time)

    def __repr__(self):
        return "Job(%r, %s, done=%d/%d)" % (
            self.spec.name, self.state.value, self.iterations_done,
            self.spec.iterations,
        )


class TenantProfile:
    """One tenant's statistical behaviour: arrival rate + job templates."""

    def __init__(self, name, arrival_rate, templates, max_jobs=4):
        if arrival_rate <= 0:
            raise ValueError("arrival rate must be positive: %r" % arrival_rate)
        if not templates:
            raise ValueError("tenant %r needs at least one job template" % name)
        self.name = name
        self.arrival_rate = arrival_rate
        self.templates = list(templates)
        self.max_jobs = max_jobs

    def __repr__(self):
        return "TenantProfile(%r, rate=%g/s, %d template(s))" % (
            self.name, self.arrival_rate, len(self.templates),
        )


class JobArrivalProcess:
    """Seeded multi-tenant Poisson arrivals."""

    def __init__(self, tenants, seed=0):
        self.tenants = list(tenants)
        self.seed = seed

    def generate(self, horizon):
        """``[(arrival time, JobSpec)]`` sorted by (time, job name).

        Each tenant draws from its own child stream, so the merged
        schedule is stable under adding/removing other tenants.
        """
        arrivals = []
        for tenant in self.tenants:
            stream = RngStream(self.seed, "arrivals", tenant.name)
            at = 0.0
            for k in range(tenant.max_jobs):
                at += stream.expovariate(tenant.arrival_rate)
                if at > horizon:
                    break
                template = stream.choice(tenant.templates)
                spec = JobSpec(
                    name="%s-j%d" % (tenant.name, k),
                    tenant=tenant.name,
                    **template,
                )
                arrivals.append((at, spec))
        return sorted(arrivals, key=lambda pair: (pair[0], pair[1].name))

    def __repr__(self):
        return "JobArrivalProcess(%d tenants, seed=%d)" % (
            len(self.tenants), self.seed,
        )
