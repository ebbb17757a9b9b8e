"""Packet-granularity discrete-event network simulator.

Models output-queued switch ports with ECN marking, tail drop, random
loss injection (Figure 11), per-packet path spraying, ACK-clocked
window congestion control, and RTO-driven retransmission on a different
path — the full Stellar transport of Section 7 at packet granularity.

Used for the queue-depth (Figure 9) and loss-resilience (Figure 11)
experiments and for pricing the fleet's promoted hybrid-fidelity
windows; the fluid simulator handles the 512+-GPU collective runs.

The hot path is struct-of-arrays: whole window bursts are priced
through one numpy busy-chain per first-hop port (send_burst) and
retransmission timers collapse into one lazy ladder per flow — both
reproduce the scalar engine's floats and RNG draws bit for bit
(tests/test_packet_differential.py pins this).  Traced runs execute the
same code; the tracer only observes.
"""

from collections import deque
from functools import partial

import numpy as np

from repro import calibration
from repro.core.spray import PathSelector, SprayConnection
from repro.rnic.cc import WindowCC
from repro.sim.engine import EventScheduler
from repro.sim.rng import RngStream

#: One-way propagation + switching latency per hop (short DC cables).
HOP_PROPAGATION_SECONDS = 1.0e-6

#: ECN marking threshold, as queue depth in bytes (per port).
DEFAULT_ECN_THRESHOLD_BYTES = 512 * 1024

#: Tail-drop limit per port.
DEFAULT_MAX_QUEUE_BYTES = 16 * 1024 * 1024

#: Minimum same-instant packets before :meth:`MessageFlow._pump` takes
#: the vectorized burst path; below this the numpy setup costs more
#: than the scalar hops it replaces.
BURST_MIN_PACKETS = 8


class PortState:
    """Transmit-port state: virtual queue via busy time, plus statistics."""

    __slots__ = (
        "ref",
        "rate",
        "busy_until",
        "drop_prob",
        "ecn_threshold",
        "max_queue",
        "bytes_tx",
        "packets_tx",
        "drops_random",
        "drops_overflow",
        "ecn_marks",
        "queue_samples",
        "queue_sample_sum",
        "queue_max",
    )

    def __init__(self, ref, rate, ecn_threshold, max_queue):
        self.ref = ref
        self.rate = rate
        self.busy_until = 0.0
        self.drop_prob = 0.0
        self.ecn_threshold = ecn_threshold
        self.max_queue = max_queue
        self.bytes_tx = 0
        self.packets_tx = 0
        self.drops_random = 0
        self.drops_overflow = 0
        self.ecn_marks = 0
        self.queue_samples = 0
        self.queue_sample_sum = 0.0
        self.queue_max = 0.0

    def queue_bytes(self, now):
        """Backlog implied by the busy horizon (virtual output queue)."""
        return max(0.0, (self.busy_until - now) * self.rate / 8.0)

    def sample_queue(self, now):
        depth = self.queue_bytes(now)
        self.queue_samples += 1
        self.queue_sample_sum += depth
        self.queue_max = max(self.queue_max, depth)
        return depth

    @property
    def queue_avg(self):
        return self.queue_sample_sum / self.queue_samples if self.queue_samples else 0.0

    def snapshot(self, now=0.0):
        """Public counter snapshot for one port (Neohost port counters)."""
        return {
            "bytes_tx": self.bytes_tx,
            "packets_tx": self.packets_tx,
            "queue_depth": self.queue_bytes(now),
            "queue_avg": self.queue_avg,
            "queue_max": self.queue_max,
            "ecn_marks": self.ecn_marks,
            "drops_random": self.drops_random,
            "drops_overflow": self.drops_overflow,
        }


class PacketNetSim:
    """The event-driven fabric: ports + packet forwarding."""

    def __init__(
        self,
        topology,
        seed=0,
        ecn_threshold=DEFAULT_ECN_THRESHOLD_BYTES,
        max_queue=DEFAULT_MAX_QUEUE_BYTES,
        tracer=None,
        flight=None,
    ):
        self.topology = topology
        #: Optional FlightRecorder; hooks live on rare paths only (loss
        #: injection, RTOs), never per packet or per ACK.
        self.flight = flight
        self.scheduler = EventScheduler()
        self.rng = RngStream(seed, "packet-sim")
        self.ecn_threshold = ecn_threshold
        self.max_queue = max_queue
        self._ports = {}
        #: id(route) -> (route, tuple of PortState) — per-route port
        #: resolution memo, see send_packet().  The entry keeps the route
        #: object alive, so its id can never be recycled while cached.
        self._route_ports = {}
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        #: Bumped on every inject_loss() call; flows revalidate their
        #: cached burst-send eligibility against it (see
        #: MessageFlow._burst_eligible).
        self._loss_epoch = 0
        self.tracer = None
        self._latency_hist = None
        if tracer is not None:
            self.set_tracer(tracer)

    @property
    def now(self):
        return self.scheduler.now

    # -- telemetry --------------------------------------------------------

    def set_tracer(self, tracer):
        """Attach a tracer to the sim and its scheduler (None to detach)."""
        self.tracer = self.scheduler.set_tracer(tracer)
        return self.tracer

    def register_metrics(self, registry, prefix="net"):
        """Expose fabric counters under ``net.*`` and start the latency
        histogram (``net.packet.latency_us``).

        Per-port counters appear as ``net.port.<link>.*`` as ports are
        touched; the scheduler rides along under ``scheduler.*``.
        """
        from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_US

        registry.add_provider(prefix + ".sim", self.snapshot)
        registry.add_provider(prefix + ".port", self._port_snapshots)
        self._latency_hist = registry.histogram(
            prefix + ".packet.latency_us",
            bounds=DEFAULT_LATENCY_BUCKETS_US,
            description="end-to-end delivered packet latency (sim us)",
        )
        self.scheduler.register_metrics(registry)
        return registry

    def ports(self):
        """All materialized port states (public accessor for diagnostics)."""
        return list(self._ports.values())

    def snapshot(self):
        """Public top-level counter snapshot of the fabric."""
        return {
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "packets_in_flight": (
                self.packets_sent - self.packets_delivered
                - self.packets_dropped
            ),
            "ports": len(self._ports),
        }

    def _port_snapshots(self):
        now = self.now
        return {
            repr(port.ref): port.snapshot(now) for port in self._ports.values()
        }

    def port(self, ref):
        state = self._ports.get(ref)
        if state is None:
            state = PortState(
                ref, self.topology.link_rate(ref), self.ecn_threshold, self.max_queue
            )
            self._ports[ref] = state
        return state

    def inject_loss(self, ref, drop_prob):
        """Random loss on one port (the Figure 11 failure model)."""
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop probability out of range: %r" % drop_prob)
        self.port(ref).drop_prob = drop_prob
        self._loss_epoch += 1
        if self.flight is not None:
            if drop_prob == 0.0:
                kind, severity = "path-up", "info"
            elif drop_prob >= 1.0:
                kind, severity = "path-down", "error"
            else:
                kind, severity = "loss-inject", "warn"
            self.flight.record(
                self.now, "net", kind, entity=repr(ref),
                severity=severity, drop_prob=drop_prob,
            )

    def send_packet(self, route, size, on_delivered, on_dropped=None):
        """Forward one packet along ``route`` (a sequence of LinkRefs).

        ``on_delivered(latency, ecn_marked)`` fires at the destination;
        ``on_dropped(link)`` fires at the drop point.
        """
        self.packets_sent += 1
        # Resolve the route's PortStates once per packet instead of once
        # per hop: routes from DualPlaneTopology.route() are interned
        # tuples, so an identity-checked id() memo replaces one LinkRef
        # dict lookup per hop (a Python-level __hash__ call each) with a
        # single int-keyed get per packet.  The memo entry pins the route
        # object, so a cached id can never be recycled.
        entry = self._route_ports.get(id(route))
        if entry is None or entry[0] is not route:
            ports = tuple(self.port(ref) for ref in route)
            entry = (route, ports, len(ports))
            self._route_ports[id(route)] = entry
        packet = (
            entry[1], entry[2], size, self.scheduler.now,
            on_delivered, on_dropped,
        )
        self._hop(packet, 0, False)

    def _hop(self, packet, index, ecn):
        # The per-packet hot loop: one invocation per hop per packet, so
        # port state is updated inline (attribute stores on locals)
        # instead of through PortState helpers.  Float expressions match
        # the helpers op for op — sampled depths and departure times feed
        # the determinism digests.  The per-packet invariants travel in
        # one ``packet`` tuple so each hop's continuation closes over
        # three cells instead of eight.
        ports, hop_count, size, start_time, on_delivered, on_dropped = packet
        scheduler = self.scheduler
        now = scheduler.now
        if index >= hop_count:
            self.packets_delivered += 1
            latency = now - start_time
            if self._latency_hist is not None:
                self._latency_hist.observe(latency * 1e6)
            on_delivered(latency, ecn)
            return
        port = ports[index]
        # Inlined PortState.sample_queue()/queue_bytes().
        queue = (port.busy_until - now) * port.rate / 8.0
        if queue <= 0.0:
            queue = 0.0
        port.queue_samples += 1
        port.queue_sample_sum += queue
        if queue > port.queue_max:
            port.queue_max = queue
        drop_prob = port.drop_prob
        if drop_prob > 0 and self.rng.random() < drop_prob:
            port.drops_random += 1
        elif queue + size > port.max_queue:
            port.drops_overflow += 1
        else:
            if queue >= port.ecn_threshold:
                port.ecn_marks += 1
                ecn = True
            tx_time = size * 8.0 / port.rate
            busy = port.busy_until
            depart = (busy if busy > now else now) + tx_time
            port.busy_until = depart
            # schedule_call: the hop event is never cancelled, so skip
            # the Event-handle allocation; a C-level partial continues
            # the packet without a closure frame per hop.
            scheduler.schedule_call(
                depart - now + HOP_PROPAGATION_SECONDS,
                partial(self._hop, packet, index + 1, ecn),
            )
            return
        self.packets_dropped += 1
        if self.tracer is not None:
            self.tracer.instant(
                "packet.drop", now, track="net",
                args={"link": repr(port.ref), "bytes": size},
            )
        if on_dropped is not None:
            on_dropped(port.ref)

    def send_burst(self, rows):
        """Vectorized hop 0 for a same-instant burst from one sender.

        ``rows`` is a list of ``(route, size, on_delivered)``.  The
        caller guarantees no first-hop port in the burst can randomly
        drop (batching would otherwise reorder the drop draws relative
        to the scalar path-draw/hop interleaving).  When every row
        shares one first-hop port and nothing can tail-drop, the port's
        busy-time chain, queue samples, and ECN marks are computed
        struct-of-arrays style — cumulative sums reproduce the scalar
        ``+=`` chains bit for bit — and only the hop-1 continuations go
        through the scheduler one by one.  Mixed first hops or a
        potential overflow fall back to the exact scalar hop, which is
        RNG-free here, so either way the draw sequence and every float
        matches the scalar engine.
        """
        count = len(rows)
        self.packets_sent += count
        now = self.scheduler.now
        route_ports = self._route_ports
        entries = []
        for row in rows:
            route = row[0]
            entry = route_ports.get(id(route))
            if entry is None or entry[0] is not route:
                ports = tuple(self.port(ref) for ref in route)
                entry = (route, ports, len(ports))
                route_ports[id(route)] = entry
            entries.append(entry)
        port = entries[0][1][0]
        vector = port.drop_prob == 0.0
        if vector:
            for entry in entries:
                if entry[1][0] is not port:
                    vector = False
                    break
        if vector:
            # Struct-of-arrays hop 0.  Float expressions mirror _hop()
            # op for op (``size * 8.0 / rate``, ``(busy - now) * rate
            # / 8.0``); np.cumsum runs its adds sequentially, so the
            # departure chain and the queue_sample_sum accumulator are
            # bit-identical to the scalar loop's repeated ``+=``.
            sizes = np.array([row[1] for row in rows], dtype=np.float64)
            rate = port.rate
            busy = port.busy_until
            chain = np.empty(count + 1)
            chain[0] = busy if busy > now else now
            chain[1:] = sizes * 8.0 / rate
            departs = np.cumsum(chain)[1:]
            before = np.empty(count)
            before[0] = busy
            before[1:] = departs[:-1]
            queues = (before - now) * rate / 8.0
            np.maximum(queues, 0.0, out=queues)
            if not np.any(queues + sizes > port.max_queue):
                ecn = queues >= port.ecn_threshold
                port.queue_samples += count
                chain[0] = port.queue_sample_sum
                chain[1:] = queues
                port.queue_sample_sum = float(np.cumsum(chain)[-1])
                peak = float(queues.max())
                if peak > port.queue_max:
                    port.queue_max = peak
                marks = int(np.count_nonzero(ecn))
                if marks:
                    port.ecn_marks += marks
                port.busy_until = float(departs[-1])
                delays = departs - now + HOP_PROPAGATION_SECONDS
                schedule_call = self.scheduler.schedule_call
                hop = self._hop
                for i in range(count):
                    entry = entries[i]
                    row = rows[i]
                    packet = (
                        entry[1], entry[2], row[1], now, row[2], _drop_ignored,
                    )
                    schedule_call(
                        float(delays[i]), partial(hop, packet, 1, bool(ecn[i])),
                    )
                return
        hop = self._hop
        for i in range(count):
            entry = entries[i]
            row = rows[i]
            packet = (entry[1], entry[2], row[1], now, row[2], _drop_ignored)
            hop(packet, 0, False)

    # -- statistics -------------------------------------------------------

    def start_queue_monitor(self, interval=100e-6, segment=None, rail=None):
        """Periodically sample every ToR uplink queue (switch telemetry).

        Time-based sampling is unbiased where arrival-based sampling
        over-weights busy instants; Figure 9's queue-depth series is
        reported from these samples via :meth:`monitored_queue_stats`.
        """
        links = self.topology.tor_uplinks(segment=segment, rail=rail)
        self._monitor_samples = []
        self._monitor_links = links

        def sample():
            depths = [
                self._ports[link].queue_bytes(self.now)
                if link in self._ports else 0.0
                for link in links
            ]
            self._monitor_samples.append(depths)
            self.scheduler.schedule(interval, sample)

        self.scheduler.schedule(0.0, sample)

    def monitored_queue_stats(self):
        """(avg, max) queue depth in bytes over all monitored samples."""
        samples = getattr(self, "_monitor_samples", None)
        if not samples:
            raise ValueError("start_queue_monitor() was never called")
        total = sum(sum(row) for row in samples)
        count = sum(len(row) for row in samples)
        peak = max(max(row) for row in samples)
        return total / count, peak

    def tor_queue_stats(self, segment=None, rail=None):
        """(avg, max) sampled queue depth in bytes over ToR uplink ports.

        Ports that never carried traffic contribute zero-depth samples via
        their absence — we average over ports that exist in the sim plus
        untouched uplinks, mirroring a switch-counter sweep.
        """
        links = self.topology.tor_uplinks(segment=segment, rail=rail)
        total = 0.0
        worst = 0.0
        for link in links:
            state = self._ports.get(link)
            if state is None or state.queue_samples == 0:
                continue
            total += state.queue_avg
            worst = max(worst, state.queue_max)
        return (total / len(links) if links else 0.0), worst

    def run(self, until=None, max_events=None):
        return self.scheduler.run(until=until, max_events=max_events)


class FlowResult:
    """Outcome of one finished (or cut-off) message flow."""

    __slots__ = (
        "flow_id",
        "bytes_acked",
        "completion_time",
        "retransmissions",
        "rtos",
    )

    def __init__(self, flow_id, bytes_acked, completion_time, retransmissions, rtos):
        self.flow_id = flow_id
        self.bytes_acked = bytes_acked
        self.completion_time = completion_time
        self.retransmissions = retransmissions
        self.rtos = rtos

    @property
    def goodput(self):
        """Achieved rate in bits/second."""
        if not self.completion_time:
            return 0.0
        return self.bytes_acked * 8.0 / self.completion_time

    def __repr__(self):
        return "FlowResult(%r, %.1fMB acked, %.2fms)" % (
            self.flow_id,
            self.bytes_acked / 1e6,
            (self.completion_time or 0) * 1e3,
        )


def _drop_ignored(link):
    """Shared no-op drop callback: flows detect loss by RTO only.

    Module-level so the per-packet send path doesn't allocate a fresh
    closure for a callback that never does anything.
    """


class MessageFlow:
    """One RDMA message driven through a SprayConnection over the sim."""

    def __init__(
        self,
        sim,
        flow_id,
        src,
        dst,
        rail,
        message_bytes,
        algorithm="obs",
        path_count=calibration.SPRAY_PATH_COUNT,
        mtu=64 * 1024,
        connection_id=0,
        rto=calibration.SPRAY_RTO_SECONDS,
        cc=None,
        start_time=0.0,
        recovery="selective",
    ):
        self.sim = sim
        self._scheduler = sim.scheduler  # hot-path alias (sim.now property)
        self._send_packet = sim.send_packet  # hot-path bound method
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.rail = rail
        self.message_bytes = message_bytes
        self.mtu = mtu
        self.connection_id = connection_id
        self.conn = SprayConnection(
            flow_id,
            algorithm=algorithm,
            path_count=path_count,
            rng=RngStream(sim.rng.seed, "flow", flow_id),
            cc=cc,
            rto=rto,
        )
        self.bytes_unsent = message_bytes
        self.bytes_acked = 0
        self.start_time = start_time
        self.finish_time = None
        self.rto_count = 0
        self._next_seq = 0
        #: seq -> (size, path, tx id) for every unacked packet.  The tx id
        #: is a per-flow monotone counter that disambiguates
        #: retransmissions reusing a seq in the lazy RTO ladder below.
        self._outstanding = {}
        # SprayConnection.rto is immutable after construction; the alias
        # saves one attribute hop per transmitted packet.
        self._rto = self.conn.rto
        #: Lazy RTO machinery: a FIFO of
        #: (deadline, seq, size, path, tx id) — deadline-ordered because
        #: the RTO is constant and send times are non-decreasing —
        #: drained by a single armed timer (_rto_tick) instead of one
        #: schedule/cancel Event pair per packet.
        self._rto_ladder = deque()
        self._rto_timer_armed = False
        self._next_tx_id = 0
        #: Burst-send cache: whether every first-hop port is drop-free,
        #: revalidated whenever the sim's loss configuration changes
        #: (see _burst_eligible).
        self._burst_safe = False
        self._burst_epoch = -1
        # Oblivious selectors inherit the base no-op on_feedback; caching
        # None for them skips one dead method call per ACK.  Selectors
        # that do react to feedback (dwrr, flowlet) keep the bound method.
        selector = self.conn.selector
        if type(selector).on_feedback is PathSelector.on_feedback:
            self._selector_feedback = None
        else:
            self._selector_feedback = selector.on_feedback
        #: path id -> interned route; (src, dst, rail, connection_id) are
        #: fixed per flow, so the topology route key shrinks to one int.
        self._routes = {}
        if recovery not in ("selective", "go_back_n"):
            raise ValueError("unknown recovery mode %r" % recovery)
        #: "selective" is Stellar's out-of-order-tolerant recovery (Direct
        #: Packet Placement); "go_back_n" is classic single-path RoCE,
        #: where one loss retransmits the entire tail of the window.
        self.recovery = recovery
        self.on_complete = None
        if sim.tracer is not None:
            sim.tracer.async_begin(
                "flow", id=flow_id, ts=start_time, track="flows",
                args={"flow": repr(flow_id), "bytes": message_bytes,
                      "algorithm": algorithm},
            )
        sim.scheduler.schedule_at(start_time, self._pump)

    @property
    def done(self):
        return self.finish_time is not None

    def result(self):
        completion = (
            (self.finish_time - self.start_time) if self.finish_time else
            (self.sim.now - self.start_time)
        )
        return FlowResult(
            self.flow_id,
            self.bytes_acked,
            completion,
            self.conn.retransmissions,
            self.rto_count,
        )

    # -- transmission machinery ----------------------------------------

    def _pump(self):
        conn = self.conn
        cc = conn.cc
        next_path = conn.selector.next_path  # skip the conn delegation
        mtu = self.mtu
        now = self._scheduler.now
        if cc.__class__ is WindowCC:
            # Inlined can_send(mtu)/on_send(size) for the stock window
            # CC, batched: decide the whole burst's sizes with local
            # ints first (same comparisons as the scalar loop — window
            # is constant during a pump, no ACK runs in between), then
            # transmit.  Big window-opening bursts go struct-of-arrays
            # through send_burst(); small ACK-clocked refills replay the
            # scalar sequence.  Subclasses and alternative CCs take the
            # generic loop below so overrides keep working.
            in_flight = cc.in_flight
            window = cc.window
            unsent = self.bytes_unsent
            sizes = []
            while unsent > 0:
                if in_flight != 0 and in_flight + mtu > window:
                    break
                size = mtu if mtu < unsent else unsent
                unsent -= size
                in_flight += size
                sizes.append(size)
            if not sizes:
                return
            cc.in_flight = in_flight
            self.bytes_unsent = unsent
            if len(sizes) >= BURST_MIN_PACKETS and self._burst_eligible():
                self._transmit_burst(sizes, now, next_path)
                return
            for size in sizes:
                seq = self._next_seq
                self._next_seq = seq + 1
                self._transmit(seq, size, next_path(now=now))
            return
        while self.bytes_unsent > 0 and cc.can_send(mtu):
            size = mtu if mtu < self.bytes_unsent else self.bytes_unsent
            self.bytes_unsent -= size
            seq = self._next_seq
            self._next_seq += 1
            cc.on_send(size)
            self._transmit(seq, size, next_path(now=now))

    def _transmit(self, seq, size, path):
        route = self._routes.get(path)
        if route is None:
            route = self.sim.topology.route(
                self.src, self.dst, self.rail,
                path_id=path, connection_id=self.connection_id,
            )
            self._routes[path] = route
        scheduler = self._scheduler
        sent_at = scheduler.now
        tx_id = self._next_tx_id
        self._next_tx_id = tx_id + 1
        # Lazy RTO ladder: one deque append here plus a single armed
        # timer replaces a per-packet Event schedule and the (almost
        # always) matching cancel — the dominant scheduler churn of a
        # healthy flow, where real RTO fires are vanishingly rare.  _hop
        # calls the delivery partial with (latency, ecn), which append
        # positionally onto (seq, size, path, sent_at).
        deadline = sent_at + self._rto
        self._rto_ladder.append((deadline, seq, size, path, tx_id))
        self._outstanding[seq] = (size, path, tx_id)
        if not self._rto_timer_armed:
            self._rto_timer_armed = True
            scheduler.schedule_at(deadline, self._rto_tick)
        self._send_packet(
            route,
            size,
            on_delivered=partial(self._on_delivered, seq, size, path, sent_at),
            on_dropped=_drop_ignored,
        )

    def _burst_eligible(self):
        """True when a burst send cannot perturb the RNG draw order.

        Burst sends draw every path before running any hop, so they are
        only exact when no first-hop port can randomly drop (no drop
        draw can interleave with the path draws).  A sim that never saw
        inject_loss() qualifies outright — no port anywhere draws.
        Otherwise eligibility needs every path's route resolved so each
        first hop can be checked, and the verdict is cached per loss
        epoch (inject_loss invalidates it).
        """
        sim = self.sim
        if sim._loss_epoch == 0:
            return True
        routes = self._routes
        if len(routes) < self.conn.path_count:
            return False
        if self._burst_epoch == sim._loss_epoch:
            return self._burst_safe
        port = sim.port
        safe = all(port(route[0]).drop_prob == 0.0 for route in routes.values())
        self._burst_epoch = sim._loss_epoch
        self._burst_safe = safe
        return safe

    def _transmit_burst(self, sizes, now, next_path):
        """Ladder + outstanding bookkeeping for a burst, then send_burst.

        Path draws happen in the same order as the scalar loop; hop 0
        consumes no RNG here (_burst_eligible), so batching them ahead
        of the hops leaves the draw sequence unchanged.
        """
        routes = self._routes
        ladder = self._rto_ladder
        outstanding = self._outstanding
        on_delivered = self._on_delivered
        deadline = now + self._rto
        seq = self._next_seq
        tx_id = self._next_tx_id
        rows = []
        for size in sizes:
            path = next_path(now=now)
            route = routes.get(path)
            if route is None:
                route = self.sim.topology.route(
                    self.src, self.dst, self.rail,
                    path_id=path, connection_id=self.connection_id,
                )
                routes[path] = route
            rows.append(
                (route, size, partial(on_delivered, seq, size, path, now))
            )
            ladder.append((deadline, seq, size, path, tx_id))
            outstanding[seq] = (size, path, tx_id)
            seq += 1
            tx_id += 1
        self._next_seq = seq
        self._next_tx_id = tx_id
        if not self._rto_timer_armed:
            self._rto_timer_armed = True
            self._scheduler.schedule_at(deadline, self._rto_tick)
        self.sim.send_burst(rows)

    def _rto_tick(self):
        """The flow's single armed retransmission timer.

        Pops every stale head (acked or superseded packets — recognised
        by tx id), fires any live entry whose deadline has passed, then
        re-arms at the next live deadline.  Ticks are O(distinct arm
        points), not O(packets); the per-packet cost is one deque
        append at transmit and one popleft here.
        """
        ladder = self._rto_ladder
        outstanding = self._outstanding
        now = self._scheduler.now
        while ladder:
            deadline, seq, size, path, tx_id = ladder[0]
            entry = outstanding.get(seq)
            if entry is None or entry[2] != tx_id:
                ladder.popleft()
                continue
            if deadline <= now:
                ladder.popleft()
                self._on_rto(seq, size, path)
                continue
            break
        if ladder:
            self._scheduler.schedule_at(ladder[0][0], self._rto_tick)
        else:
            self._rto_timer_armed = False

    def _on_delivered(self, seq, size, path, sent_at, latency, ecn):
        # The ACK flies back contention-free (ACKs are tiny).
        self._scheduler.schedule_call(
            HOP_PROPAGATION_SECONDS * 2,
            partial(self._on_ack, seq, size, path, sent_at, ecn),
        )

    def _on_ack(self, seq, size, path, sent_at, ecn):
        outstanding = self._outstanding
        if self.recovery == "go_back_n":
            if seq not in outstanding:
                return  # already retransmitted; ignore the stale ACK
            if seq != min(outstanding):
                # A go-back-N receiver discards out-of-order arrivals: a
                # gap ahead of this packet means it will be retransmitted
                # anyway.
                return
        if outstanding.pop(seq, None) is None:
            return  # already retransmitted; ignore the stale ACK
        now = self._scheduler.now
        rtt = now - sent_at
        self.bytes_acked += size
        # Inlined SprayConnection.on_ack (pure delegation): credit the CC
        # and feed the path selector directly, one frame fewer per ACK.
        conn = self.conn
        cc = conn.cc
        if cc.__class__ is WindowCC and not ecn and rtt <= cc.target_rtt:
            # Inlined WindowCC.on_ack additive-increase path — the vast
            # majority of ACKs even in loss runs — with the arithmetic
            # matched op for op.  ECN marks and inflated RTTs fall back
            # to the real method so the cut/holdoff logic stays in cc.py,
            # as do CC subclasses (exact-type check).
            in_flight = cc.in_flight - size
            cc.in_flight = in_flight if in_flight > 0 else 0
            cc.acks += 1
            window = cc.window
            cc.window = min(
                cc.max_window,
                window + cc.additive_bytes * size / max(window, 1.0),
            )
        else:
            cc.on_ack(size, ecn, rtt, now)
        feedback = self._selector_feedback
        if feedback is not None:
            feedback(path, rtt, ecn)
        if self.bytes_acked >= self.message_bytes and self.finish_time is None:
            self.finish_time = now
            if self.sim.tracer is not None:
                self.sim.tracer.async_end(
                    "flow", id=self.flow_id, ts=self.finish_time, track="flows",
                    args={"retransmissions": self.conn.retransmissions,
                          "rtos": self.rto_count},
                )
            if self.on_complete is not None:
                self.on_complete(self)
            return
        self._pump()

    def _on_rto(self, seq, size, path):
        if seq not in self._outstanding:
            return
        self.rto_count += 1
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "flow.rto", self.sim.now, track="flows",
                args={"flow": repr(self.flow_id), "seq": seq, "path": path},
            )
        flight = self.sim.flight
        if flight is not None:
            flight.record(
                self.sim.now, "net", "retransmit",
                entity=repr(self.flow_id), severity="warn",
                seq=seq, path=path,
            )
        self.conn.on_loss(path)
        if self.recovery == "go_back_n":
            # Classic RoCE: the loss invalidates every later in-flight
            # packet; retransmit the whole tail (their ladder entries go
            # stale with the pop).
            tail = sorted(s for s in self._outstanding if s >= seq)
            resend = []
            for s in tail:
                sz, p, _tx = self._outstanding.pop(s)
                resend.append((s, sz, p))
            self.conn.cc.on_rto()  # full stall: halve window, clear flight
            self._record_cc_collapse(flight)
            for s, sz, p in resend:
                self.conn.cc.on_send(sz)
                self._transmit(s, sz, self.conn.next_path(now=self.sim.now))
            return
        del self._outstanding[seq]
        self.conn.cc.on_rto(size)
        self._record_cc_collapse(flight)
        # Instant recovery: retransmit on a different path (Section 7.2).
        retry_path = self.conn.retransmit_path(path)
        self.conn.cc.on_send(size)
        self._transmit(seq, size, retry_path)

    def _record_cc_collapse(self, flight):
        """Flag an RTO that drove the CC window to its floor (RTO path only)."""
        if flight is None:
            return
        cc = self.conn.cc
        min_window = getattr(cc, "min_window", None)
        if min_window is not None and cc.window <= min_window:
            flight.record(
                self.sim.now, "net", "cc-collapse",
                entity=repr(self.flow_id), severity="error",
                window=cc.window,
            )


def run_flows(sim, flows, timeout=5.0):
    """Run until every flow completes (or the timeout hits); returns results."""
    deadline = timeout
    while not all(flow.done for flow in flows):
        executed = sim.run(until=deadline, max_events=200_000)
        if executed == 0 and sim.scheduler.peek_time() is None:
            break
        if sim.now >= deadline:
            break
    return [flow.result() for flow in flows]
