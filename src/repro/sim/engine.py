"""Heap-based discrete-event scheduler.

The scheduler is deliberately minimal: events are ``(time, sequence,
callback)`` triples, ties broken by insertion order so runs are fully
deterministic.  Components schedule callbacks; the run loop executes them
in timestamp order until the queue drains or a time/ event budget is hit.

Hot-path design (the perf suite in :mod:`repro.perf` tracks all of it):

* Heap entries are plain ``(time, seq, event)`` tuples, so ``heappush``/
  ``heappop`` compare tuples in C instead of calling ``Event.__lt__``
  per comparison (``seq`` is unique, so the ``event`` element is never
  compared).
* Live/cancelled counts are maintained incrementally — ``pending()`` is
  O(1) instead of an O(n) heap scan.
* ``run()`` is the only dispatch loop: one heap pop per event, with
  same-timestamp batches drained in an inner loop.  ``step()`` is
  ``run(max_events=1)``.
* Observers never fork the loop.  Every executed event goes through one
  per-event hook, ``hook(event_time, callback)``, which must call the
  callback; it is ``None`` when nothing observes.  The tracer's
  wall-time/queue-depth recording (:meth:`set_tracer`) and
  :class:`~repro.sim.sanitizer.SimSanitizer`'s clock check are hooks.
* Cancelled events are skipped lazily, and the heap is compacted once
  dead entries outnumber live ones (loss-heavy packet runs cancel
  thousands of timers that would otherwise linger until their deadline).
"""

import heapq
import itertools
import time

from repro.obs.trace import callback_name


class SimProcessError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. time travel)."""


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "callback", "cancelled", "seq", "_sched")

    def __init__(self, time, seq, callback, sched=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        # Owning scheduler while the event sits in its heap; cleared on
        # execution/skip so late cancels don't corrupt the live count.
        self._sched = sched

    def cancel(self):
        """Mark the event dead; the run loop skips cancelled events."""
        if not self.cancelled:
            self.cancelled = True
            sched = self._sched
            if sched is not None:
                self._sched = None
                sched._note_cancel()

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return "Event(t=%g, seq=%d%s)" % (self.time, self.seq, state)


class EventScheduler:
    """Discrete-event run loop with deterministic tie-breaking."""

    #: Emit a queue-depth counter sample every N traced callbacks.
    QUEUE_SAMPLE_EVERY = 32

    #: Compact the heap once cancelled entries both
    #: outnumber live ones and exceed this floor — below it, lazy
    #: skipping is cheaper than a heapify.
    COMPACT_MIN_DEAD = 64

    def __init__(self, start_time=0.0, tracer=None):
        self.now = float(start_time)
        # Heap entries are (time, seq, payload) where payload is either a
        # cancellable Event handle or — via schedule_call() — the bare
        # callback itself.  seq is unique, so payloads are never compared.
        self._heap = []
        self._counter = itertools.count()
        self.events_executed = 0
        # Cancelled-but-still-queued entry count; live = len(heap) - dead.
        self._dead = 0
        #: Per-event hook ``hook(event_time, callback)`` or ``None``.
        self._hook = None
        self.tracer = None
        if tracer is not None:
            self.set_tracer(tracer)

    def set_tracer(self, tracer):
        """Attach a :class:`repro.obs.trace.Tracer` (or ``None`` to detach).

        Disabled tracers (``NULL_TRACER``) normalize to ``None``.  The
        tracer observes through the per-event hook: when no other
        observer (a ``SimSanitizer``) has wrapped it, the hook is
        :meth:`_trace_call` or ``None``; an observer's chain ends in
        :meth:`_trace_call`, which reads ``self.tracer`` per event.
        Attach tracers between ``run()`` calls — the run loop latches
        the hook when it starts.
        """
        if tracer is not None and not getattr(tracer, "enabled", True):
            tracer = None
        self.tracer = tracer
        hook = self._hook
        if hook is None or hook == self._trace_call:
            self._hook = None if tracer is None else self._trace_call
        return tracer

    def _trace_call(self, event_time, callback):
        """The tracer's per-event hook: run ``callback`` and record it."""
        tracer = self.tracer
        if tracer is None:
            callback()
            return
        # Wall-clock here profiles the *simulator itself* (how long a
        # callback took in host time); it never feeds simulation state.
        wall_start = time.perf_counter()  # simlint: ok D-wallclock D-sim-pure
        callback()
        wall = time.perf_counter() - wall_start  # simlint: ok D-wallclock D-sim-pure
        depth = None
        if self.events_executed % self.QUEUE_SAMPLE_EVERY == 0:
            depth = len(self._heap)
        tracer.record_callback(
            event_time, callback_name(callback), wall, queue_depth=depth
        )

    def register_metrics(self, registry, prefix="scheduler"):
        """Expose run-loop health under ``scheduler.*`` in ``registry``."""
        registry.add_provider(prefix, self.snapshot)
        return registry

    def snapshot(self):
        """Public counter snapshot of the run loop."""
        return {
            "now": self.now,
            "events_executed": self.events_executed,
            "queue_len": len(self._heap),
        }

    def schedule(self, delay, callback):
        """Schedule ``callback()`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimProcessError("cannot schedule into the past (delay=%r)" % delay)
        # Inlined schedule_at(): this is the per-packet hot call, and
        # delay >= 0 already guarantees the past-scheduling invariant.
        time = self.now + delay
        event = Event(time, next(self._counter), callback, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_call(self, delay, callback):
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle.

        For hot paths that never cancel (per-hop packet forwarding): the
        bare callback goes into the heap, skipping the Event allocation.
        Execution order and tracing are identical to :meth:`schedule`.
        """
        if delay < 0:
            raise SimProcessError("cannot schedule into the past (delay=%r)" % delay)
        heapq.heappush(
            self._heap, (self.now + delay, next(self._counter), callback)
        )

    def schedule_at(self, time, callback):
        """Schedule ``callback()`` at an absolute simulation time."""
        if time < self.now:
            raise SimProcessError(
                "cannot schedule at t=%g before now=%g" % (time, self.now)
            )
        time = float(time)
        event = Event(time, next(self._counter), callback, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def _note_cancel(self):
        """Accounting hook from :meth:`Event.cancel` (pending events only)."""
        dead = self._dead = self._dead + 1
        if dead >= self.COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self):
        """Drop cancelled entries in place and re-heapify.

        In place (``heap[:] =``) on purpose: the fused run loop holds a
        local reference to the heap list, which must stay valid across a
        compaction triggered from inside a callback.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(heap)
        self._dead = 0

    def peek_time(self):
        """Timestamp of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            payload = heap[0][2]
            if payload.__class__ is Event and payload.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            return heap[0][0]
        return None

    def step(self):
        """Execute the next live event.  Returns ``False`` when queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until=None, max_events=None):
        """Run events in order.

        Args:
            until: stop once simulation time would exceed this value.  The
                clock is advanced to ``until`` when the queue outlives it.
            max_events: safety valve against runaway event storms.

        Returns:
            The number of events executed by this call.
        """
        executed = 0
        budget = float("inf") if max_events is None else max_events
        limit = float("inf") if until is None else until
        heap = self._heap
        heappop = heapq.heappop
        hook = self._hook
        while heap:
            if executed >= budget:
                return executed
            entry = heap[0]
            payload = entry[2]
            is_event = payload.__class__ is Event
            if is_event and payload.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            event_time = entry[0]
            if event_time > limit:
                self.now = float(until)
                return executed
            heappop(heap)
            if is_event:
                payload._sched = None
                callback = payload.callback
            else:
                callback = payload
            self.now = event_time
            self.events_executed += 1
            executed += 1
            if hook is None:
                callback()
            else:
                hook(event_time, callback)
            # Batched dispatch: while the next entries share this
            # timestamp, drain them here without re-running the outer
            # loop's limit compare and clock store — neither can change
            # within one timestamp.  Heap pops stay one-per-event (ties
            # are ordered by seq, which only the heap knows), but the
            # per-event bookkeeping collapses to the cancellation check
            # and the budget guard.  Events a callback schedules at this
            # same timestamp carry larger seqs and are drained by this
            # same loop, in order; events it cancels are still
            # heap-resident and are skipped with exact dead-entry
            # accounting.
            while heap and heap[0][0] == event_time and executed < budget:
                payload = heap[0][2]
                if payload.__class__ is Event:
                    if payload.cancelled:
                        heappop(heap)
                        self._dead -= 1
                        continue
                    heappop(heap)
                    payload._sched = None
                    callback = payload.callback
                else:
                    heappop(heap)
                    callback = payload
                self.events_executed += 1
                executed += 1
                if hook is None:
                    callback()
                else:
                    hook(event_time, callback)
        if until is not None and self.now < until:
            self.now = float(until)
        return executed

    def pending(self):
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._dead

    def live_events(self):
        """The live events still queued, in execution order.

        Public accessor for leak diagnostics (``SimSanitizer``): a
        workload that declares completion while events remain queued has
        leaked them, and their reprs/callbacks name the culprit.
        Handle-free ``schedule_call`` entries are wrapped in synthetic
        Events so callers see one uniform shape.
        """
        live = []
        for entry in self._heap:
            payload = entry[2]
            if payload.__class__ is Event:
                if not payload.cancelled:
                    live.append(payload)
            else:
                live.append(Event(entry[0], entry[1], payload))
        live.sort()
        return live

    def __repr__(self):
        return "EventScheduler(now=%g, pending=%d)" % (self.now, self.pending())
