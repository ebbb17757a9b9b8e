"""Sim-time event tracing with Chrome trace-event (Perfetto) export.

Timestamps are **simulation** time converted to microseconds — load the
exported JSON in https://ui.perfetto.dev (or ``chrome://tracing``) and the
timeline reads in sim time.  Wall-clock self-profiling of scheduler
callbacks rides along in event ``args`` and in an aggregated per-callback
table (:meth:`Tracer.self_profile`), since a sim that is slow in *wall*
time at some *sim* instant is exactly what the profiler must surface.

When tracing is off, components hold ``tracer = None`` (or the shared
:data:`NULL_TRACER`) and hot paths pay a single ``is not None`` test.
"""

import json
from functools import partial


#: Phase codes from the Chrome trace-event spec.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_BEGIN = "B"
_PH_END = "E"
_PH_ASYNC_BEGIN = "b"
_PH_ASYNC_END = "e"
_PH_COUNTER = "C"
_PH_METADATA = "M"


class TraceEvent:
    """One trace-event record; ``ts``/``dur`` are microseconds of sim time."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "tid", "args", "id")

    def __init__(self, name, cat, ph, ts, tid, dur=None, args=None, id=None):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args
        self.id = id

    def to_dict(self, pid=1):
        record = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": pid,
            "tid": self.tid,
        }
        if self.dur is not None:
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        if self.id is not None:
            record["id"] = self.id
        return record

    def __repr__(self):
        return "TraceEvent(%r, ph=%s, ts=%.1fus, tid=%d)" % (
            self.name, self.ph, self.ts, self.tid,
        )


class Tracer:
    """Collects sim-time trace events for one run."""

    enabled = True

    def __init__(self, process_name="repro-sim"):
        self.process_name = process_name
        self.events = []
        self._tracks = {}       # track name -> tid
        self._open_spans = {}   # tid -> [span name stack]
        self._wall_profile = {} # callback name -> [calls, wall_seconds]

    # -- tracks ----------------------------------------------------------

    def track(self, name):
        """The numeric tid for a named track, allocating on first use."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[name] = tid
        return tid

    @staticmethod
    def _us(ts_seconds):
        return ts_seconds * 1e6

    # -- emission --------------------------------------------------------

    def complete(self, name, start, end, track="sim", cat="sim", args=None):
        """A span with both edges known, in sim seconds."""
        if end < start:
            raise ValueError("span %r ends (%g) before it starts (%g)"
                             % (name, end, start))
        self.events.append(TraceEvent(
            name, cat, _PH_COMPLETE, self._us(start), self.track(track),
            dur=self._us(end - start), args=args,
        ))

    def instant(self, name, ts, track="sim", cat="sim", args=None):
        self.events.append(TraceEvent(
            name, cat, _PH_INSTANT, self._us(ts), self.track(track), args=args,
        ))

    def counter(self, name, ts, values, track="counters"):
        """A counter sample; ``values`` is ``{series: number}``."""
        self.events.append(TraceEvent(
            name, "counter", _PH_COUNTER, self._us(ts), self.track(track),
            args=dict(values),
        ))

    def begin(self, name, ts, track="sim", cat="sim", args=None):
        """Open a nested synchronous span; close with :meth:`end`."""
        tid = self.track(track)
        self._open_spans.setdefault(tid, []).append(name)
        self.events.append(TraceEvent(name, cat, _PH_BEGIN, self._us(ts), tid,
                                      args=args))

    def end(self, ts, track="sim", cat="sim"):
        tid = self.track(track)
        stack = self._open_spans.get(tid)
        if not stack:
            raise ValueError("end() with no open span on track %r" % track)
        name = stack.pop()
        self.events.append(TraceEvent(name, cat, _PH_END, self._us(ts), tid))

    def async_begin(self, name, id, ts, track="sim", cat="async", args=None):
        """Open a span that may outlive the emitting callback (a flow)."""
        self.events.append(TraceEvent(
            name, cat, _PH_ASYNC_BEGIN, self._us(ts), self.track(track),
            args=args, id=str(id),
        ))

    def async_end(self, name, id, ts, track="sim", cat="async", args=None):
        self.events.append(TraceEvent(
            name, cat, _PH_ASYNC_END, self._us(ts), self.track(track),
            args=args, id=str(id),
        ))

    # -- scheduler hook --------------------------------------------------

    def record_callback(self, ts, name, wall_seconds, queue_depth=None):
        """One executed scheduler callback: sim instant + wall self-time.

        Called by the scheduler's per-event hook (see
        :meth:`repro.sim.engine.EventScheduler.set_tracer`) for every
        event its run loop executes.  The event lands on the
        ``scheduler`` track; aggregated wall totals feed
        :meth:`self_profile`.
        """
        entry = self._wall_profile.get(name)
        if entry is None:
            self._wall_profile[name] = [1, wall_seconds]
        else:
            entry[0] += 1
            entry[1] += wall_seconds
        self.events.append(TraceEvent(
            name, "callback", _PH_COMPLETE, self._us(ts),
            self.track("scheduler"), dur=0.0,
            args={"wall_us": wall_seconds * 1e6},
        ))
        if queue_depth is not None:
            self.counter("scheduler.queue_depth", ts, {"events": queue_depth})

    def self_profile(self):
        """``{callback name: (calls, total wall seconds)}`` aggregate."""
        return {name: tuple(entry) for name, entry in self._wall_profile.items()}

    # -- export ----------------------------------------------------------

    def to_chrome(self):
        """The ``{"traceEvents": [...]}`` dict, sorted by timestamp.

        Sorting is stable, so events at equal sim time keep emission order
        — timestamps are monotone on every track by construction.
        """
        records = [
            TraceEvent("process_name", "__metadata", _PH_METADATA, 0, 0,
                       args={"name": self.process_name}).to_dict()
        ]
        for name, tid in sorted(self._tracks.items(), key=lambda kv: kv[1]):
            records.append(TraceEvent(
                "thread_name", "__metadata", _PH_METADATA, 0, tid,
                args={"name": name},
            ).to_dict())
        records.extend(
            event.to_dict() for event in sorted(self.events, key=lambda e: e.ts)
        )
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    def export(self, path):
        """Write the Chrome trace JSON; returns the event count."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)
        return len(self.events)

    def clear(self):
        self.events = []
        self._open_spans.clear()
        self._wall_profile.clear()

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "Tracer(%d events, %d tracks)" % (len(self.events), len(self._tracks))


class NullTracer:
    """Do-nothing stand-in with the full :class:`Tracer` surface.

    Components that want unconditional ``self.tracer.instant(...)`` calls
    can hold this instead of branching; the scheduler's hot loop still
    normalizes it to ``None`` so disabled runs pay nothing per event.
    """

    enabled = False
    events = ()

    def track(self, name):
        return 0

    def complete(self, *args, **kwargs):
        pass

    def instant(self, *args, **kwargs):
        pass

    def counter(self, *args, **kwargs):
        pass

    def begin(self, *args, **kwargs):
        pass

    def end(self, *args, **kwargs):
        pass

    def async_begin(self, *args, **kwargs):
        pass

    def async_end(self, *args, **kwargs):
        pass

    def record_callback(self, *args, **kwargs):
        pass

    def self_profile(self):
        return {}

    def to_chrome(self):
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def clear(self):
        pass

    def __len__(self):
        return 0

    def __repr__(self):
        return "NullTracer()"


#: Shared no-op tracer for "tracing off" defaults.
NULL_TRACER = NullTracer()


def callback_name(callback):
    """Human-readable label for a scheduler callback.

    ``functools.partial`` wrappers (nested ones included) are labelled by
    the function they bind, e.g. ``PacketNetSim._hop``.
    """
    while isinstance(callback, partial):
        callback = callback.func
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    if name == "<lambda>" or name.endswith(".<lambda>"):
        # Lambdas carry no useful qualname; label by defining module.
        module = getattr(callback, "__module__", "") or ""
        return "%s.<lambda>" % module.rsplit(".", 1)[-1] if module else "<lambda>"
    return name
