"""Tracer unit tests: span ordering, Chrome schema, no-op path."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    load_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import callback_name
from repro.sim import EventScheduler


def traced_scheduler():
    tracer = Tracer("test")
    sched = EventScheduler(tracer=tracer)
    return sched, tracer


class TestDeterministicOrdering:
    def test_callback_events_follow_execution_order(self):
        """Two identical runs produce identical event streams (names + ts)."""

        def run_once():
            sched, tracer = traced_scheduler()

            def tick():
                pass

            def tock():
                pass

            for delay in (3e-6, 1e-6, 2e-6, 1e-6):  # includes a tie at 1us
                sched.schedule(delay, tick)
                sched.schedule(delay, tock)
            sched.run()
            return [(e.name, e.ts) for e in tracer.events]

        first, second = run_once(), run_once()
        assert first == second
        # Within the tie at t=1us, insertion order (tick before tock) holds.
        names = [name.rsplit(".", 1)[-1]
                 for name, ts in first if ts == pytest.approx(1.0)]
        assert names == ["tick", "tock", "tick", "tock"]

    def test_timestamps_monotonic_on_scheduler_track(self):
        sched, tracer = traced_scheduler()
        for delay in (5e-6, 1e-6, 3e-6):
            sched.schedule(delay, lambda: None)
        sched.run()
        ts = [e.ts for e in tracer.events if e.cat == "callback"]
        assert ts == sorted(ts)
        assert len(ts) == 3


class TestSpans:
    def test_complete_span(self):
        tracer = Tracer()
        tracer.complete("send", 1e-6, 4e-6, track="rnic")
        (event,) = tracer.events
        assert event.ph == "X"
        assert event.ts == pytest.approx(1.0)
        assert event.dur == pytest.approx(3.0)

    def test_complete_rejects_negative_duration(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.complete("bad", 2e-6, 1e-6)

    def test_begin_end_nesting(self):
        tracer = Tracer()
        tracer.begin("outer", 0.0)
        tracer.begin("inner", 1e-6)
        tracer.end(2e-6)  # closes inner
        tracer.end(3e-6)  # closes outer
        phs = [(e.name, e.ph) for e in tracer.events]
        assert phs == [("outer", "B"), ("inner", "B"), ("inner", "E"), ("outer", "E")]

    def test_end_without_begin_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.end(0.0)

    def test_async_span_ids_match(self):
        tracer = Tracer()
        tracer.async_begin("flow", id=7, ts=0.0, track="flows")
        tracer.async_end("flow", id=7, ts=1e-3, track="flows")
        begin, end = tracer.events
        assert (begin.ph, end.ph) == ("b", "e")
        assert begin.id == end.id == "7"

    def test_tracks_get_stable_tids(self):
        tracer = Tracer()
        assert tracer.track("a") == 1
        assert tracer.track("b") == 2
        assert tracer.track("a") == 1


class TestSelfProfile:
    def test_record_callback_aggregates_wall_time(self):
        tracer = Tracer()
        tracer.record_callback(1e-6, "tick", 0.5)
        tracer.record_callback(2e-6, "tick", 0.25)
        tracer.record_callback(3e-6, "tock", 0.125)
        profile = tracer.self_profile()
        assert profile["tick"] == (2, 0.75)
        assert profile["tock"] == (1, 0.125)

    def test_queue_depth_emits_counter(self):
        tracer = Tracer()
        tracer.record_callback(1e-6, "tick", 0.0, queue_depth=5)
        counter = [e for e in tracer.events if e.ph == "C"]
        assert len(counter) == 1
        assert counter[0].args == {"events": 5}


class TestChromeExport:
    def test_schema_round_trip(self, tmp_path):
        sched, tracer = traced_scheduler()
        for delay in (1e-6, 2e-6):
            sched.schedule(delay, lambda: None)
        sched.run()
        tracer.async_begin("flow", id=1, ts=0.0, track="flows")
        tracer.async_end("flow", id=1, ts=5e-6, track="flows")

        path = tmp_path / "out.json"
        count = write_chrome_trace(tracer, path)
        assert count == len(tracer)

        # Plain json round-trip: the on-disk document is valid JSON with
        # the trace-event container shape.
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"

        # The validating loader agrees and checks per-track monotonicity.
        loaded = load_chrome_trace(path)
        events = loaded["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert "scheduler" in names
        assert "flows" in names
        assert any(e["name"] == "process_name" for e in meta)
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)

    def test_loader_rejects_non_trace_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            load_chrome_trace(path)

    def test_loader_rejects_regressing_timestamps(self, tmp_path):
        path = tmp_path / "regress.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "ts": 2.0, "pid": 1, "tid": 1},
        ]}))
        with pytest.raises(ValueError):
            load_chrome_trace(path)

    def test_clear_resets(self):
        tracer = Tracer()
        tracer.instant("x", 0.0)
        tracer.record_callback(0.0, "f", 0.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.self_profile() == {}


class TestDisabledTracing:
    def test_null_tracer_is_inert(self):
        null = NullTracer()
        null.complete("x", 0.0, 1.0)
        null.instant("x", 0.0)
        null.begin("x", 0.0)
        null.end(0.0)
        null.async_begin("x", 1, 0.0)
        null.async_end("x", 1, 0.0)
        null.counter("x", 0.0, {"v": 1})
        null.record_callback(0.0, "f", 0.0)
        assert len(null) == 0
        assert null.self_profile() == {}
        assert null.to_chrome() == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_scheduler_normalizes_disabled_tracer_to_none(self):
        sched = EventScheduler(tracer=NULL_TRACER)
        assert sched.tracer is None
        sched = EventScheduler()
        assert sched.set_tracer(NullTracer()) is None
        assert sched.tracer is None

    def test_untraced_scheduler_records_nothing(self):
        sched = EventScheduler()
        sched.schedule(1e-6, lambda: None)
        assert sched.run() == 1
        assert sched.tracer is None

    def test_attach_detach(self):
        sched = EventScheduler()
        tracer = Tracer()
        assert sched.set_tracer(tracer) is tracer
        sched.schedule(1e-6, lambda: None)
        sched.run()
        assert len(tracer) == 1
        sched.set_tracer(None)
        sched.schedule(1e-6, lambda: None)
        sched.run()
        assert len(tracer) == 1  # no new events after detach


class TestCallbackName:
    def test_function_qualname(self):
        def my_callback():
            pass

        assert callback_name(my_callback).endswith("my_callback")

    def test_lambda_labeled_by_module(self):
        name = callback_name(lambda: None)
        assert "<lambda>" in name

    def test_callable_object_uses_type_name(self):
        class Ticker:
            def __call__(self):
                pass

        assert callback_name(Ticker()) == "Ticker"

    def test_partial_unwraps_to_function_qualname(self):
        from functools import partial

        class Port:
            def hop(self, a, b):
                pass

        bound = partial(Port().hop, 1)
        assert callback_name(bound) == "%s.hop" % Port.__qualname__
        bound.label = "inner"  # an instance dict stops partial flattening
        nested = partial(bound, 2)
        assert isinstance(nested.func, partial)
        assert callback_name(nested) == "%s.hop" % Port.__qualname__
