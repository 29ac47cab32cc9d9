"""Unit tests for the span tracer (repro.obs.trace)."""

import os
import threading

from repro import obs
from repro.obs.trace import NULL_SPAN, Tracer


class TestSpanLifecycle:
    def test_start_end_records_duration(self):
        tracer = Tracer()
        span = tracer.start("phase", attrs={"k": 1})
        tracer.end(span)
        assert span.dur_ns >= 0
        assert span.end_ns == span.start_ns + span.dur_ns
        assert span.attrs == {"k": 1}
        assert tracer.spans() == [span]

    def test_span_ids_embed_pid_and_are_unique(self):
        tracer = Tracer()
        ids = set()
        for _ in range(10):
            span = tracer.start("s")
            tracer.end(span)
            assert span.span_id.startswith(f"{os.getpid()}-")
            ids.add(span.span_id)
        assert len(ids) == 10

    def test_nesting_sets_parent_implicitly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current_id() == outer.span_id
        assert outer.parent_id is None
        assert tracer.current_id() is None

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("adopted", parent="other-pid-7") as span:
                assert span.parent_id == "other-pid-7"

    def test_out_of_order_end_is_tolerated(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.end(outer)  # closes outer, discards inner from the stack
        assert tracer.current_id() is None
        assert [s.name for s in tracer.spans()] == ["outer"]
        tracer.end(inner)  # still records the straggler

    def test_thread_stacks_are_independent(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("worker") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker thread has its own (empty) stack, so its span is
        # not parented under main's open span.
        assert seen["parent"] is None

    def test_drain_empties_the_buffer(self):
        tracer = Tracer()
        tracer.end(tracer.start("a"))
        tracer.end(tracer.start("b"))
        drained = tracer.drain()
        assert [s.name for s in drained] == ["a", "b"]
        assert len(tracer) == 0

    def test_to_dict_round_trips_fields(self):
        tracer = Tracer()
        span = tracer.start("x", attrs={"n": 3})
        tracer.end(span)
        d = span.to_dict()
        assert d["name"] == "x"
        assert d["span_id"] == span.span_id
        assert d["attrs"] == {"n": 3}
        assert d["pid"] == os.getpid()


class TestModuleSwitch:
    def test_disabled_span_is_null(self):
        assert not obs.enabled()
        cm = obs.span("anything", key="value")
        assert cm is NULL_SPAN
        with cm as span:
            assert span is None
        assert len(obs.tracer()) == 0

    def test_enabled_span_collects(self):
        obs.enable()
        with obs.span("phase", alpha=1) as span:
            assert span is not None
            span.attrs["beta"] = 2
        spans = obs.tracer().spans()
        assert len(spans) == 1
        assert spans[0].attrs == {"alpha": 1, "beta": 2}

    def test_reset_clears_both_stores(self):
        obs.enable()
        with obs.span("phase"):
            pass
        obs.metrics().counter("c").inc()
        obs.reset()
        assert len(obs.tracer()) == 0
        assert not obs.metrics()
        assert obs.enabled()  # reset keeps the switch position


class TestEnvConfiguration:
    def test_falsey_values_leave_disabled(self):
        from repro.obs import _configure_from_env

        for value in (None, "", "0", "false", "off", "no"):
            _configure_from_env(value)
            assert not obs.enabled()

    def test_truthy_value_enables(self):
        from repro.obs import _configure_from_env

        _configure_from_env("1")
        assert obs.enabled()
