"""Unit tests for span tracing: nesting, two clocks, exports."""

import json

import pytest

from repro.obs import NullTracer, Tracer
from repro.simnet.simulator import Simulator


class FakeClock:
    """A controllable wall clock."""

    def __init__(self):
        self.value = 0.0

    def __call__(self):
        return self.value

    def advance(self, delta):
        self.value += delta


class TestSpanNesting:
    def test_parent_child_tree(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child_a") as child_a:
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert [root.name for root in tracer.roots] == ["parent"]
        assert [child.name for child in parent.children] == ["child_a", "child_b"]
        assert [span.name for span in child_a.children] == ["grandchild"]
        assert [span.name for span in tracer.iter_spans()] == [
            "parent", "child_a", "grandchild", "child_b"]

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_error_marks_status_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span = tracer.roots[0]
        assert span.status == "error"
        assert span.wall_end is not None

    def test_attrs_and_find(self):
        tracer = Tracer()
        with tracer.span("stage", stage="scan") as span:
            span.set_attr("hosts", 93)
        assert tracer.find("stage")[0].attrs == {"stage": "scan", "hosts": 93}
        assert tracer.find("missing") == []


class TestTwoClocks:
    def test_sim_and_wall_durations(self):
        sim = Simulator()
        wall = FakeClock()
        tracer = Tracer(sim_clock=lambda: sim.now, wall_clock=wall)
        with tracer.span("run") as span:
            sim.schedule(30.0, lambda: None)
            sim.run()
            wall.advance(0.25)
        assert span.sim_duration == 30.0
        assert span.wall_duration == 0.25

    def test_sim_clock_late_binding(self):
        tracer = Tracer()
        with tracer.span("before") as span:
            pass
        assert span.sim_start is None and span.sim_duration is None
        sim = Simulator(start_time=5.0)
        tracer.set_sim_clock(lambda: sim.now)
        with tracer.span("after") as span:
            pass
        assert span.sim_start == 5.0
        assert span.sim_duration == 0.0


class TestExport:
    def _traced(self):
        sim = Simulator()
        wall = FakeClock()
        tracer = Tracer(sim_clock=lambda: sim.now, wall_clock=wall)
        with tracer.span("pipeline", seed=7):
            with tracer.span("passive"):
                sim.schedule(10.0, lambda: None)
                sim.run()
                wall.advance(1.0)
            with tracer.span("scans"):
                wall.advance(2.0)
        return tracer

    def test_tree_export_deterministic_without_wall(self):
        # Same sim schedule, different wall clocks -> identical trees
        # once wall fields are excluded.
        a = self._traced().to_json(include_wall=False)
        b = self._traced().to_json(include_wall=False)
        assert a == b
        tree = json.loads(a)
        assert tree[0]["name"] == "pipeline"
        assert "wall_start" not in tree[0]
        assert tree[0]["children"][0]["sim_duration"] == 10.0

    def test_tree_export_includes_wall_by_default(self):
        tree = self._traced().to_tree()
        assert tree[0]["wall_duration"] == 3.0

    def test_chrome_trace_structure(self):
        trace = self._traced().to_chrome_trace()
        events = trace["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
        passive = next(e for e in events if e["name"] == "passive")
        assert passive["dur"] == pytest.approx(1e6)  # 1 wall-second in µs
        assert passive["args"]["sim_start"] == 0.0
        assert passive["args"]["sim_end"] == 10.0

    def test_chrome_trace_file_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().write_chrome_trace(path)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list) and data["traceEvents"]

    def test_json_file(self, tmp_path):
        path = tmp_path / "spans.json"
        self._traced().write_json(path)
        assert json.loads(path.read_text())[0]["name"] == "pipeline"


class TestNullTracer:
    def test_span_is_noop(self):
        tracer = NullTracer()
        with tracer.span("anything", key="value") as span:
            span.set_attr("ignored", 1)
        assert tracer.roots == []
        assert tracer.to_tree() == []
        assert tracer.to_chrome_trace()["traceEvents"] == []
        assert list(tracer.iter_spans()) == []
        assert tracer.current is None
        assert tracer.enabled is False


class TestThreadSafety:
    def test_explicit_parent_same_thread_matches_implicit(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("explicit", _parent=outer):
                pass
            with tracer.span("implicit"):
                pass
        assert [child.name for child in outer.children] == ["explicit", "implicit"]


class TestSimClockBackfill:
    def test_clockless_open_backfills_at_close_when_clock_arrives(self):
        """A span opened before the sim clock exists (the pipeline's run
        and build spans) gets zero-width sim bounds once the clock is
        installed, instead of staying clockless."""
        tracer = Tracer()
        with tracer.span("build") as span:
            sim = Simulator(start_time=42.0)
            tracer.set_sim_clock(lambda: sim.now)
        assert span.sim_start == 42.0
        assert span.sim_end == 42.0
        assert span.sim_duration == 0.0

    def test_fully_clockless_span_stays_clockless(self):
        tracer = Tracer()
        with tracer.span("no-clock") as span:
            pass
        assert span.sim_start is None and span.sim_end is None
        assert span.sim_duration is None
