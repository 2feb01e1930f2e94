"""Tests for continuous profiling (``repro.obs.profile``)."""

import json
import signal
import sys
import threading
import time

import pytest

from repro.obs.profile import (
    DEFAULT_PROFILE_HZ,
    FLAMEGRAPH_NAME,
    MAX_STACK_DEPTH,
    NULL_PROFILER,
    PROFILE_SCHEMA_VERSION,
    RESOURCE_ATTRS,
    RESOURCES_NAME,
    SPEEDSCOPE_NAME,
    UNATTRIBUTED,
    NullProfiler,
    Profile,
    ProfileError,
    SamplingProfiler,
    SpanResourceProbe,
    arm_timer,
    collect_stack,
    span_resource_table,
    write_profile_outputs,
)
from repro.obs.tracing import Tracer


def _sample_profile() -> Profile:
    profile = Profile(hz=97.0)
    profile.record("decode", ["a.py:main", "a.py:decode"])
    profile.record("decode", ["a.py:main", "a.py:decode"])
    profile.record("decode", ["a.py:main", "a.py:parse"])
    profile.record("analyze", ["a.py:main", "b.py:analyze"])
    return profile


class TestProfile:
    def test_record_accumulates_per_span_stacks(self):
        profile = _sample_profile()
        assert profile.total_samples == 4
        assert profile.span_sample_counts() == {"analyze": 1, "decode": 3}
        assert profile.samples["decode"]["a.py:main;a.py:decode"] == 2

    def test_record_buckets_unattributed_and_idle(self):
        profile = Profile()
        profile.record(None, ["x.py:f"])
        profile.record("spanned", [])
        assert profile.samples[UNATTRIBUTED] == {"x.py:f": 1}
        assert profile.samples["spanned"] == {"(idle)": 1}

    def test_merge_is_additive(self):
        left = _sample_profile()
        right = Profile(hz=97.0)
        right.record("decode", ["a.py:main", "a.py:decode"])
        right.record("scan", ["c.py:sweep"])
        left.merge(right)
        assert left.samples["decode"]["a.py:main;a.py:decode"] == 3
        assert left.samples["scan"] == {"c.py:sweep": 1}

    def test_merge_is_order_insensitive(self):
        parts = [_sample_profile(), Profile(hz=97.0), _sample_profile()]
        parts[1].record("scan", ["c.py:sweep"])
        forward = Profile()
        for part in parts:
            forward.merge(Profile.from_dict(part.to_dict()))
        backward = Profile()
        for part in reversed(parts):
            backward.merge(Profile.from_dict(part.to_dict()))
        assert forward.to_dict() == backward.to_dict()

    def test_merge_adopts_hz_from_first_nonzero(self):
        empty = Profile()
        empty.merge(_sample_profile())
        assert empty.hz == 97.0

    def test_roundtrip_through_dict(self):
        profile = _sample_profile()
        clone = Profile.from_dict(profile.to_dict())
        assert clone.to_dict() == profile.to_dict()
        assert clone.hz == 97.0

    def test_from_dict_rejects_wrong_schema(self):
        raw = _sample_profile().to_dict()
        raw["schema"] = PROFILE_SCHEMA_VERSION + 1
        with pytest.raises(ProfileError):
            Profile.from_dict(raw)
        with pytest.raises(ProfileError):
            Profile.from_dict("not a mapping")
        with pytest.raises(ProfileError):
            Profile.from_dict({"schema": PROFILE_SCHEMA_VERSION,
                               "samples": "nope"})

    def test_collapsed_output_is_flamegraph_input(self):
        text = _sample_profile().to_collapsed()
        lines = text.splitlines()
        assert "decode;a.py:main;a.py:decode 2" in lines
        assert "analyze;a.py:main;b.py:analyze 1" in lines
        assert text.endswith("\n")
        assert Profile().to_collapsed() == ""

    def test_collapsed_output_is_deterministic(self):
        one = _sample_profile()
        two = Profile()
        # Insert in a different order; the export sorts.
        two.record("analyze", ["a.py:main", "b.py:analyze"])
        two.record("decode", ["a.py:main", "a.py:parse"])
        two.record("decode", ["a.py:main", "a.py:decode"])
        two.record("decode", ["a.py:main", "a.py:decode"])
        assert one.to_collapsed() == two.to_collapsed()

    def test_speedscope_export_shape(self):
        doc = _sample_profile().to_speedscope(name="testrun")
        assert doc["name"] == "testrun"
        assert doc["$schema"].startswith("https://www.speedscope.app")
        names = [p["name"] for p in doc["profiles"]]
        assert names == ["analyze", "decode"]
        frames = [f["name"] for f in doc["shared"]["frames"]]
        decode_profile = doc["profiles"][1]
        assert sum(decode_profile["weights"]) == 3
        assert decode_profile["endValue"] == 3
        for sample in decode_profile["samples"]:
            for frame_index in sample:
                assert 0 <= frame_index < len(frames)
        # Shared frame table: every label appears exactly once.
        assert len(frames) == len(set(frames))
        json.dumps(doc)  # must be JSON-able as-is

    def test_top_frames_self_vs_inclusive(self):
        rows = _sample_profile().top_frames(top=10)
        by_frame = {frame: (self_count, incl) for frame, self_count, incl in rows}
        assert by_frame["a.py:decode"] == (2, 2)
        assert by_frame["a.py:main"] == (0, 4)      # never the leaf
        assert rows[0][0] == "a.py:decode"          # highest self first

    def test_top_frames_span_filter_and_limit(self):
        rows = _sample_profile().top_frames(span="analyze", top=1)
        assert rows == [("b.py:analyze", 1, 1)]

    def test_top_frames_deduplicates_recursion(self):
        profile = Profile()
        profile.record("r", ["f.py:rec", "f.py:rec", "f.py:rec"])
        rows = profile.top_frames()
        assert rows == [("f.py:rec", 1, 1)]


class TestCollectStack:
    def test_root_first_order(self):
        def inner():
            return collect_stack(sys._getframe())

        stack = inner()
        assert stack[-1].endswith(":inner")
        assert any(label.endswith(":test_root_first_order") for label in stack)
        assert stack.index(
            next(l for l in stack if l.endswith(":test_root_first_order"))
        ) < len(stack) - 1

    def test_depth_overflow_marks_truncation(self):
        def recurse(depth):
            if depth == 0:
                return collect_stack(sys._getframe(), max_depth=5)
            return recurse(depth - 1)

        stack = recurse(20)
        assert stack[0] == "(truncated)"
        assert len(stack) == 6  # 5 frames + marker

    def test_default_depth_is_bounded(self):
        assert MAX_STACK_DEPTH >= 32


def _burn_cpu(seconds: float) -> float:
    """Spin until ``seconds`` of process CPU time pass; returns the CPU
    seconds actually spent."""
    started = time.process_time()
    while time.process_time() - started < seconds:
        sum(i * i for i in range(1000))
    return time.process_time() - started


class TestSamplingProfiler:
    @pytest.mark.parametrize("hz", [0, -5, float("nan"), float("inf"), 1e-300])
    def test_rejects_nonpositive_hz(self, hz):
        with pytest.raises(ValueError, match="finite and positive"):
            SamplingProfiler(hz=hz)

    def test_default_hz_is_prime_ish(self):
        assert SamplingProfiler().hz == DEFAULT_PROFILE_HZ

    def test_handler_bills_the_interrupted_frame_to_the_innermost_span(self):
        tracer = Tracer()
        # One tick per CPU second: only the raised signal samples here.
        profiler = SamplingProfiler(hz=1.0, tracer=tracer)
        profiler.start()
        try:
            with tracer.span("outer"), tracer.span("inner"):
                signal.raise_signal(signal.SIGPROF)
        finally:
            profiler.stop()
        assert profiler.profile.span_sample_counts() == {"inner": 1}
        (stack,) = profiler.profile.samples["inner"]
        assert stack.endswith(
            ":test_handler_bills_the_interrupted_frame_to_the_innermost_span")

    def test_cpu_bound_loop_collects_hz_samples_per_cpu_second(self):
        profiler = SamplingProfiler(hz=97.0)
        profiler.start()
        try:
            cpu_seconds = _burn_cpu(0.5)
        finally:
            profiler.stop()
        expected = 97.0 * cpu_seconds
        assert abs(profiler.profile.total_samples - expected) <= 0.1 * expected

    def test_owner_disarm_restores_the_previous_handler(self):
        def previous(signum, frame):
            return None

        original = signal.signal(signal.SIGPROF, previous)
        try:
            profiler = SamplingProfiler(hz=97.0)
            profiler.start()
            assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is not previous
            profiler.stop()
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is previous
        finally:
            signal.signal(signal.SIGPROF, original)

    def test_start_inside_an_armed_run_leaves_the_timer_to_its_owner(self):
        disarm = arm_timer(199.0)
        try:
            profiler = SamplingProfiler(hz=199.0)
            profiler.start()
            assert arm_timer(199.0) is None
            _burn_cpu(0.05)
            profiler.stop()
            assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
            recorded = profiler.profile.total_samples
            _burn_cpu(0.05)  # the timer still fires; nothing records
            assert profiler.profile.total_samples == recorded > 0
        finally:
            disarm()
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_start_off_the_main_thread_raises(self):
        errors = []

        def start():
            try:
                SamplingProfiler(hz=97.0).start()
            except ValueError as error:
                errors.append(error)

        thread = threading.Thread(target=start)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_start_stop_lifecycle(self):
        profiler = SamplingProfiler(hz=200.0)
        profiler.start()
        profiler.start()  # idempotent
        assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
        try:
            _burn_cpu(0.1)
        finally:
            profiler.stop()
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        profiler.stop()  # idempotent
        assert profiler.profile.total_samples > 0

    def test_snapshot_none_when_empty_else_payload(self):
        profiler = SamplingProfiler(hz=97.0)
        assert profiler.snapshot() is None
        profiler.profile.record("s", ["x.py:f"])
        snap = profiler.snapshot()
        assert snap["schema"] == PROFILE_SCHEMA_VERSION
        assert snap["samples"]["s"]["x.py:f"] == 1

    def test_merge_folds_serialized_profiles(self):
        profiler = SamplingProfiler(hz=97.0)
        profiler.merge(_sample_profile().to_dict())
        profiler.merge(_sample_profile().to_dict())
        assert profiler.profile.samples["decode"]["a.py:main;a.py:decode"] == 4

    def test_bind_attaches_tracer_late(self):
        profiler = SamplingProfiler(hz=97.0)
        tracer = Tracer()
        profiler.bind(tracer)
        assert profiler.tracer is tracer


class TestNullProfiler:
    def test_is_inert(self):
        null = NullProfiler()
        assert not null.enabled
        null.bind(object())
        null.start()
        null.merge({"schema": 1})
        assert null.snapshot() is None
        null.stop()
        assert NULL_PROFILER.enabled is False


class TestSpanResourceProbe:
    def test_records_cpu_and_gc_attrs_on_spans(self):
        tracer = Tracer()
        tracer.resource_probe = SpanResourceProbe(malloc=False)
        with tracer.span("work") as span:
            sum(i * i for i in range(50_000))
        assert span.attrs["cpu_seconds"] >= 0.0
        assert span.attrs["gc_collections"] >= 0
        assert "mem_alloc_bytes" not in span.attrs  # malloc off

    def test_malloc_opt_in_records_alloc_and_peak(self):
        tracer = Tracer()
        probe = SpanResourceProbe(malloc=True)
        tracer.resource_probe = probe
        try:
            with tracer.span("alloc") as span:
                blob = [bytes(1000) for _ in range(1000)]
                del blob
            assert "mem_alloc_bytes" in span.attrs
            assert span.attrs["mem_peak_bytes"] > 0
        finally:
            probe.close()

    def test_close_stops_tracemalloc_it_started(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        probe = SpanResourceProbe(malloc=True)
        assert tracemalloc.is_tracing()
        probe.close()
        assert not tracemalloc.is_tracing()
        probe.close()  # idempotent

    def test_env_var_enables_malloc(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_MALLOC", "1")
        probe = SpanResourceProbe()
        try:
            assert probe.malloc
        finally:
            probe.close()
        monkeypatch.setenv("REPRO_PROFILE_MALLOC", "off")
        assert not SpanResourceProbe().malloc

    def test_no_probe_means_no_resource_attrs(self):
        tracer = Tracer()  # resource_probe stays None
        with tracer.span("clean") as span:
            pass
        for attr in RESOURCE_ATTRS:
            assert attr not in span.attrs


class TestSpanResourceTable:
    def test_aggregates_sums_and_peak_max(self):
        tracer = Tracer()
        tracer.resource_probe = SpanResourceProbe(malloc=False)
        for _ in range(3):
            with tracer.span("stage.work"):
                pass
        with tracer.span("stage.other"):
            pass
        table = span_resource_table(tracer)
        assert table["stage.work"]["count"] == 3
        assert table["stage.other"]["count"] == 1
        assert table["stage.work"]["wall_seconds"] >= 0.0
        assert list(table) == sorted(table)

    def test_peak_is_max_not_sum(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            span.set_attr("mem_peak_bytes", 100)
        with tracer.span("a") as span:
            span.set_attr("mem_peak_bytes", 40)
        assert span_resource_table(tracer)["a"]["mem_peak_bytes"] == 100


class TestWriteProfileOutputs:
    def test_writes_flame_speedscope_and_resources(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        out = tmp_path / "profile"
        written = write_profile_outputs(_sample_profile(), out, tracer=tracer)
        names = [path.name for path in written]
        assert names == [FLAMEGRAPH_NAME, SPEEDSCOPE_NAME, RESOURCES_NAME]
        flame = (out / FLAMEGRAPH_NAME).read_text()
        assert "decode;a.py:main;a.py:decode 2" in flame
        doc = json.loads((out / SPEEDSCOPE_NAME).read_text())
        assert doc["exporter"] == "repro.obs.profile"
        resources = json.loads((out / RESOURCES_NAME).read_text())
        assert "s" in resources

    def test_no_tracer_skips_resources_file(self, tmp_path):
        written = write_profile_outputs(_sample_profile(), tmp_path)
        assert [path.name for path in written] == [FLAMEGRAPH_NAME,
                                                   SPEEDSCOPE_NAME]
        assert not (tmp_path / RESOURCES_NAME).exists()
