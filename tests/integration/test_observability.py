"""Pipeline observability smoke tests: spans, counters, and overhead.

The contract this file pins down: with a live context, every
``StudyPipeline.STAGES`` entry emits exactly one span carrying both
clocks, the per-protocol capture counters sum to
``StudyReport.capture_packets``, and a run without observability
behaves exactly as before (no telemetry, no metrics).
"""

import json

import pytest

from repro.core.pipeline import StudyPipeline
from repro.obs import enable_observability
from repro.obs.profile import SpanResourceProbe


@pytest.fixture(scope="module")
def observed_run():
    obs = enable_observability()
    pipeline = StudyPipeline(seed=11, passive_duration=120.0, app_sample_size=8,
                             obs=obs)
    report = pipeline.run()
    return obs, report


class TestStageSpans:
    def test_exactly_one_span_per_stage(self, observed_run):
        obs, _ = observed_run
        for stage in StudyPipeline.STAGES:
            spans = obs.tracer.find(f"pipeline.{stage}")
            assert len(spans) == 1, f"stage {stage}: {len(spans)} spans"

    def test_spans_carry_both_clocks(self, observed_run):
        obs, _ = observed_run
        for stage in StudyPipeline.STAGES:
            span = obs.tracer.find(f"pipeline.{stage}")[0]
            assert span.wall_duration is not None and span.wall_duration >= 0
            assert span.sim_duration is not None
        passive = obs.tracer.find("pipeline.passive_capture")[0]
        assert passive.sim_duration == 120.0

    def test_stage_spans_nest_under_run(self, observed_run):
        obs, _ = observed_run
        run_span = obs.tracer.find("pipeline.run")[0]
        child_names = {child.name for child in run_span.children}
        assert child_names == {f"pipeline.{s}" for s in StudyPipeline.STAGES}


class TestCounters:
    def test_capture_counters_match_report(self, observed_run):
        obs, report = observed_run
        counter = obs.metrics.get("capture_packets_total")
        assert counter is not None
        assert counter.total() == report.capture_packets
        assert report.capture_packets > 0

    def test_per_protocol_counters_nonzero(self, observed_run):
        obs, _ = observed_run
        counter = obs.metrics.get("capture_packets_total")
        protocols = {labels[0][1] for labels, _ in counter._sample_items()}
        assert {"arp", "mdns", "ssdp"} <= protocols

    def test_simulator_and_lan_metrics(self, observed_run):
        obs, _ = observed_run
        assert obs.metrics.get("sim_events_total").total() > 0
        assert obs.metrics.get("sim_callback_seconds").count() > 0
        assert obs.metrics.get("lan_frames_delivered_total").total() > 0

    def test_honeypot_contacts_match(self, observed_run):
        obs, report = observed_run
        counter = obs.metrics.get("honeypot_contacts_total")
        assert counter.total() == report.honeypot_contacts

    def test_scan_and_app_metrics(self, observed_run):
        obs, report = observed_run
        probes = obs.metrics.get("scan_probes_total")
        assert probes.value(kind="tcp") > 0
        assert probes.value(kind="udp") > 0
        # the 10 named case-study apps always run, so the counter follows
        # the audit's own total rather than app_sample_size
        assert obs.metrics.get("apps_runs_total").total() == \
            report.exfiltration.total_apps > 0
        assert obs.metrics.get("pipeline_stage_seconds").count(stage="build") == 1


class TestTelemetryField:
    def test_report_carries_telemetry(self, observed_run):
        _, report = observed_run
        assert report.telemetry is not None
        assert set(report.telemetry) == {"stages", "metrics", "spans"}
        assert set(report.telemetry["stages"]) == set(StudyPipeline.STAGES)
        json.dumps(report.telemetry)  # must be JSON-safe

    def test_disabled_run_has_no_telemetry(self):
        report = StudyPipeline(seed=11, passive_duration=60.0, app_sample_size=4,
                               deploy_honeypots=False).run()
        assert report.telemetry is None

    def test_observed_run_stays_deterministic(self):
        """Instrumentation must not perturb the simulation."""
        plain = StudyPipeline(seed=29, passive_duration=60.0, app_sample_size=4,
                              deploy_honeypots=False).run()
        observed = StudyPipeline(seed=29, passive_duration=60.0, app_sample_size=4,
                                 deploy_honeypots=False,
                                 obs=enable_observability()).run()
        assert observed.capture_packets == plain.capture_packets
        assert observed.device_graph.summary() == plain.device_graph.summary()


class TestDecodeOnceTelemetry:
    def test_decode_index_span_nests_under_passive(self, observed_run):
        obs, _ = observed_run
        spans = obs.tracer.find("capture.decode_index")
        assert len(spans) == 1
        assert spans[0].parent.name == "pipeline.passive_capture"

    def test_classify_span_nests_under_passive(self, observed_run):
        """The census's label pass is billed to the capture, not the scans."""
        obs, _ = observed_run
        spans = obs.tracer.find("capture.classify")
        assert len(spans) == 1
        assert spans[0].parent.name == "pipeline.passive_capture"

    def test_analysis_spans_nest_under_analysis_stage(self, observed_run):
        obs, _ = observed_run
        stage = obs.tracer.find("pipeline.analysis")[0]
        names = {child.name for child in stage.children}
        assert {"analysis.device_graph", "analysis.exposure",
                "analysis.responses", "analysis.periodicity",
                "analysis.crossval", "analysis.threat"} <= names
        for child in stage.children:
            if child.name.startswith("analysis."):
                assert child.wall_duration is not None

    def test_analyses_run_one_after_another(self, observed_run):
        """The six analyses run in their declared order, each starting
        after the previous one finished."""
        obs, _ = observed_run
        stage = obs.tracer.find("pipeline.analysis")[0]
        analyses = [child for child in stage.children
                    if child.name.startswith("analysis.")]
        assert [child.name for child in analyses] == [
            "analysis.device_graph", "analysis.exposure",
            "analysis.responses", "analysis.periodicity",
            "analysis.crossval", "analysis.threat"]
        for before, after in zip(analyses, analyses[1:]):
            assert before.wall_end <= after.wall_start

    def test_decode_cache_counters(self, observed_run):
        obs, report = observed_run
        misses = obs.metrics.get("capture_decode_cache_misses_total")
        assert misses is not None
        # Every captured frame was decoded exactly once.
        assert misses.total() == report.capture_packets
        chunks = obs.metrics.get("capture_decode_chunks_total")
        assert chunks is not None and chunks.total() >= 1


class TestAnalysisAttribution:
    def test_analysis_stage_cpu_covers_its_analyses(self):
        """The analyses run on the stage's own thread, so the stage
        span's CPU time includes every ``analysis.*`` child's."""
        obs = enable_observability()
        obs.tracer.resource_probe = SpanResourceProbe()
        StudyPipeline(seed=31, passive_duration=60.0, app_sample_size=4,
                      deploy_honeypots=False, obs=obs).run()
        stage = obs.tracer.find("pipeline.analysis")[0]
        analyses = [child for child in stage.children
                    if child.name.startswith("analysis.")]
        assert len(analyses) == 6
        children_cpu = sum(child.attrs["cpu_seconds"] for child in analyses)
        assert children_cpu > 0
        assert stage.attrs["cpu_seconds"] + 0.001 >= children_cpu
