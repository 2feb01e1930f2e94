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

    def test_decode_cache_counters(self, observed_run):
        obs, report = observed_run
        misses = obs.metrics.get("capture_decode_cache_misses_total")
        assert misses is not None
        # Every captured frame was decoded exactly once.
        assert misses.total() == report.capture_packets
        chunks = obs.metrics.get("capture_decode_chunks_total")
        assert chunks is not None and chunks.total() >= 1

    def test_analysis_pool_metrics(self, observed_run):
        obs, _ = observed_run
        tasks = obs.metrics.get("pipeline_analysis_tasks_total")
        assert tasks is not None and tasks.total() == 6
        workers = obs.metrics.get("pipeline_analysis_pool_workers")
        assert workers is not None and workers.value() >= 1


class TestSerialParallelEquivalence:
    def test_serial_fanout_produces_identical_artifacts(self, monkeypatch):
        """REPRO_ANALYSIS_PARALLEL=0 must not change any artifact."""
        parallel = StudyPipeline(seed=31, passive_duration=60.0,
                                 app_sample_size=4,
                                 deploy_honeypots=False).run()
        monkeypatch.setenv("REPRO_ANALYSIS_PARALLEL", "0")
        serial = StudyPipeline(seed=31, passive_duration=60.0,
                               app_sample_size=4,
                               deploy_honeypots=False).run()
        assert serial.capture_packets == parallel.capture_packets
        assert serial.device_graph.summary() == parallel.device_graph.summary()
        assert serial.exposure.cells == parallel.exposure.cells
        assert serial.exposure.examples == parallel.exposure.examples
        assert serial.responses.by_category() == parallel.responses.by_category()
        assert [
            (d.device, d.destination, d.protocol, d.is_periodic, d.period)
            for d in serial.periodicity.detections
        ] == [
            (d.device, d.destination, d.protocol, d.is_periodic, d.period)
            for d in parallel.periodicity.detections
        ]
        assert serial.crossval.confusion == parallel.crossval.confusion
        assert serial.threat.plaintext_http_devices == \
            parallel.threat.plaintext_http_devices
        assert serial.census.passive == parallel.census.passive
