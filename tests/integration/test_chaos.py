"""Chaos integration: the pipeline under a fault plan, and the
zero-fault equivalence invariant that protects every other test."""

import pytest

from repro.classify.crossval import cross_validate
from repro.core.device_graph import build_device_graph
from repro.core.exposure import analyze_exposure
from repro.core.periodicity import analyze_periodicity
from repro.core.pipeline import StudyPipeline
from repro.core.responses import correlate_responses
from repro.core.threat_report import build_threat_report
from repro.devices.behaviors import build_testbed
from repro.faults import EMPTY_PLAN, FaultInjector, FaultPlan
from repro.obs import enable_observability

BOUNDED_LOSS = FaultPlan.from_dict({
    "name": "bounded-loss",
    "links": [{"src": "*", "dst": "*", "loss": 0.03, "corrupt": 0.02,
               "truncate": 0.01, "duplicate": 0.01,
               "delay": {"probability": 0.02}}],
    "discovery": {"probability": 0.15, "protocols": ["mdns", "ssdp", "tuyalp"]},
    "flaps": [{"device": "tuya-camera-1", "start": 20.0, "duration": 15.0}],
    "unresponsive_ports": [
        {"device": "philips-hue-hub-1", "transport": "tcp", "port": 80},
    ],
})


class TestZeroFaultEquivalence:
    def test_empty_plan_is_byte_identical_on_the_real_lab(self):
        """Installing an EMPTY_PLAN injector must not change one byte of
        the full testbed's capture — the invariant that lets the fault
        layer ship inside Lan.transmit without risking the baseline."""
        captures = []
        for install in (False, True):
            testbed = build_testbed(seed=11)
            if install:
                injector = FaultInjector(EMPTY_PLAN, seed=11)
                injector.install(testbed.lan)
            testbed.run(90.0)
            captures.append(list(testbed.lan.capture.records))
        assert captures[0] == captures[1]

class TestChaosRun:
    @pytest.fixture(scope="class")
    def chaos_report(self):
        pipeline = StudyPipeline(seed=7, passive_duration=60.0,
                                 app_sample_size=4,
                                 fault_plan=BOUNDED_LOSS)
        return pipeline.run()

    def test_bounded_loss_run_completes_end_to_end(self, chaos_report):
        report = chaos_report
        assert report.capture_packets > 500
        assert report.census.passive
        assert report.device_graph is not None
        assert report.threat is not None
        assert report.scan_report.hosts
        assert report.complete  # degradation, not failure, under bounded loss

    def test_fault_summary_attached_and_nonzero(self, chaos_report):
        summary = chaos_report.fault_summary
        assert summary is not None
        assert summary["plan"] == "bounded-loss"
        assert summary["total"] > 0
        assert summary["counts"]["loss"] > 0

    def test_same_seed_and_plan_reproduce_the_schedule(self):
        counts = []
        for _ in range(2):
            testbed = build_testbed(seed=9)
            injector = FaultInjector(BOUNDED_LOSS, seed=9)
            injector.install(testbed.lan)
            testbed.run(60.0)
            counts.append((dict(injector.counts),
                           list(testbed.lan.capture.records)))
        assert counts[0][0] == counts[1][0]
        assert counts[0][1] == counts[1][1]


def _explode(*_args, **_kwargs):
    raise RuntimeError("synthetic analysis crash")


class TestAnalysisIsolation:
    @pytest.fixture(scope="class")
    def small_index(self):
        """A short real capture + maps for driving _run_analyses directly."""
        testbed = build_testbed(seed=3)
        testbed.run(30.0)
        from repro.core.responses import category_of_profile

        maps = {
            "macs": {str(node.mac): node.name for node in testbed.devices},
            "vendors": {node.name: node.vendor for node in testbed.devices},
            "categories": {node.name: category_of_profile(node.profile)
                           for node in testbed.devices},
        }
        return testbed.lan.capture.index(), maps

    def test_keep_going_isolates_the_failure(self, monkeypatch):
        import repro.core.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "build_device_graph", _explode)
        report = StudyPipeline(seed=3, passive_duration=30.0, app_sample_size=4,
                               deploy_honeypots=False).run()
        assert report.device_graph is None
        assert not report.complete
        assert [failure.analysis for failure in report.failures] == ["device_graph"]
        assert "synthetic analysis crash" in report.failures[0].error
        assert "RuntimeError" in report.failures[0].traceback
        assert report.fault_summary is None  # no plan installed
        # The siblings all completed despite the crash.
        assert report.exposure is not None
        assert report.responses is not None
        assert report.periodicity is not None
        assert report.crossval is not None
        assert report.threat is not None

    def test_serial_path_isolates_too(self, monkeypatch, small_index):
        import repro.core.pipeline as pipeline_module

        index, maps = small_index
        monkeypatch.setattr(pipeline_module, "build_device_graph", _explode)
        results, failures = StudyPipeline(seed=3)._run_analyses(index, maps, [])
        assert results["device_graph"] is None
        assert [failure.analysis for failure in failures] == ["device_graph"]
        assert results["crossval"] is not None
        assert results["threat"] is not None

    def test_failed_analysis_leaves_the_span_stack_balanced(
            self, monkeypatch, small_index):
        """A raising analysis closes its own span as an error; the
        analyses after it still nest under the stage span, in order."""
        import repro.core.pipeline as pipeline_module

        index, maps = small_index
        monkeypatch.setattr(pipeline_module, "build_device_graph", _explode)
        obs = enable_observability()
        with obs.tracer.span("pipeline.analysis") as stage:
            StudyPipeline(seed=3, obs=obs)._run_analyses(index, maps, [])
            assert obs.tracer.current is stage
        assert obs.tracer.current is None
        assert [(child.name, child.status) for child in stage.children] == [
            ("analysis.device_graph", "error"),
            ("analysis.exposure", "ok"),
            ("analysis.responses", "ok"),
            ("analysis.periodicity", "ok"),
            ("analysis.crossval", "ok"),
            ("analysis.threat", "ok"),
        ]

    def test_each_slot_holds_its_own_analysis(self, small_index):
        """Every result slot equals a direct call of that analysis on
        the same index and maps."""
        index, maps = small_index
        results, failures = StudyPipeline(seed=3)._run_analyses(index, maps, [])
        assert failures == []
        assert results["device_graph"].summary() == build_device_graph(
            index, maps["macs"], maps["vendors"]).summary()
        exposure = analyze_exposure(index, maps["macs"])
        assert results["exposure"].cells == exposure.cells
        assert results["exposure"].examples == exposure.examples
        assert results["responses"].by_category() == correlate_responses(
            index, maps["macs"], maps["categories"]).by_category()
        assert [
            (d.device, d.destination, d.protocol, d.is_periodic, d.period)
            for d in results["periodicity"].detections
        ] == [
            (d.device, d.destination, d.protocol, d.is_periodic, d.period)
            for d in analyze_periodicity(index, maps["macs"]).detections
        ]
        assert results["crossval"].confusion == cross_validate(index).confusion
        assert results["threat"] == build_threat_report(index, maps["macs"], [])

    def test_fail_fast_reraises(self, monkeypatch, small_index):
        import repro.core.pipeline as pipeline_module

        index, maps = small_index
        monkeypatch.setattr(pipeline_module, "build_device_graph", _explode)
        pipeline = StudyPipeline(seed=3, keep_going=False)
        with pytest.raises(RuntimeError, match="synthetic analysis crash"):
            pipeline._run_analyses(index, maps, [])


class TestChaosCli:
    def test_study_with_fault_plan_and_partial_render(self, tmp_path, capsys,
                                                      monkeypatch):
        """The CLI ride: --fault-plan loads, the run completes, and the
        report renders (including the fault summary line)."""
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(BOUNDED_LOSS.to_json())
        code = main(["study", "--seed", "7", "--duration", "25", "--apps", "4",
                     "--fault-plan", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "fault plan 'bounded-loss'" in captured.out
        assert "faults injected" in captured.out

    def test_invalid_plan_is_rejected_before_the_run(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "bad.json"
        plan_path.write_text('{"links": [{"loss": 2.0}]}')
        code = main(["study", "--fault-plan", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid plan" in captured.err

    def test_missing_plan_file_is_reported(self, capsys):
        from repro.cli import main

        code = main(["study", "--fault-plan", "/nonexistent/plan.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read" in captured.err
