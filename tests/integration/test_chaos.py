"""Chaos integration: the pipeline under a fault plan, and the
zero-fault equivalence invariant that protects every other test."""

import json

import pytest

from repro.classify.crossval import cross_validate
from repro.core import device_graph
from repro.core.analyses import INGEST, STUDY, AnalysisFailure, run_analyses
from repro.core.device_graph import build_device_graph
from repro.core.exposure import analyze_exposure
from repro.core.periodicity import analyze_periodicity
from repro.core.pipeline import StudyPipeline
from repro.core.protocol_census import census_from_capture
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


#: The passes each caller of the one analysis runner declares.
PASS_SETS = {"study": STUDY, "ingest": INGEST}
#: The ``repro ingest --json`` member that holds each pass.
INGEST_MEMBERS = {"census": "census_passive", "device_graph": "graph_summary",
                  "exposure": "exposure", "responses": "responses_by_category",
                  "periodicity": "periodicity", "crossval": "crossval",
                  "threat": "threat"}


@pytest.fixture(params=sorted(PASS_SETS))
def kind(request):
    return request.param


class TestAnalysisIsolation:
    """A raising pass is isolated the same way in a study and in
    ``repro ingest``: both run their passes through one runner, which
    looks each analysis up on its module per call."""

    @pytest.fixture(scope="class")
    def small_capture(self, tmp_path_factory):
        """A short real capture: its index + maps for driving the runner
        directly, and the pcap + device map ``repro ingest`` reads."""
        testbed = build_testbed(seed=3)
        testbed.run(30.0)
        from repro.core.responses import category_of_profile

        maps = {
            "macs": {str(node.mac): node.name for node in testbed.devices},
            "vendors": {node.name: node.vendor for node in testbed.devices},
            "categories": {node.name: category_of_profile(node.profile)
                           for node in testbed.devices},
        }
        files = tmp_path_factory.mktemp("isolation")
        testbed.lan.capture.write_pcap(files / "lab.pcap")
        (files / "devices.json").write_text(json.dumps({
            mac: {"name": name, "vendor": maps["vendors"][name],
                  "category": maps["categories"][name]}
            for mac, name in maps["macs"].items()}))
        return testbed.lan.capture.index(), dict(maps, findings=[]), files

    @staticmethod
    def _study(small_capture, tmp_path, capsys):
        report = StudyPipeline(seed=3, passive_duration=30.0, app_sample_size=4,
                               deploy_honeypots=False).run()
        assert not report.complete
        assert "RuntimeError" in report.failures[0].traceback
        assert report.fault_summary is None  # no plan installed
        return {name: getattr(report, name) for name in STUDY}, report.failures

    @staticmethod
    def _ingest(small_capture, tmp_path, capsys):
        from repro.cli import main

        files, out = small_capture[2], tmp_path / "ingest.json"
        assert main(["ingest", str(files / "lab.pcap"), "--device-map",
                     str(files / "devices.json"), "--json", str(out)]) == 0
        err = capsys.readouterr().err
        assert "1 analysis failure(s) isolated (partial report):" in err
        failures = [AnalysisFailure(*line.strip().split(": ", 1))
                    for line in err.splitlines() if line.startswith("  ")]
        payload = json.loads(out.read_text())
        return {name: payload[member] for name, member in INGEST_MEMBERS.items()}, failures

    def test_keep_going_isolates_the_failure(self, kind, monkeypatch, small_capture,
                                             tmp_path, capsys):
        monkeypatch.setattr(device_graph, "build_device_graph", _explode)
        run = self._study if kind == "study" else self._ingest
        slots, failures = run(small_capture, tmp_path, capsys)
        assert slots["device_graph"] is None
        assert [failure.analysis for failure in failures] == ["device_graph"]
        assert "synthetic analysis crash" in failures[0].error
        # The siblings all completed despite the crash.
        assert slots["exposure"] is not None
        assert slots["responses"] is not None
        assert slots["periodicity"] is not None
        assert slots["crossval"] is not None
        assert slots["threat"] is not None

    def test_serial_path_isolates_too(self, kind, monkeypatch, small_capture):
        index, inputs, _ = small_capture
        monkeypatch.setattr(device_graph, "build_device_graph", _explode)
        results, failures = run_analyses(PASS_SETS[kind], index, inputs, kind=kind)
        assert results["device_graph"] is None
        assert [failure.analysis for failure in failures] == ["device_graph"]
        assert results["crossval"] is not None
        assert results["threat"] is not None

    def test_failed_analysis_leaves_the_span_stack_balanced(
            self, kind, monkeypatch, small_capture):
        """A raising analysis closes its own span as an error; the
        analyses after it still nest under the stage span, in order."""
        index, inputs, _ = small_capture
        monkeypatch.setattr(device_graph, "build_device_graph", _explode)
        obs = enable_observability()
        with obs.tracer.span("pipeline.analysis") as stage:
            run_analyses(PASS_SETS[kind], index, inputs, kind=kind, obs=obs)
            assert obs.tracer.current is stage
        assert obs.tracer.current is None
        census = [("analysis.census", "ok")] if kind == "ingest" else []
        assert [(child.name, child.status) for child in stage.children] == census + [
            ("analysis.device_graph", "error"),
            ("analysis.exposure", "ok"),
            ("analysis.responses", "ok"),
            ("analysis.periodicity", "ok"),
            ("analysis.crossval", "ok"),
            ("analysis.threat", "ok"),
        ]

    def test_each_slot_holds_its_own_analysis(self, kind, small_capture):
        """Every result slot equals a direct call of that analysis on
        the same index and maps."""
        index, maps, _ = small_capture
        results, failures = run_analyses(PASS_SETS[kind], index, maps, kind=kind)
        assert failures == []
        if kind == "ingest":
            assert results["census"].passive == census_from_capture(
                index, maps["macs"]).passive
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

    def test_fail_fast_reraises(self, kind, monkeypatch, small_capture):
        index, inputs, _ = small_capture
        monkeypatch.setattr(device_graph, "build_device_graph", _explode)
        with pytest.raises(RuntimeError, match="synthetic analysis crash"):
            run_analyses(PASS_SETS[kind], index, inputs, kind=kind,
                         keep_going=False)


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
