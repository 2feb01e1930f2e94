"""End-to-end integration tests: the full study pipeline and artifacts."""

import pytest

from repro.core.exfiltration import audit_app_runs, sdk_case_studies
from repro.core.fingerprint import fingerprint_households
from repro.core.pipeline import StudyPipeline
from repro.report.tables import (
    render_comparison,
    render_figure2,
    render_figure3,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)


@pytest.fixture(scope="module")
def study():
    pipeline = StudyPipeline(seed=7, passive_duration=600.0, app_sample_size=40)
    return pipeline.run()


class TestPipeline:
    def test_all_artifacts_produced(self, study):
        assert study.capture_packets > 1000
        assert study.census.passive
        assert len(study.device_graph.nodes) == 93
        assert study.exposure.cells
        assert study.responses.per_device
        assert study.periodicity.detections
        assert study.crossval.total_units > 0
        assert study.threat.findings
        assert study.scan_report.hosts
        assert study.exfiltration.total_apps == 40
        assert study.honeypot_contacts > 0
        # No fault plan: nothing failed, no chaos artifacts attached.
        assert study.complete and study.failures == []
        assert study.fault_summary is None

    def test_scans_do_not_pollute_passive_capture(self, study):
        # After scans/apps, capture records keep accumulating only from
        # lab traffic; the count matches what analyses consumed.
        assert study.capture_packets >= 1000

    def test_determinism(self):
        a = StudyPipeline(seed=13, passive_duration=120.0, app_sample_size=12,
                          deploy_honeypots=False).run()
        b = StudyPipeline(seed=13, passive_duration=120.0, app_sample_size=12,
                          deploy_honeypots=False).run()
        assert a.capture_packets == b.capture_packets
        assert a.device_graph.summary() == b.device_graph.summary()
        assert a.crossval.total_units == b.crossval.total_units

    def test_exfiltration_summary(self, study):
        summary = study.exfiltration.summary()
        assert summary["total_apps"] == 40
        # The named case-study apps always run, so these are non-zero.
        assert summary["device_mac_relaying_iot_apps"] >= 2
        assert summary["side_channel_apps"] >= 1
        assert summary["downlink_mac_apps"] >= 1

    def test_sdk_case_studies_present(self, study):
        studies = sdk_case_studies(study.exfiltration)
        assert "innosdk" in studies
        assert studies["innosdk"]["endpoints"] == ["gw.innotechworld.com"]
        assert "AppDynamics" in studies
        assert studies["AppDynamics"]["base64_encoded"]


class TestFingerprintIntegration:
    def test_small_fingerprint_report(self):
        report = fingerprint_households(seed=23)
        assert report.dataset_households == 3860
        assert report.rows[0].identifiers == "N/A"
        uuid_row = report.row_for("uuid")
        assert uuid_row is not None
        assert uuid_row.unique_pct > 85.0
        assert uuid_row.entropy > 8.0


class TestRendering:
    def test_all_tables_render(self, study):
        from repro.devices.catalog import build_catalog

        outputs = [
            render_figure2(study.census),
            render_table1(study.exposure),
            render_table3(build_catalog()),
            render_table4(study.responses),
            render_figure3(study.crossval),
            render_comparison([("devices communicating", 43,
                                study.device_graph.summary()["devices_communicating"])]),
        ]
        for text in outputs:
            assert isinstance(text, str) and len(text) > 40

    def test_table2_renders(self):
        report = fingerprint_households(seed=23)
        text = render_table2(report)
        assert "uuid" in text and "ent" in text


class TestPcapInterop:
    def test_capture_survives_pcap_roundtrip(self, tmp_path):
        """Write the capture to disk as pcap, read it back, re-run an
        analysis, and get identical results — the artifact format works."""
        from repro.core.protocol_census import census_from_capture
        from repro.devices.behaviors import build_testbed
        from repro.net.columnar import PacketTable
        from repro.net.decode import decode_frame
        from repro.net.index import CaptureIndex
        from repro.net.pcap import read_pcap

        testbed = build_testbed(seed=21)
        testbed.run(180.0)
        macs = {str(node.mac): node.name for node in testbed.devices}
        direct = testbed.lan.capture.index()

        path = tmp_path / "lab.pcap"
        testbed.lan.capture.write_pcap(path)
        reloaded = CaptureIndex(PacketTable.from_packets(
            decode_frame(p.data, p.timestamp) for p in read_pcap(path)))
        assert len(reloaded) == len(direct)

        census_direct = census_from_capture(direct, macs)
        census_reloaded = census_from_capture(reloaded, macs)
        assert {k: v for k, v in census_direct.passive.items()} == {
            k: v for k, v in census_reloaded.passive.items()
        }
