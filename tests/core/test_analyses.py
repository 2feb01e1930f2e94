"""Tests for the core analyses against the full simulated testbed."""

import pytest

from repro.core.device_graph import build_device_graph
from repro.core.exposure import analyze_exposure, payload_examples
from repro.core.periodicity import analyze_periodicity, detect_period
from repro.core.protocol_census import add_scan_results, census_from_capture
from repro.core.responses import category_of_profile, correlate_responses
from repro.core.threat_report import build_threat_report
from tests.conftest import device_maps


@pytest.fixture(scope="module")
def analysis_inputs(full_testbed_run):
    testbed, _ = full_testbed_run
    macs, vendors, categories = device_maps(testbed)
    return testbed, testbed.lan.capture.index(), macs, vendors, categories


class TestProtocolCensus:
    def test_universal_protocols(self, analysis_inputs):
        testbed, index, macs, vendors, categories = analysis_inputs
        census = census_from_capture(index, macs)
        assert census.passive_fraction("ARP") > 0.9
        assert census.passive_fraction("DHCP") > 0.9

    def test_prevalence_order_matches_paper(self, analysis_inputs):
        testbed, index, macs, *_ = analysis_inputs
        census = census_from_capture(index, macs)
        # Fig. 2 shape: network-management protocols dominate, then
        # discovery, then application protocols.
        assert census.passive_fraction("ARP") >= census.passive_fraction("mDNS")
        assert census.passive_fraction("mDNS") >= census.passive_fraction("TPLINK_SHP")
        assert census.passive_fraction("mDNS") == pytest.approx(0.44, abs=0.06)
        assert census.passive_fraction("SSDP") == pytest.approx(0.34, abs=0.06)
        assert census.passive_fraction("TuyaLP") == pytest.approx(0.05, abs=0.03)

    def test_average_protocols_per_device(self, analysis_inputs):
        testbed, index, macs, *_ = analysis_inputs
        census = census_from_capture(index, macs)
        # §4.1: "an average IoT device supports 8 different protocols".
        assert 5.0 <= census.average_protocols_per_device() <= 11.0

    def test_scan_results_add_orange_bars(self, analysis_inputs, full_testbed_run):
        testbed, index, macs, *_ = analysis_inputs
        from repro.scan.portscan import PortScanner

        census = census_from_capture(index, macs)
        scanner = PortScanner()
        testbed.lan.attach(scanner)
        testbed.lan.capture.keep_bytes = False
        targets = [testbed.device(name) for name in
                   ("amazon-echo-spot-1", "google-nest-hub-5",
                    "microseven-camera-1", "apple-homepod-mini-1")]
        try:
            report = scanner.sweep(targets=targets,
                                   tcp_ports=[23, 80, 443, 4070, 8009, 55442],
                                   udp_ports=[53])
        finally:
            testbed.lan.detach(scanner)
        add_scan_results(census, report)
        assert census.scanned  # at least some open services were mapped

    def test_rows_are_sorted_by_prevalence(self, analysis_inputs):
        testbed, index, macs, *_ = analysis_inputs
        census = census_from_capture(index, macs)
        rows = census.rows()
        passive = [row["passive_pct"] for row in rows[:5]]
        assert passive == sorted(passive, reverse=True)


class TestDeviceGraph:
    def test_43_devices_communicate(self, analysis_inputs):
        testbed, index, macs, vendors, _ = analysis_inputs
        graph = build_device_graph(index, macs, vendors)
        summary = graph.summary()
        assert summary["devices_total"] == 93
        # Fig. 1: "nearly half (43/93)".
        assert 38 <= summary["devices_communicating"] <= 50

    def test_vendor_clusters_exist(self, analysis_inputs):
        testbed, index, macs, vendors, _ = analysis_inputs
        graph = build_device_graph(index, macs, vendors)
        for vendor in ("Amazon", "Google", "Apple"):
            cluster = graph.vendor_cluster(vendor)
            assert cluster.edges, vendor

    def test_amazon_has_coordinator(self, analysis_inputs):
        testbed, index, macs, vendors, _ = analysis_inputs
        graph = build_device_graph(index, macs, vendors)
        coordinator = graph.coordinator_of("Amazon")
        assert coordinator is not None
        cluster = graph.vendor_cluster("Amazon")
        degrees = sorted(cluster.degrees().values(), reverse=True)
        # Star topology: the coordinator's degree dominates (Fig. 4e).
        assert degrees[0] >= 3 * max(degrees[1], 1)

    def test_discovery_excluded(self, analysis_inputs):
        testbed, index, macs, vendors, _ = analysis_inputs
        graph = build_device_graph(index, macs, vendors)
        # Tuya devices only broadcast discovery; they must be isolated.
        degrees = graph.degrees()
        for node in testbed.devices_of_vendor("Tuya"):
            assert degrees[node.name] == 0

    def test_edge_transports(self, analysis_inputs):
        testbed, index, macs, vendors, _ = analysis_inputs
        graph = build_device_graph(index, macs, vendors)
        summary = graph.summary()
        assert summary["pairs_tcp_and_udp"] > 0  # thick edges in Fig. 1


class TestExposure:
    @pytest.fixture(scope="class")
    def matrix(self, analysis_inputs):
        testbed, index, macs, *_ = analysis_inputs
        return analyze_exposure(index, macs)

    def test_table1_rows(self, matrix):
        assert matrix.exposed_types("ARP") == ["MAC"]
        dhcp = matrix.exposed_types("DHCP")
        assert "MAC" in dhcp and "Device/Model" in dhcp and "OS Version" in dhcp
        mdns = matrix.exposed_types("mDNS")
        assert "UUIDs" in mdns and "Device/Model" in mdns
        ssdp = matrix.exposed_types("SSDP")
        assert "UUIDs" in ssdp and "OS Version" in ssdp and "Outdated OS/SW" in ssdp
        tuya = matrix.exposed_types("TuyaLP")
        assert "GW id" in tuya and "Prod. Key" in tuya
        tplink = matrix.exposed_types("TPLINK")
        assert "Geolocation" in tplink and "OEM id" in tplink and "MAC" in tplink

    def test_display_names_exposed(self, matrix):
        # Google/Apple user-defined display names leak via DHCP (§5.1).
        assert matrix.devices_exposing("DHCP", "Display name")

    def test_boolean_table_shape(self, matrix):
        table = matrix.as_boolean_table()
        assert set(table) == {"ARP", "DHCP", "mDNS", "SSDP", "TuyaLP", "TPLINK"}
        assert table["ARP"]["MAC"] is True
        assert table["ARP"]["Geolocation"] is False

    def test_examples_collected(self, matrix):
        examples = matrix.examples.get(("TPLINK", "Geolocation"))
        assert examples
        assert "," in examples[0]  # "lat,lon"

    def test_payload_examples_table5(self):
        examples = payload_examples()
        assert "9c:8e:cd:0a:33:1b" in examples["SSDP"]  # the Amcrest serial=MAC
        assert "Philips Hue - 685F61" in examples["mDNS"]
        assert "434b4141" in examples["NetBIOS"].replace(" ", "")  # "CKAA"
        assert "42.337681" in examples["TPLINK-SHP"]


class TestResponses:
    def test_table4_shape(self, analysis_inputs):
        testbed, index, macs, _, categories = analysis_inputs
        correlation = correlate_responses(index, macs, categories)
        rows = {row[0]: row for row in correlation.by_category()}
        assert "Amazon Echo" in rows
        echo = rows["Amazon Echo"]
        # Table 4: Echo averages 3.65 discovery protocols, 1.82 with
        # responses, 9.47 devices responded to.
        assert 2.0 <= echo[1] <= 4.5
        assert echo[2] >= 1.0
        assert echo[3] >= 5.0
        if "Tuya" in rows:
            assert rows["Tuya"][2] == 0.0  # Tuya gets no responses

    def test_category_mapping(self):
        from repro.devices.catalog import build_catalog

        categories = {category_of_profile(p) for p in build_catalog()}
        assert "Amazon Echo" in categories
        assert "Google&Nest" in categories
        assert "Cameras" in categories
        assert "Hubs" in categories

    def test_window_sensitivity(self, analysis_inputs):
        testbed, index, macs, _, categories = analysis_inputs
        tight = correlate_responses(index, macs, categories, window=0.001)
        loose = correlate_responses(index, macs, categories, window=10.0)
        def responders(correlation):
            return sum(len(stats.responders) for stats in correlation.per_device.values())
        assert responders(loose) >= responders(tight)


class TestPeriodicity:
    def test_pure_periodic_train(self):
        ok, period, dft, autocorr = detect_period([i * 25.0 for i in range(30)])
        assert ok
        assert period == pytest.approx(25.0, rel=0.15)
        assert autocorr > 0.8

    def test_random_train_rejected(self, rng):
        timestamps = sorted(rng.uniform(0, 1000) for _ in range(40))
        ok, *_ = detect_period(timestamps)
        assert not ok

    def test_too_few_events(self):
        ok, *_ = detect_period([1.0, 2.0])
        assert not ok

    def test_zero_span(self):
        ok, *_ = detect_period([5.0, 5.0, 5.0, 5.0])
        assert not ok

    def test_jittered_train_still_detected(self, rng):
        timestamps = [i * 30.0 + rng.uniform(-0.5, 0.5) for i in range(40)]
        ok, period, *_ = detect_period(timestamps)
        assert ok and period == pytest.approx(30.0, rel=0.15)

    def test_discovery_flows_mostly_periodic(self, analysis_inputs):
        testbed, index, macs, *_ = analysis_inputs
        result = analyze_periodicity(index, macs)
        # Appendix D.1: 88% of discovery flows are periodic.
        assert result.periodic_fraction > 0.6
        assert result.groups_per_device() > 0.5

    def test_ablation_dft_only_vs_both(self, analysis_inputs):
        testbed, index, macs, *_ = analysis_inputs
        both = analyze_periodicity(index, macs, use_dft=True, use_autocorr=True)
        dft_only = analyze_periodicity(index, macs, use_dft=True, use_autocorr=False)
        assert len(dft_only.periodic_groups) >= len(both.periodic_groups)


class TestThreatReport:
    @pytest.fixture(scope="class")
    def report(self, analysis_inputs):
        from repro.scan.vulnscan import VulnerabilityScanner

        testbed, index, macs, *_ = analysis_inputs
        findings = VulnerabilityScanner().scan(testbed.devices)
        return build_threat_report(index, macs, findings)

    def test_plaintext_http_census(self, report):
        assert report.plaintext_http_devices
        assert report.http_clients_only or report.http_servers

    def test_tls_posture_versions(self, report, analysis_inputs):
        testbed, *_ = analysis_inputs
        assert report.tls_device_count >= 20  # §5.2: 32 devices
        versions = set()
        for posture in report.tls_devices.values():
            versions |= posture.versions
        assert "1.2" in versions and "1.3" in versions

    def test_amazon_short_lived_ip_certs(self, report, analysis_inputs):
        testbed, *_ = analysis_inputs
        amazon = {n.name for n in testbed.devices_of_vendor("Amazon")}
        amazon_postures = [p for name, p in report.tls_devices.items() if name in amazon]
        with_certs = [p for p in amazon_postures if p.certificates]
        assert with_certs
        assert any(p.ip_common_names for p in with_certs)
        assert any(p.min_cert_validity_years < 0.5 for p in with_certs)

    def test_google_long_lived_certs(self, report, analysis_inputs):
        testbed, *_ = analysis_inputs
        google = {n.name for n in testbed.devices_of_vendor("Google")}
        postures = [p for name, p in report.tls_devices.items() if name in google and p.certificates]
        assert any(p.max_cert_validity_years > 15 for p in postures)

    def test_user_agents_only_google_and_lg(self, report, analysis_inputs):
        testbed, *_ = analysis_inputs
        vendors = {testbed.device(name).vendor for name in report.user_agents}
        assert vendors <= {"Google", "LG", "SmartThings"}

    def test_findings_rollup(self, report):
        severities = report.findings_by_severity()
        assert severities.get("critical", 0) >= 1
        assert severities.get("high", 0) >= 5
        assert "microseven-camera-1" in report.devices_with_findings()
        assert report.findings_for("apple-homepod-mini-1")


class TestQmMulticastExtension:
    """The Appendix D.2 future work: QM mDNS responses counted."""

    def test_multicast_responses_add_links(self, analysis_inputs):
        testbed, index, macs, _, categories = analysis_inputs
        base = correlate_responses(index, macs, categories)
        extended = correlate_responses(
            index, macs, categories, include_multicast_responses=True
        )

        def links(correlation):
            return sum(len(stats.responders) for stats in correlation.per_device.values())

        assert links(extended) > links(base)

    def test_multicast_extension_is_superset(self, analysis_inputs):
        testbed, index, macs, _, categories = analysis_inputs
        base = correlate_responses(index, macs, categories)
        extended = correlate_responses(
            index, macs, categories, include_multicast_responses=True
        )
        for name, stats in base.per_device.items():
            assert stats.responders <= extended.per_device[name].responders


class TestDiscoveryIntervals:
    """§5.1 "Discovery Intervals": recovered per-group cadences."""

    def test_google_ssdp_20s(self, analysis_inputs):
        from repro.core.periodicity import analyze_periodicity, discovery_intervals

        testbed, index, macs, _, categories = analysis_inputs
        result = analyze_periodicity(index, macs)
        intervals = discovery_intervals(result, categories)
        assert intervals.get(("Google&Nest", "SSDP")) == pytest.approx(20.0, rel=0.2)

    def test_tuya_broadcast_5s(self, analysis_inputs):
        from repro.core.periodicity import analyze_periodicity, discovery_intervals

        testbed, index, macs, _, categories = analysis_inputs
        result = analyze_periodicity(index, macs)
        intervals = discovery_intervals(result, categories)
        assert intervals.get(("Tuya", "TuyaLP")) == pytest.approx(5.0, rel=0.3)

    def test_mdns_in_20_to_100s_band(self, analysis_inputs):
        from repro.core.periodicity import analyze_periodicity, discovery_intervals

        testbed, index, macs, _, categories = analysis_inputs
        result = analyze_periodicity(index, macs)
        intervals = discovery_intervals(result, categories)
        mdns = [value for (group, proto), value in intervals.items() if proto == "mDNS"]
        assert mdns
        # §5.1: "most mDNS queries every 20s-100s".
        assert all(15.0 <= value <= 130.0 for value in mdns)
