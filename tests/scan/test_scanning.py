"""Tests for the port scanner, nmap service labels, and Nessus analogue."""

import pytest

from repro.scan.cve_db import CVE_DATABASE, entries_for_software, lookup
from repro.scan.nmap_services import (
    MANUAL_CORRECTIONS,
    correct_service_label,
    nmap_service_name,
)
from repro.scan.portscan import PortScanner, default_tcp_ports
from repro.scan.vulnscan import VulnerabilityScanner
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceInfo, ServiceTable


@pytest.fixture(params=["stack", "wire"])
def lan(request, simulator):
    """A LAN whose capture keeps no bytes, as a study's sweep runs, so the
    targets' stacks answer the probes; under ``wire`` a no-op frame tap
    puts every probe on the wire instead."""
    lan = Lan(simulator)
    lan.capture.keep_bytes = False
    if request.param == "wire":
        lan.capture.frame_taps.append(lambda timestamp, frame: None)
    return lan


@pytest.fixture
def scanned_lan(lan):
    target = lan.attach(
        Node(
            "victim",
            "02:00:00:00:00:77",
            "192.168.10.77",
            services=ServiceTable(
                [
                    ServiceInfo(80, "tcp", "http", "HTTP/1.1 200 OK", "GoAhead-Webs", "2.5"),
                    ServiceInfo(9999, "tcp", "tplink-shp"),
                    ServiceInfo(53, "udp", "dns", "", "SheerDNS", "1.0.0"),
                ]
            ),
        )
    )
    scanner = PortScanner()
    lan.attach(scanner)
    return lan, scanner, target


class TestTcpSynScan:
    def test_finds_open_ports(self, scanned_lan):
        lan, scanner, target = scanned_lan
        opens, responded = scanner.tcp_syn_scan(target, range(1, 1025))
        assert opens == [80]
        assert responded

    def test_includes_high_ports_from_universe(self, scanned_lan):
        lan, scanner, target = scanned_lan
        universe = default_tcp_ports(lan)
        assert 9999 in universe
        opens, _ = scanner.tcp_syn_scan(target, universe)
        assert set(opens) == {80, 9999}

    def test_silent_host_not_responded(self, scanned_lan):
        lan, scanner, _ = scanned_lan
        ghost = lan.attach(Node("ghost", "02:00:00:00:00:78", "192.168.10.78"))
        ghost.responds_to_tcp_scan = False
        opens, responded = scanner.tcp_syn_scan(ghost, range(1, 50))
        assert opens == [] and not responded

    def test_rst_counts_as_response(self, scanned_lan):
        lan, scanner, target = scanned_lan
        opens, responded = scanner.tcp_syn_scan(target, [4321])
        assert opens == [] and responded


class TestGiveUpPolicy:
    """Retries stop once a target has been silent on too many ports in a row."""

    PORTS = list(range(1, 21))

    @staticmethod
    def _ghost(lan, services=()):
        ghost = lan.attach(Node("ghost", "02:00:00:00:00:78", "192.168.10.78",
                                services=ServiceTable(services)))
        ghost.responds_to_tcp_scan = False
        return ghost

    @staticmethod
    def _scanner(lan):
        return lan.attach(PortScanner(max_retries=2, silent_target_threshold=8))

    def test_silent_target_costs_full_attempts_until_the_threshold(self, lan):
        ghost = self._ghost(lan)
        scanner = self._scanner(lan)
        opens, responded = scanner.tcp_syn_scan(ghost, self.PORTS)
        assert opens == [] and not responded
        # Eight ports at three attempts each, then one attempt per port.
        assert scanner.probes_sent == 24 + (len(self.PORTS) - 8)
        assert scanner.retries_used == 16

    def test_an_answer_resets_the_streak(self, lan):
        ghost = self._ghost(lan, [ServiceInfo(7, "tcp", "echo")])
        scanner = self._scanner(lan)
        opens, responded = scanner.tcp_syn_scan(ghost, self.PORTS)
        assert opens == [7] and responded
        # Ports 1-6 silent (3 attempts each), port 7 answers at once,
        # ports 8-15 silent at 3 attempts each, then one attempt per port.
        assert scanner.probes_sent == 6 * 3 + 1 + 8 * 3 + (len(self.PORTS) - 15)
        assert scanner.retries_used == 6 * 2 + 8 * 2

    def test_streaks_are_kept_per_target(self, lan):
        ghost = self._ghost(lan)
        other = lan.attach(Node("other", "02:00:00:00:00:79", "192.168.10.79"))
        other.responds_to_tcp_scan = False
        scanner = self._scanner(lan)
        scanner.tcp_syn_scan(ghost, self.PORTS)
        before = scanner.probes_sent
        scanner.tcp_syn_scan(other, self.PORTS)
        assert scanner.probes_sent - before == 24 + (len(self.PORTS) - 8)


class TestUdpScan:
    def test_icmp_unreachable_is_response(self, scanned_lan):
        lan, scanner, target = scanned_lan
        opens, responded = scanner.udp_scan(target, [999])
        assert responded and opens == []

    def test_documented_open_udp_detected(self, scanned_lan):
        lan, scanner, target = scanned_lan
        opens, _ = scanner.udp_scan(target, [53])
        assert 53 in opens

    def test_drop_mode_host_silent(self, scanned_lan):
        lan, scanner, _ = scanned_lan
        quiet = lan.attach(Node("quiet", "02:00:00:00:00:79", "192.168.10.79"))
        quiet.udp_closed_behavior = "drop"
        opens, responded = scanner.udp_scan(quiet, [100, 200])
        assert not responded and opens == []


class TestIpProtocolScan:
    def test_ping_support_detected(self, scanned_lan):
        lan, scanner, target = scanned_lan
        protocols, responded = scanner.ip_protocol_scan(target)
        assert 1 in protocols and responded

    def test_igmp_detected_from_membership(self, scanned_lan):
        lan, scanner, target = scanned_lan
        target.join_group("224.0.0.251")
        protocols, _ = scanner.ip_protocol_scan(target)
        assert 2 in protocols


class TestSweep:
    def test_report_aggregates(self, scanned_lan):
        lan, scanner, target = scanned_lan
        report = scanner.sweep(targets=[target], tcp_ports=list(range(1, 100)) + [9999],
                               udp_ports=[53, 999])
        assert report.devices_with_open_ports == 1
        assert report.tcp_responders == 1
        assert report.udp_responders == 1
        host = report.hosts[0]
        assert {entry.port for entry in host.open_tcp} == {80, 9999}
        assert {entry.port for entry in host.open_udp} == {53}

    def test_labels_applied(self, scanned_lan):
        lan, scanner, target = scanned_lan
        report = scanner.sweep(targets=[target], tcp_ports=[80, 9999], udp_ports=[53])
        by_port = {entry.port: entry for host in report.hosts for entry in host.open_ports}
        assert by_port[9999].nmap_label == "abyss"  # the nmap mistake
        assert by_port[9999].corrected_label == "tplink-shp"
        assert by_port[9999].was_corrected
        assert by_port[80].nmap_label == "http"
        assert not by_port[80].was_corrected


class TestNmapServices:
    def test_tuya_ports_guessed_as_irc(self):
        assert nmap_service_name("udp", 6666) == "irc"
        assert nmap_service_name("udp", 6667) == "irc"

    def test_chromecast_8009_guessed_as_ajp(self):
        assert nmap_service_name("tcp", 8009) == "ajp13"

    def test_echo_4070_guessed_as_ezmeeting(self):
        assert nmap_service_name("tcp", 4070) == "ezmeeting-2"

    def test_unknown_port(self):
        assert nmap_service_name("tcp", 61234) == "unknown"

    def test_corrections_give_reason(self):
        label, reason = correct_service_label("udp", 6666, "irc")
        assert label == "tuyalp" and reason

    def test_uncorrected_passthrough(self):
        label, reason = correct_service_label("tcp", 80, "http")
        assert label == "http" and reason is None

    def test_every_correction_targets_a_known_guess(self):
        for (transport, port) in MANUAL_CORRECTIONS:
            assert nmap_service_name(transport, port) != MANUAL_CORRECTIONS[(transport, port)][0]


class TestCveDatabase:
    def test_paper_findings_present(self):
        for identifier in ("CVE-2016-2183", "CVE-2020-11022", "NESSUS-11535",
                           "NESSUS-12217", "ONVIF-UNAUTH-SNAPSHOT", "UPNP-1.0-DEPRECATED"):
            assert lookup(identifier) is not None

    def test_version_matching(self):
        assert entries_for_software("jQuery", "1.2")
        assert not entries_for_software("jQuery", "3.5.0")
        assert entries_for_software("SheerDNS", "1.0.0")

    def test_unknown_software(self):
        assert entries_for_software("nginx", "1.25") == []

    def test_severities_valid(self):
        for entry in CVE_DATABASE.values():
            assert entry.severity in ("low", "medium", "high", "critical")
            assert 0.0 <= entry.cvss <= 10.0


class TestVulnScanner:
    def test_full_testbed_findings(self, full_testbed_run):
        testbed, _ = full_testbed_run
        scanner = VulnerabilityScanner()
        findings = scanner.scan(testbed.devices)
        by_device = {}
        for finding in findings:
            by_device.setdefault(finding.device, set()).add(finding.identifier)
        # The named §5.2 findings are all discovered.
        assert "NESSUS-11535" in by_device["apple-homepod-mini-1"]
        assert "NESSUS-12217" in by_device["wemo-plug-1"]
        assert "ONVIF-UNAUTH-SNAPSHOT" in by_device["microseven-camera-1"]
        assert "HTTP-BACKUP-EXPOSURE" in by_device["lefun-camera-1"]
        assert "CVE-2016-2183" in by_device["google-nest-hub-5"]
        assert "UPNP-1.0-DEPRECATED" in by_device["roku-tv-1"]
        assert "TPLINK-SHP-NOAUTH" in by_device["tplink-1"]

    def test_banner_matching(self, full_testbed_run):
        testbed, _ = full_testbed_run
        scanner = VulnerabilityScanner()
        findings = scanner.scan_device(testbed.device("microseven-camera-1"))
        jquery = [f for f in findings if f.identifier == "CVE-2020-11022"]
        assert jquery
        assert any("banner" in f.evidence or "jQuery" in f.evidence for f in jquery)

    def test_deduplication(self, full_testbed_run):
        testbed, _ = full_testbed_run
        scanner = VulnerabilityScanner()
        findings = scanner.scan_device(testbed.device("apple-homepod-mini-1"))
        keys = [(f.identifier, f.port, f.transport) for f in findings]
        assert len(keys) == len(set(keys))

    def test_severity_ordering(self, full_testbed_run):
        testbed, _ = full_testbed_run
        findings = VulnerabilityScanner().scan_device(testbed.device("microseven-camera-1"))
        order = {"critical": 0, "high": 1, "medium": 2, "low": 3}
        ranks = [order[f.severity] for f in findings]
        assert ranks == sorted(ranks)

    def test_include_low_filter(self, full_testbed_run):
        testbed, _ = full_testbed_run
        device = testbed.device("philips-hue-hub-1")
        with_low = VulnerabilityScanner(include_low=True).scan_device(device)
        without_low = VulnerabilityScanner(include_low=False).scan_device(device)
        assert len(without_low) <= len(with_low)
        assert not any(f.severity == "low" for f in without_low)

    def test_finding_links_to_cve_entry(self, full_testbed_run):
        testbed, _ = full_testbed_run
        findings = VulnerabilityScanner().scan_device(testbed.device("wemo-plug-1"))
        snooping = next(f for f in findings if f.identifier == "NESSUS-12217")
        assert snooping.cve_entry is not None
        assert "Cache Snooping" in snooping.cve_entry.title
