"""Tests for the §5.1 ARP scanning/response analysis."""

import pytest

from repro.core.arp_analysis import analyze_arp
from tests.conftest import device_maps


@pytest.fixture(scope="module")
def arp_analysis(full_testbed_run):
    testbed, index = full_testbed_run
    macs, _, _ = device_maps(testbed)
    ips = {node.name: node.ip for node in testbed.devices}
    return testbed, analyze_arp(index, macs, ips)


class TestArpAnalysis:
    def test_echo_fleet_detected_as_sweepers(self, arp_analysis):
        testbed, analysis = arp_analysis
        sweepers = analysis.sweepers()
        assert len(sweepers) == 17
        assert all(name.startswith("amazon-echo") for name in sweepers)

    def test_sweepers_cover_ip_space(self, arp_analysis):
        testbed, analysis = arp_analysis
        first = analysis.scanners[analysis.sweepers()[0]]
        assert len(first.broadcast_targets) > 200  # the whole /24

    def test_broadcast_response_rate_near_58(self, arp_analysis):
        testbed, analysis = arp_analysis
        rate = analysis.broadcast_response_rate()
        assert 0.5 <= rate <= 0.72  # paper: 58%

    def test_unicast_always_answered(self, arp_analysis):
        testbed, analysis = arp_analysis
        assert analysis.unicast_response_rate() == pytest.approx(1.0)

    def test_echo_unicast_coverage_near_83(self, arp_analysis):
        testbed, analysis = arp_analysis
        echo = analysis.sweepers()[0]
        coverage = analysis.unicast_probe_coverage(echo, len(testbed.devices))
        assert 0.7 <= coverage <= 0.95  # paper: 83%

    def test_six_public_ip_probers(self, arp_analysis):
        testbed, analysis = arp_analysis
        assert len(analysis.public_ip_probers()) == 6

    def test_non_scanners_not_flagged(self, arp_analysis):
        testbed, analysis = arp_analysis
        # Gratuitous boot ARP alone must not make a device a sweeper.
        hue = analysis.scanners.get("philips-hue-hub-1")
        assert hue is None or not hue.is_sweeper

    def test_inferred_ips_work_without_map(self, full_testbed_run):
        testbed, index = full_testbed_run
        macs, _, _ = device_maps(testbed)
        analysis = analyze_arp(index, macs)  # no IP map given
        assert len(analysis.sweepers()) == 17
