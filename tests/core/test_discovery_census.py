"""Tests for the §5.1 DHCP option and mDNS service censuses."""

import pytest

from repro.core.discovery_census import (
    DEPRECATED_OPTIONS,
    classify_service,
    dhcp_census,
    mdns_service_census,
)
from tests.conftest import device_maps


@pytest.fixture(scope="module")
def censuses(full_testbed_run):
    testbed, index = full_testbed_run
    macs, _, _ = device_maps(testbed)
    return testbed, dhcp_census(index, macs), mdns_service_census(index, macs)


class TestDhcpCensus:
    def test_86_requesting_devices(self, censuses):
        testbed, dhcp, _ = censuses
        assert len(dhcp.requesting_devices) == 86  # paper: 86

    def test_30_option_types(self, censuses):
        testbed, dhcp, _ = censuses
        assert 27 <= len(dhcp.requested_options) <= 33  # paper: 30

    def test_deprecated_options_requested(self, censuses):
        testbed, dhcp, _ = censuses
        assert DEPRECATED_OPTIONS & dhcp.requested_options
        assert dhcp.deprecated_requesters

    def test_hostname_fraction_67(self, censuses):
        testbed, dhcp, _ = censuses
        fraction = dhcp.hostname_fraction(len(testbed.devices))
        assert fraction == pytest.approx(0.67, abs=0.03)  # paper: 67%

    def test_16_unique_client_versions(self, censuses):
        testbed, dhcp, _ = censuses
        assert len(dhcp.unique_client_versions) == 16  # paper: 16
        assert dhcp.version_fraction(len(testbed.devices)) == pytest.approx(0.40, abs=0.03)

    def test_37_old_or_custom_clients(self, censuses):
        testbed, dhcp, _ = censuses
        old = dhcp.old_or_custom_clients()
        assert len(old) == 37  # paper: 37
        # "including Amazon Echo and Google ones"
        assert any(name.startswith("amazon-") for name in old)
        assert any(name.startswith("google-") for name in old)

    def test_hostnames_match_schemes(self, censuses):
        testbed, dhcp, _ = censuses
        chime = dhcp.hostnames.get("ring-chime-1")
        assert chime is not None
        mac = testbed.device("ring-chime-1").mac.compact()
        assert mac in chime  # name + MAC scheme (§5.1)


class TestMdnsServiceCensus:
    def test_service_families_revealed(self, censuses):
        testbed, _, mdns = censuses
        families = set(mdns.by_family)
        # §5.1's list: casting, platform services, streaming, IoT
        # standards, networking protocols.
        assert {"casting", "platform", "streaming", "iot-standard"} <= families

    def test_matter_family_from_echo(self, censuses):
        testbed, _, mdns = censuses
        matter_devices = mdns.devices_revealing("iot-standard")
        assert matter_devices
        assert all(name.startswith("amazon-") for name in matter_devices)

    def test_casting_includes_google(self, censuses):
        testbed, _, mdns = censuses
        casters = mdns.devices_revealing("casting")
        assert any(name.startswith("google-") for name in casters)

    def test_families_of_device(self, censuses):
        testbed, _, mdns = censuses
        hub_families = mdns.families_of("google-nest-hub-5")
        assert "casting" in hub_families

    def test_classify_service_unknown(self):
        assert classify_service("_nosuchservice._tcp.local") is None
        assert classify_service("_googlecast._tcp.local") == "casting"
