"""Tests for the iOS local-network model (§2.1)."""

import pytest

from repro.apps.ios import (
    IosApp,
    IosCapability,
    IosPermissionModel,
    LocalNetworkDenied,
    contrast_with_android,
)


@pytest.fixture
def model():
    return IosPermissionModel(version=16)


class TestIosModel:
    def test_multicast_needs_entitlement(self, model):
        app = IosApp("com.example.scan", has_usage_description=True,
                     user_granted_local_network=True)
        with pytest.raises(LocalNetworkDenied) as excinfo:
            model.check_multicast(app)
        assert "entitlement" in str(excinfo.value)

    def test_needs_usage_description(self, model):
        app = IosApp("com.example.scan",
                     entitlements={IosCapability.MULTICAST_ENTITLEMENT},
                     user_granted_local_network=True)
        with pytest.raises(LocalNetworkDenied) as excinfo:
            model.check_multicast(app)
        assert "NSLocalNetworkUsageDescription" in str(excinfo.value)

    def test_needs_user_consent(self, model):
        app = IosApp("com.example.scan",
                     entitlements={IosCapability.MULTICAST_ENTITLEMENT},
                     has_usage_description=True)
        with pytest.raises(LocalNetworkDenied) as excinfo:
            model.check_multicast(app)
        assert "user" in str(excinfo.value)

    def test_fully_authorized_app_may_scan(self, model):
        app = IosApp("com.example.scan",
                     entitlements={IosCapability.MULTICAST_ENTITLEMENT},
                     has_usage_description=True,
                     user_granted_local_network=True)
        assert model.can_scan(app)

    def test_unicast_still_gated(self, model):
        # §2.1: even unicast local connections require the permission.
        app = IosApp("com.example.unicast")
        with pytest.raises(LocalNetworkDenied):
            model.check_local_network(app)

    def test_contrast_documents_the_asymmetry(self):
        lines = contrast_with_android()
        assert any("dangerous" in line for line in lines)
        assert any("Apple-approved" in line for line in lines)


class TestMatterIntegration:
    def test_echo_advertises_matter_over_ipv6(self):
        from repro.classify import NdpiLikeClassifier
        from repro.classify.labels import Label
        from repro.devices.behaviors import build_testbed

        testbed = build_testbed(seed=7)
        testbed.run(120.0)
        ndpi = NdpiLikeClassifier()
        matter = [
            packet for packet in testbed.lan.capture.table().packets()
            if ndpi.classify_packet(packet) is Label.MATTER
        ]
        assert matter
        assert all(packet.ipv6 is not None for packet in matter)
        # Only Matter-capable devices (Amazon Echo fleet) advertise.
        senders = {str(packet.frame.src) for packet in matter}
        amazon = {str(node.mac) for node in testbed.devices_of_vendor("Amazon")}
        assert senders <= amazon

    def test_companion_apps_advertise_matter(self, mini_testbed):
        from repro.apps.dataset import generate_app_dataset
        from repro.apps.runtime import InstrumentedPhone

        mini_testbed.run(10.0)
        phone = InstrumentedPhone()
        mini_testbed.lan.attach(phone)
        apps = generate_app_dataset(seed=11)
        tuya = next(app for app in apps if app.package == "com.tuya.smart")
        result = phone.run_app(tuya)
        assert "matter" in result.protocols_used

    def test_regular_apps_do_not_advertise_matter(self, mini_testbed):
        from repro.apps.appmodel import AppCategory, AppModel
        from repro.apps.runtime import InstrumentedPhone

        mini_testbed.run(10.0)
        phone = InstrumentedPhone()
        mini_testbed.lan.attach(phone)
        app = AppModel("com.other.app", "x", AppCategory.REGULAR,
                       permissions=["android.permission.INTERNET"])
        result = phone.run_app(app)
        assert "matter" not in result.protocols_used
