"""Shared fixtures: small/full testbeds, captures, datasets.

Heavy artifacts (full 93-device testbed run, app dataset, crowdsourced
dataset) are session-scoped so the suite builds them once.
"""

from __future__ import annotations

import random
import signal
from pathlib import Path

import pytest

from repro.devices.behaviors import DeviceNode, build_testbed
from repro.devices.catalog import build_catalog
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceInfo, ServiceTable
from repro.simnet.simulator import Simulator


#: The SIGPROF handler the session started with.
_SIGPROF_HANDLER = signal.getsignal(signal.SIGPROF)


@pytest.fixture(autouse=True)
def _profiling_timer_disarmed():
    """Fail a test that leaves the profiling timer armed or its handler
    installed: at interpreter shutdown Python restores SIGPROF's default
    action, and an armed timer then kills the session."""
    yield
    armed = signal.getitimer(signal.ITIMER_PROF)
    handler = signal.getsignal(signal.SIGPROF)
    if armed != (0.0, 0.0) or handler is not _SIGPROF_HANDLER:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, _SIGPROF_HANDLER)
        pytest.fail(f"test left ITIMER_PROF at {armed} with SIGPROF "
                    f"handler {handler!r}")


@pytest.fixture
def simulator():
    return Simulator()


@pytest.fixture
def lan(simulator):
    return Lan(simulator)


@pytest.fixture
def two_nodes(lan):
    """A plain client/server pair on a fresh LAN."""
    client = lan.attach(Node("client", "02:aa:00:00:00:01", "192.168.10.21"))
    server = lan.attach(
        Node(
            "server",
            "02:aa:00:00:00:02",
            "192.168.10.22",
            services=ServiceTable([ServiceInfo(80, "tcp", "http", "HTTP/1.1 200 OK", "httpd", "1.0")]),
        )
    )
    return client, server


def _mini_profiles():
    wanted = {
        "amazon-echo-spot-1",
        "google-nest-hub-5",
        "apple-homepod-mini-1",
        "tplink-1",
        "tplink-2",
        "tuya-automation-3",  # the Jinvoo bulb (plaintext TuyaLP)
        "philips-hue-hub-1",
        "roku-tv-1",
        "lg-tv-1",
        "microseven-camera-1",
        "wemo-plug-1",
        "ring-chime-1",
    }
    return [profile for profile in build_catalog() if profile.name in wanted]


@pytest.fixture
def mini_testbed():
    """A 12-device slice of the catalog, booted but not yet run."""
    return build_testbed(seed=42, profiles=_mini_profiles())


@pytest.fixture
def mini_capture(mini_testbed):
    """The mini testbed after 10 simulated minutes, with decoded capture."""
    mini_testbed.run(600.0)
    return mini_testbed, mini_testbed.lan.capture.table().packets()


@pytest.fixture(scope="session")
def full_testbed_run():
    """The full 93-device lab run for 20 simulated minutes (built once).

    Returns the testbed and its capture's :class:`CaptureIndex`.
    """
    testbed = build_testbed(seed=7)
    testbed.run(1200.0)
    return testbed, testbed.lan.capture.index()


@pytest.fixture(scope="session")
def lab_records():
    """Raw ``(timestamp, frame_bytes)`` records of a 2-minute seed-7 lab run."""
    testbed = build_testbed(seed=7)
    testbed.run(120.0)
    return list(testbed.lan.capture.records)


@pytest.fixture(scope="session")
def chaos_records():
    """The same lab run recorded under ``examples/fault_plans/chaos.json``."""
    from repro.faults import FaultInjector, FaultPlan

    plan = FaultPlan.load(Path(__file__).parent.parent / "examples" / "fault_plans" / "chaos.json")
    testbed = build_testbed(seed=7)
    FaultInjector(plan, seed=7).install(testbed.lan)
    testbed.run(120.0)
    return list(testbed.lan.capture.records)


#: A fault plan that damages about half the frames on the air: the
#: kind of broken external capture crowdsourced collection produces.
DAMAGE_PLAN = {
    "name": "damage",
    "links": [{"truncate": 0.3, "corrupt": 0.3, "corrupt_bits": 4,
               "duplicate": 0.05, "delay": {"probability": 0.05}}],
    "discovery": {"probability": 0.9, "protocols": ["mdns", "ssdp", "tuyalp"]},
}


@pytest.fixture(scope="session")
def damage_records():
    """The same lab run recorded under :data:`DAMAGE_PLAN`."""
    from repro.faults import FaultInjector, FaultPlan

    testbed = build_testbed(seed=7)
    FaultInjector(FaultPlan.from_dict(DAMAGE_PLAN), seed=7).install(testbed.lan)
    testbed.run(120.0)
    return list(testbed.lan.capture.records)


@pytest.fixture(scope="session")
def app_dataset():
    from repro.apps.dataset import generate_app_dataset

    return generate_app_dataset(seed=11)


@pytest.fixture(scope="session")
def inspector_dataset():
    from repro.inspector.generate import generate_dataset

    return generate_dataset(seed=23, households=400, target_devices=1300)


@pytest.fixture
def rng():
    return random.Random(1234)


def device_maps(testbed):
    """Helper: the standard MAC/vendor/category maps for analyses."""
    from repro.core.responses import category_of_profile

    return (
        {str(node.mac): node.name for node in testbed.devices},
        {node.name: node.vendor for node in testbed.devices},
        {node.name: category_of_profile(node.profile) for node in testbed.devices},
    )
