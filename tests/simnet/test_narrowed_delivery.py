"""Narrowed delivery against full fan-out.

Of a broadcast or multicast frame, the LAN calls only the stacks that
act on it (``repro.simnet.node.stacks_acting_on``).  Each test runs the
same lab twice, fresh each time; on one side every node gets a no-op raw
hook, which makes the stack of every NIC that takes a frame receive it.
Both must agree on the capture's records (timestamps and bytes) and
counts, every honeypot log, every device's random state, every node's
next ephemeral port, the gateway's DHCP leases and, with telemetry on,
every counter's samples.

Corpora: the seed-7 passive run with telemetry on, seed 11's without,
the apps stage with the phone attached, a lab with a port scanner
attached during the passive run, and a ``chaos.json`` lab, where the
active injector keeps full fan-out on both sides.  Targeted cases: a
node whose IP moved after attach, a UDP handler and a raw hook added
after attach, a broadcast ARP reply, a broadcast ICMP echo and an
undecodable mDNS payload.
"""

import dataclasses
import random
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.apps.dataset import generate_app_dataset
from repro.apps.runtime import InstrumentedPhone
from repro.devices.behaviors import build_testbed
from repro.faults import FaultInjector, FaultPlan
from repro.honeypot.base import Honeypot
from repro.honeypot.farm import HoneypotFarm
from repro.honeypot.mdns import MdnsHoneypot
from repro.net.arp import ArpOp, ArpPacket
from repro.net.decode import decode_frame
from repro.net.ether import EtherType
from repro.net.ipv4 import LazyBytes
from repro.net.mac import BROADCAST_MAC
from repro.obs import enable_observability, use_obs
from repro.scan.portscan import PortScanner
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.simulator import Simulator

CHAOS_PLAN = Path(__file__).parents[2] / "examples" / "fault_plans" / "chaos.json"


def _ignore(_node, _packet):
    """The no-op raw hook that puts a node's stack on every frame."""


def _hook_all(lan):
    for node in lan.nodes:
        if _ignore not in node._raw_hooks:
            node.add_raw_hook(_ignore)


def _outcome(scenario, full, telemetry):
    """Run ``scenario(full) -> (lan, extra)`` and return what both paths
    must agree on."""
    obs = enable_observability() if telemetry else None
    with use_obs(obs) if telemetry else nullcontext():
        lan, extra = scenario(full)
    capture = lan.capture
    nodes = lan.nodes
    logs = {id(node.log): node.log for node in nodes if isinstance(node, Honeypot)}
    state = {
        "records": list(capture.records),
        "counts": (capture.packet_count, capture.byte_count),
        "honeypots": [[dataclasses.asdict(event) for event in log.events]
                      for log in logs.values()],
        "rng": {node.name: node.rng.getstate() for node in nodes if hasattr(node, "rng")},
        "ephemeral": {node.name: node._next_ephemeral for node in nodes},
        "leases": {node.name: dict(node.dhcp_leases)
                   for node in nodes if hasattr(node, "dhcp_leases")},
        **extra,
    }
    if telemetry:
        state["counters"] = {name: entry["samples"]
                             for name, entry in obs.metrics.to_dict().items()
                             if entry["type"] == "counter"}
    if lan.injector is not None:
        state["faults"] = dict(lan.injector.counts)
    return state


def _both(scenario, telemetry):
    """The narrowed side's outcome, after checking it against full fan-out."""
    narrowed = _outcome(scenario, False, telemetry)
    full = _outcome(scenario, True, telemetry)
    assert narrowed.keys() == full.keys()
    for key, value in full.items():
        if key == "records" and narrowed[key] != value:
            first = next((index for index, (a, b) in enumerate(zip(narrowed[key], value))
                          if a != b), min(len(narrowed[key]), len(value)))
            pytest.fail(f"records differ from index {first} "
                        f"({len(narrowed[key])} narrowed, {len(value)} full)")
        assert narrowed[key] == value, f"narrowed delivery changed {key!r}"
    return narrowed


# -- corpora ---------------------------------------------------------------------------


def _lab(seed, seconds, plan=None, scanner=False):
    """The study's passive stage: the testbed, the fault plan's injector,
    the honeypot farm, and optionally a port scanner taking every frame."""
    def scenario(full):
        testbed = build_testbed(seed=seed)
        lan = testbed.lan
        if plan is not None:
            FaultInjector(FaultPlan.load(plan), seed=seed).install(lan)
        HoneypotFarm.deploy(lan)
        extra = {}
        probe = lan.attach(PortScanner()) if scanner else None
        if full:
            _hook_all(lan)
        testbed.run(seconds)
        if probe is not None:
            extra["scanner"] = [(packet.timestamp, str(packet.frame.src), str(packet.frame.dst))
                                for packet in probe._replies]
        return lan, extra
    return scenario


def test_seed_7_passive_run_with_telemetry():
    state = _both(_lab(7, 300.0), telemetry=True)
    assert state["counts"][0] == len(state["records"]) > 15_000
    assert state["honeypots"][0] and state["leases"]["gateway"]


def test_seed_11_passive_run():
    state = _both(_lab(11, 120.0), telemetry=False)
    assert state["honeypots"][0]


def test_port_scanner_attached_during_the_passive_run():
    state = _both(_lab(7, 60.0, scanner=True), telemetry=False)
    # The scanner's own ``receive`` keeps every frame its NIC takes,
    # every broadcast among them.
    broadcast = [(packet.timestamp, str(packet.frame.src), str(packet.frame.dst))
                 for packet in _frames(state) if packet.frame.is_broadcast]
    assert len(broadcast) > 200
    assert sorted(entry for entry in state["scanner"]
                  if entry[2] == "ff:ff:ff:ff:ff:ff") == sorted(broadcast)


def test_chaos_plan_keeps_full_fan_out():
    state = _both(_lab(7, 60.0, plan=CHAOS_PLAN), telemetry=True)
    faults = state["counters"]["faults_injected_total"]
    assert {sample["labels"]["kind"]: sample["value"] for sample in faults} == state["faults"]
    assert state["faults"].get("flap_drop_rx") or state["faults"].get("port_unresponsive")


def test_apps_stage_with_the_phone_attached():
    def scenario(full):
        testbed = build_testbed(seed=7)
        lan = testbed.lan
        HoneypotFarm.deploy(lan)
        if full:
            _hook_all(lan)
        testbed.run(20.0)
        phone = lan.attach(InstrumentedPhone(rng=random.Random(10)))
        if full:
            phone.add_raw_hook(_ignore)
        results = [phone.run_app(app) for app in generate_app_dataset(seed=8)[:12]]
        return lan, {"apps": results}

    state = _both(scenario, telemetry=True)
    assert any(result.lan_packets_sent for result in state["apps"])
    assert "pixel-3a" in state["rng"]


# -- targeted cases --------------------------------------------------------------------


def _small_lan(count):
    lan = Lan(Simulator())
    nodes = [lan.attach(Node(f"n{index}", f"02:00:00:00:02:{index:02x}",
                             f"192.168.10.{30 + index}")) for index in range(count)]
    return lan, nodes


def _frames(state):
    return [decode_frame(data, timestamp) for timestamp, data in state["records"]]


def test_node_whose_ip_moved_after_attach():
    def scenario(full):
        lan, (asker, moved, _other) = _small_lan(3)
        moved.ip = "192.168.10.130"
        if full:
            _hook_all(lan)
        asker.send_arp_request("192.168.10.130")  # its address now
        asker.send_arp_request("192.168.10.31")  # its address at attach
        return lan, {}

    frames = _frames(_both(scenario, telemetry=True))
    replies = [packet.arp for packet in frames if packet.arp.op is ArpOp.REPLY]
    assert [(reply.sender_ip, str(reply.sender_mac)) for reply in replies] == [
        ("192.168.10.130", "02:00:00:00:02:01")]


def test_handler_and_raw_hook_added_after_attach():
    def scenario(full):
        lan, (asker, server, watcher, _other) = _small_lan(4)
        if full:
            _hook_all(lan)
        server.on_udp(4000, lambda node, packet: node.send_udp(
            packet.src_ip, packet.udp.src_port, b"late", src_port=4000))
        seen = []
        watcher.add_raw_hook(lambda _node, packet: seen.append(
            (str(packet.frame.src), str(packet.frame.dst))))
        asker.send_udp("255.255.255.255", 4000, b"who")
        asker.send_arp_request("192.168.10.99")  # nobody's address
        asker.send_udp("224.0.0.251", 5353, bytes(12))  # no mDNS stack here
        return lan, {"seen": seen}

    state = _both(scenario, telemetry=True)
    frames = _frames(state)
    assert [packet.udp.payload for packet in frames if packet.udp is not None
            and packet.udp.src_port == 4000] == [b"late"]
    # The late hook saw every frame its NIC took, none acted on by a stack.
    asker = "02:00:00:00:02:00"
    assert state["seen"] == [(asker, "ff:ff:ff:ff:ff:ff"), (asker, "ff:ff:ff:ff:ff:ff"),
                             (asker, "01:00:5e:00:00:fb")]


def test_broadcast_arp_reply():
    def scenario(full):
        lan, (sender, target, _other) = _small_lan(3)
        if full:
            _hook_all(lan)
        arp = ArpPacket(ArpOp.REPLY, sender.mac, sender.ip, BROADCAST_MAC, target.ip)
        sender.send_frame(BROADCAST_MAC, int(EtherType.ARP), LazyBytes(arp), arp=arp)
        return lan, {}

    state = _both(scenario, telemetry=True)
    assert state["counts"][0] == 1
    # The NICs took it, though no stack acts on it.
    delivered = state["counters"]["lan_frames_delivered_total"]
    assert [(sample["labels"], sample["value"]) for sample in delivered] == [
        ({"protocol": "arp"}, 1.0)]


def test_broadcast_icmp_echo():
    def scenario(full):
        lan, nodes = _small_lan(5)
        nodes[2].responds_to_ping = False
        if full:
            _hook_all(lan)
        nodes[0].send_icmp_echo(lan.broadcast_address)
        return lan, {}

    frames = _frames(_both(scenario, telemetry=True))
    assert [packet.ipv4.src for packet in frames[1:]] == [
        "192.168.10.31", "192.168.10.33", "192.168.10.34"]


def test_undecodable_mdns_payload_is_logged_as_malformed():
    def scenario(full):
        lan, (sender, _other) = _small_lan(2)
        MdnsHoneypot().attach_to(lan)
        if full:
            _hook_all(lan)
        sender.send_udp("224.0.0.251", 5353, b"\x00\x01garbage")
        return lan, {}

    (log,) = _both(scenario, telemetry=True)["honeypots"]
    assert [(event["summary"], event["malformed"]) for event in log] == [
        ("undecodable mDNS payload", True)]
