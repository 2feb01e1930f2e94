"""The sweep's stack answers against the wire.

Where nothing but the scanner's and the target's stacks can see a probe,
the target's reply rule answers it and the LAN counts the frames the
wire would have carried (``repro.scan.portscan``).  Each test runs the
same sweep on two fresh, identical labs; on one, the capture gets a
no-op frame tap, which puts every probe on the wire.  Both must agree
on the report, the capture's counts, the scanner's probe, retry and
ephemeral-port counters and silence streaks, every node's ephemeral
port, and, with telemetry on, every counter's samples.

Corpora: the seed-7 lab with telemetry on, the seed-11 lab with it off,
a ``chaos.json`` lab (both sides on the wire), and hypothesis-drawn
targets: open TCP/UDP ports in and above the ephemeral range, scan
flags, UDP handlers, a raw hook, a detached ghost and a node whose IP
moved, under scanners with and without retries and waits.
"""

import dataclasses
from contextlib import nullcontext
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.devices.behaviors import build_testbed
from repro.faults import FaultInjector, FaultPlan
from repro.obs import enable_observability, use_obs
from repro.scan.portscan import PortScanner
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceInfo, ServiceTable
from repro.simnet.simulator import Simulator

CHAOS_PLAN = Path(__file__).parents[2] / "examples" / "fault_plans" / "chaos.json"


def _sweep_state(make_lab, wire, telemetry, scanner=PortScanner, **sweep):
    """Build a lab with ``make_lab() -> (lan, targets)``, sweep it, and
    return everything the two paths must agree on."""
    obs = enable_observability() if telemetry else None
    with use_obs(obs) if telemetry else nullcontext():
        lan, targets = make_lab()
        if wire:
            lan.capture.frame_taps.append(lambda timestamp, frame: None)
        scan = lan.attach(scanner())
        answered = [scan._stack_answers(target) is not None for target in targets]
        report = scan.sweep(targets=targets, **sweep)
    state = {
        "report": dataclasses.asdict(report),
        "capture": (lan.capture.packet_count, lan.capture.byte_count),
        "scanner": (scan.probes_sent, scan.retries_used, scan._next_ephemeral),
        "streaks": {node.name: streak for node, streak in scan._silence_streaks.items()},
        "ephemeral": {node.name: node._next_ephemeral for node in [*lan.nodes, *targets]},
        "now": lan.simulator.now,
    }
    if telemetry:
        state["counters"] = {name: entry["samples"]
                             for name, entry in obs.metrics.to_dict().items()
                             if entry["type"] == "counter"}
    if lan.injector is not None:
        state["faults"] = dict(lan.injector.counts)
    return state, answered


def _both(make_lab, telemetry, **kwargs):
    stack, stack_answered = _sweep_state(make_lab, False, telemetry, **kwargs)
    wire, wire_answered = _sweep_state(make_lab, True, telemetry, **kwargs)
    assert not any(wire_answered)
    assert stack == wire
    return stack, stack_answered


def _seed_lab(seed, seconds=30.0):
    def make():
        testbed = build_testbed(seed=seed)
        testbed.run(seconds)
        testbed.lan.capture.keep_bytes = False
        return testbed.lan, testbed.devices
    return make


def test_seed_7_lab_with_telemetry():
    state, answered = _both(_seed_lab(7), telemetry=True)
    assert all(answered)
    counters = state["counters"]
    observed = sum(s["value"] for s in counters["capture_frames_observed_total"])
    delivered = sum(s["value"] for s in counters["lan_frames_delivered_total"])
    dropped = sum(s["value"] for s in counters["lan_frames_dropped_total"])
    assert observed == delivered + dropped == state["capture"][0]
    kinds = {sample["labels"]["kind"] for sample in counters["scan_probes_total"]}
    assert kinds == {"tcp", "udp", "icmp"}


def test_seed_11_lab():
    state, answered = _both(_seed_lab(11, seconds=10.0), telemetry=False)
    assert all(answered)
    assert state["report"]["hosts"]


def test_chaos_lab_stays_on_the_wire():
    def make():
        testbed = build_testbed(seed=7)
        FaultInjector(FaultPlan.load(CHAOS_PLAN), seed=7).install(testbed.lan)
        testbed.run(20.0)
        testbed.lan.capture.keep_bytes = False
        return testbed.lan, testbed.devices[:12]

    def scanner():
        return PortScanner(max_retries=2, wait_for_replies=True)

    state, answered = _both(make, telemetry=True, scanner=scanner,
                            tcp_ports=list(range(1, 120)), udp_ports=list(range(1, 60)))
    assert not any(answered)
    faults = state["counters"]["faults_injected_total"]
    assert {sample["labels"]["kind"]: sample["value"] for sample in faults} == state["faults"]
    assert state["scanner"][1] > 0  # the plan made the scanner retry


# -- hypothesis-drawn targets ---------------------------------------------------------

TCP_PORTS = [1, 22, 80, 443, 8080, 9999, 49152, 50000, 65535]
UDP_PORTS = [1, 53, 67, 123, 1900, 5353, 6666, 49152, 50000, 65535]

targets = st.lists(
    st.fixed_dictionaries({
        "tcp_open": st.sets(st.sampled_from(TCP_PORTS), max_size=4),
        "udp_open": st.sets(st.sampled_from(UDP_PORTS), max_size=4),
        "responds_to_tcp_scan": st.booleans(),
        "udp_closed_behavior": st.sampled_from(["icmp", "drop"]),
        "responds_to_ping": st.booleans(),
        # Handlers: a sink, one that answers from its port, and one that
        # answers from an ephemeral port of its own.
        "handlers": st.dictionaries(st.sampled_from(UDP_PORTS),
                                    st.sampled_from(["sink", "echo", "ephemeral"]),
                                    max_size=3),
        "raw_hook": st.booleans(),
        "placement": st.sampled_from(["attached", "attached", "attached", "ghost", "moved"]),
    }),
    min_size=1, max_size=4,
)


def _handler(kind):
    def handle(node, packet):
        if kind == "echo":
            node.send_udp(packet.src_ip, packet.udp.src_port, b"echo",
                          src_port=packet.udp.dst_port)
        elif kind == "ephemeral":
            node.send_udp(packet.src_ip, packet.udp.src_port, b"reply")
    return handle


def _drawn_lab(specs):
    def make():
        lan = Lan(Simulator())
        lan.capture.keep_bytes = False
        nodes = []
        for index, spec in enumerate(specs):
            services = [ServiceInfo(port, "tcp", "svc") for port in sorted(spec["tcp_open"])]
            services += [ServiceInfo(port, "udp", "svc") for port in sorted(spec["udp_open"])]
            node = lan.attach(Node(f"node-{index}", f"02:00:00:00:01:{index:02x}",
                                   f"192.168.10.{20 + index}", services=ServiceTable(services)))
            node.responds_to_tcp_scan = spec["responds_to_tcp_scan"]
            node.udp_closed_behavior = spec["udp_closed_behavior"]
            node.responds_to_ping = spec["responds_to_ping"]
            for port, kind in sorted(spec["handlers"].items()):
                node.on_udp(port, _handler(kind))
            if spec["raw_hook"]:
                node.add_raw_hook(lambda _node, _packet: None)
            if spec["placement"] == "ghost":
                lan.detach(node)
            elif spec["placement"] == "moved":
                node.ip = f"192.168.10.{120 + index}"
            nodes.append(node)
        return lan, nodes
    return make


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs=targets, retries=st.sampled_from([0, 2]), wait=st.booleans(),
       telemetry=st.booleans())
def test_drawn_targets(specs, retries, wait, telemetry):
    def scanner():
        return PortScanner(max_retries=retries, wait_for_replies=wait)

    _state, answered = _both(
        _drawn_lab(specs), telemetry, scanner=scanner,
        tcp_ports=TCP_PORTS + [2, 3], udp_ports=UDP_PORTS + [2, 3])
    for spec, stack in zip(specs, answered):
        assert stack == (spec["placement"] == "attached" and not spec["raw_hook"])
