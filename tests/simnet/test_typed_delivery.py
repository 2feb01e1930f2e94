"""Typed delivery gate: a packet built from the sender's layers is its decode.

``Node.send_*`` hand ``Lan.transmit`` the unencoded frame and the layers
it is made of, and ``Lan._deliver`` gives receivers a packet made of
them instead of running ``decode_frame`` on the bytes.
:class:`TypedGate` builds each typed frame's bytes as it is sent and
wraps ``_deliver``: for every delivery that carries layers it compares
the packet receivers got with ``decode_frame`` of those bytes, recursing
into the layer dataclasses and requiring ``type(a) is type(b)`` and
equality at every leaf.  After the run it compares every kept packet
again, so a stack or hook that changes a layer it shares fails too; a
typed frame's bytes are built from its layers when first read, so that
rule guards the bytes as well.

Three corpora: a lab run with passive traffic, apps and a port-scanner
sweep; the lab under ``examples/fault_plans/chaos.json``; and a plan
that truncates, corrupts and mutates so often that most frames air
damaged.  Every frame the fault layer changed must have been decoded.
A last leg sweeps with nothing reading bytes and checks that no typed
frame was encoded.
"""

import dataclasses
import random
from pathlib import Path

from repro.apps.dataset import generate_app_dataset
from repro.apps.runtime import InstrumentedPhone
from repro.devices.behaviors import build_testbed
from repro.faults import FaultInjector, FaultPlan
from repro.net.decode import decode_frame
from repro.net.ether import EthernetFrame
from repro.net.icmp import IcmpType
from repro.net.ipv4 import IpProtocol, Ipv4Packet
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.scan.portscan import PortScanner
from repro.simnet import lan as lan_module
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceInfo, ServiceTable
from repro.simnet.simulator import Simulator
from tests.conftest import DAMAGE_PLAN

CHAOS_PLAN = Path(__file__).parents[2] / "examples" / "fault_plans" / "chaos.json"


def mismatch(built, decoded, path="packet"):
    """The first field path where ``built`` and ``decoded`` differ in
    type or value, or ``None`` when they are the same at every leaf."""
    if type(built) is not type(decoded):
        return f"{path}: {type(built).__name__} vs {type(decoded).__name__}"
    if dataclasses.is_dataclass(built):
        for field in dataclasses.fields(built):
            found = mismatch(getattr(built, field.name), getattr(decoded, field.name),
                             f"{path}.{field.name}")
            if found:
                return found
        return None
    if built != decoded:
        return f"{path}: {built!r} != {decoded!r}"
    return None


class TypedGate:
    """Checks every typed delivery against the decode of its bytes."""

    def __init__(self, monkeypatch):
        self.deliveries = 0
        self.decodes = 0
        self.kept = []          # (typed packet, its decode), in delivery order
        self.changed = []       # bytes of deliveries the fault layer changed
        self.changed_typed = 0
        self.delayed_typed = 0
        self.duplicated_typed = 0
        self.untyped_kinds = set()  # kinds of unchanged frames sent raw
        # id(object on the air) -> (that object, its bytes as sent,
        # sent at, sent with layers)
        self._sent = {}
        self._delivered = set()
        self._built = []
        transmit, deliver = Lan.transmit, Lan._deliver
        fault_transmit = FaultInjector.transmit
        built_packet = lan_module.DecodedPacket
        decode = lan_module.decode_frame
        gate = self

        def recording_transmit(lan, sender, frame, layers=None):
            # A typed frame reaches the LAN unencoded.  Its bytes are
            # built here, as it is sent, so that a layer changed later
            # no longer matches their decode.
            data = frame if layers is None else frame.encode()
            gate._sent[id(frame)] = (frame, data, lan.simulator.now, layers is not None)
            transmit(lan, sender, frame, layers)

        def recording_fault_transmit(injector, sender, frame_bytes, layers=None):
            # The fault layer works on bytes.  A raw frame's are the
            # ones its sender made; a typed frame's were just built by
            # the LAN, and they are the object that airs unchanged.
            if layers is None:
                assert gate._sent[id(frame_bytes)][0] is frame_bytes
            else:
                _frame, data, sent_at, _typed = gate._sent[id(layers["frame"])]
                assert frame_bytes == data
                gate._sent[id(frame_bytes)] = (frame_bytes, data, sent_at, True)
            fault_transmit(injector, sender, frame_bytes, layers)

        def counting_decode(data, timestamp=0.0, errors=None):
            gate.decodes += 1
            return decode(data, timestamp, errors)

        def recording_packet(*args, **kwargs):
            packet = built_packet(*args, **kwargs)
            gate._built.append(packet)
            return packet

        def gated_deliver(lan, sender, frame, layers=None):
            now = lan.simulator.now
            mark = len(gate._built)
            deliver(lan, sender, frame, layers)
            gate._check(frame, now, layers, mark)

        monkeypatch.setattr(Lan, "transmit", recording_transmit)
        monkeypatch.setattr(FaultInjector, "transmit", recording_fault_transmit)
        monkeypatch.setattr(Lan, "_deliver", gated_deliver)
        monkeypatch.setattr(lan_module, "DecodedPacket", recording_packet)
        monkeypatch.setattr(lan_module, "decode_frame", counting_decode)

    def _check(self, delivered, now, layers, mark):
        self.deliveries += 1
        sent = self._sent.get(id(delivered))
        if sent is None or sent[0] is not delivered:
            # Not the object that went on the air: the fault layer
            # changed it.
            self.changed.append(delivered)
            self.changed_typed += layers is not None
            return
        _object, data, sent_at, sent_typed = sent
        # Unchanged frames keep their layers, delayed or duplicated.
        assert (layers is not None) == sent_typed
        if layers is None:
            self.untyped_kinds.add(_frame_kind(decode_frame(data)))
            return
        # _deliver built the packet before fanning out, ahead of any
        # packet built by a reply sent from inside a receiver.
        packet = self._built[mark]
        expected = decode_frame(data, now)
        found = mismatch(packet, expected)
        assert found is None, found
        self.kept.append((packet, expected))
        self.delayed_typed += now != sent_at
        self.duplicated_typed += id(delivered) in self._delivered
        self._delivered.add(id(delivered))

    @property
    def typed(self):
        return len(self.kept)

    def finish(self):
        """Check the kept packets again, after the run changed nothing."""
        for packet, expected in self.kept:
            found = mismatch(packet, expected)
            assert found is None, f"changed after delivery: {found}"
        # Each delivery built its own packet.
        assert len({id(packet) for packet, _ in self.kept}) == len(self.kept)
        assert self.decodes == self.deliveries - self.typed
        assert self.changed_typed == 0


def _frame_kind(packet):
    if packet.ipv6 is not None:
        return "ipv6"
    if packet.tcp is not None:
        tcp = packet.tcp
        if tcp.is_synack:
            return "syn-ack"
        if tcp.is_syn:
            return "syn"
        if tcp.is_rst:
            return "rst"
        return "tcp"
    if packet.udp is not None:
        return "udp-probe" if packet.udp.payload == bytes(8) else "udp"
    if packet.icmp is not None:
        return {IcmpType.DEST_UNREACHABLE: "icmp-unreachable",
                IcmpType.ECHO_REQUEST: "echo-request",
                IcmpType.ECHO_REPLY: "echo-reply"}.get(packet.icmp.icmp_type, "icmp")
    if packet.arp is not None:
        return "arp"
    if packet.igmp is not None:
        return "igmp"
    if packet.eapol is not None:
        return "eapol"
    return "other"


def _lab(plan=None, seconds=60.0):
    testbed = build_testbed(seed=7)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, seed=7).install(testbed.lan)
    testbed.run(seconds)
    return testbed, injector


def _sweep(testbed, scanner, targets, ports):
    """Scan ``targets`` devices that answer SYN, UDP and echo probes
    (most lab devices answer none), over ``ports`` plus their open ones."""
    responsive = [node for node in testbed.devices
                  if node.responds_to_tcp_scan and node.services.open_ports("tcp")
                  and node.udp_closed_behavior == "icmp" and node.responds_to_ping]
    chosen = responsive[:targets]
    tcp_ports = sorted(set(ports).union(*(node.services.open_ports("tcp") for node in chosen)))
    testbed.lan.attach(scanner)
    report = scanner.sweep(targets=chosen, tcp_ports=tcp_ports, udp_ports=ports)
    testbed.lan.detach(scanner)
    return report


def test_lab_scan_and_apps(monkeypatch):
    gate = TypedGate(monkeypatch)
    testbed, _ = _lab()
    lan = testbed.lan
    report = _sweep(testbed, PortScanner(), 3, range(1, 100))
    assert report.tcp_responders == report.udp_responders == 3
    phone = lan.attach(InstrumentedPhone(rng=random.Random(10)))
    for app in generate_app_dataset(seed=8)[:6]:
        phone.run_app(app)
    gate.finish()
    kinds = {_frame_kind(packet) for packet, _ in gate.kept}
    for kind in ("syn", "syn-ack", "rst", "udp-probe", "udp", "icmp-unreachable",
                 "echo-request", "echo-reply", "arp"):
        assert kind in kinds, (kind, kinds)
    assert not gate.changed
    # Only the stacks' IPv6, IGMP, EAPOL and LLC frames go out raw.
    assert gate.untyped_kinds == {"ipv6", "igmp", "eapol", "other"}


def test_chaos_plan(monkeypatch):
    gate = TypedGate(monkeypatch)
    testbed, injector = _lab(FaultPlan.load(CHAOS_PLAN), seconds=120.0)
    _sweep(testbed, PortScanner(max_retries=2, wait_for_replies=True), 2, range(1, 60))
    gate.finish()
    counts = injector.counts
    for kind in ("truncate", "corrupt", "mutate_discovery", "delay", "duplicate"):
        assert counts.get(kind), (kind, counts)
    assert gate.changed and gate.typed
    assert gate.delayed_typed and gate.duplicated_typed


def test_damaging_plan_decodes_every_changed_frame(monkeypatch):
    plan = FaultPlan.from_dict(DAMAGE_PLAN)
    gate = TypedGate(monkeypatch)
    testbed, injector = _lab(plan)
    _sweep(testbed, PortScanner(max_retries=2, wait_for_replies=True), 2, range(1, 40))
    gate.finish()
    for kind in ("truncate", "corrupt", "mutate_discovery"):
        assert injector.counts.get(kind), (kind, injector.counts)
    # About half the frames air damaged; finish() checked that every one
    # of them was decoded and none carried layers.
    assert len(gate.changed) > gate.deliveries / 3
    assert gate.typed > gate.deliveries / 4


def test_layers_that_do_not_round_trip_go_out_raw(monkeypatch):
    """A segment whose ``seq``/``ack`` ``encode`` masks, a ``bytearray``
    payload or an enum port would differ from its decode, so the frame
    goes out without layers and is decoded on delivery."""
    gate = TypedGate(monkeypatch)
    lan = Lan(Simulator())
    client = lan.attach(Node("client", "02:aa:00:00:00:01", "192.168.10.21"))
    server = lan.attach(Node("server", "02:aa:00:00:00:02", "192.168.10.22",
                             services=ServiceTable([ServiceInfo(80, "tcp", "http")])))
    # Typed SYN; its SYN/ACK acks 2**32, which encode masks to 0.
    client.send_tcp_segment(server.ip, TcpSegment(49152, 80, seq=0xFFFFFFFF, flags=TcpFlags.SYN))
    # Raw SYN (seq 2**32 + 5 airs as 5); its SYN/ACK is typed.
    client.send_tcp_segment(server.ip, TcpSegment(49153, 80, seq=2**32 + 5, flags=TcpFlags.SYN))
    client.send_tcp_segment(server.ip, TcpSegment(49154, 80, seq=1, flags=TcpFlags.ACK,
                                                  payload=bytearray(b"x")))
    # Raw datagrams to closed ports; each ICMP unreachable is typed.
    client.send_udp(server.ip, 9, bytearray(b"x"))
    client.send_udp(server.ip, IpProtocol.UDP, b"x")
    gate.finish()
    assert (gate.deliveries, gate.typed, gate.decodes) == (9, 4, 5)
    typed_tcp = [(packet.tcp.seq, packet.tcp.ack) for packet, _ in gate.kept if packet.tcp]
    assert typed_tcp == [(0xFFFFFFFF, 0), (1000, 6)]


def test_bytes_off_sweep_encodes_no_typed_frame(monkeypatch):
    """With ``keep_bytes=False``, no frame tap and no injector, nothing
    reads a typed frame's bytes during a sweep on the wire: only raw
    frames are encoded, by their senders.  Each packet receivers got
    still equals the decode of the bytes built from it afterwards.  A
    no-op raw hook on every device keeps the probes on the wire; without
    one, the targets' stacks answer them and no frame is built at all."""
    testbed, _ = _lab()
    lan = testbed.lan
    lan.capture.keep_bytes = False
    assert not lan.capture.frame_taps and lan.injector is None
    for node in testbed.devices:
        node.add_raw_hook(lambda _node, _packet: None)
    encoded, raw, typed = [], [], []
    encode, transmit = EthernetFrame.encode, Lan.transmit
    built_packet = lan_module.DecodedPacket

    def recording_encode(frame):
        encoded.append(frame)
        return encode(frame)

    def recording_transmit(lan, sender, frame, layers=None):
        if layers is None:
            raw.append(frame)
        transmit(lan, sender, frame, layers)

    def recording_packet(*args, **kwargs):
        packet = built_packet(*args, **kwargs)
        typed.append(packet)
        return packet

    monkeypatch.setattr(EthernetFrame, "encode", recording_encode)
    monkeypatch.setattr(Lan, "transmit", recording_transmit)
    monkeypatch.setattr(lan_module, "DecodedPacket", recording_packet)
    frames_before = lan.capture.packet_count
    report = _sweep(testbed, PortScanner(), 3, range(1, 100))
    # The sweep sends no ARP; both ARP helpers run here, with replies.
    asker, target = testbed.devices[:2]
    asker.send_arp_request(target.ip)
    asker.send_arp_request(target.ip, unicast_to=target.mac)
    monkeypatch.undo()
    assert report.tcp_responders == report.udp_responders == 3
    assert lan.capture.packet_count - frames_before == len(raw) + len(typed)
    typed_frames = {id(packet.frame) for packet in typed}
    assert not [frame for frame in encoded if id(frame) in typed_frames]
    assert len(encoded) == len(raw)
    kinds = {_frame_kind(packet) for packet in typed}
    for kind in ("syn", "syn-ack", "rst", "udp-probe", "icmp-unreachable",
                 "echo-request", "echo-reply", "arp"):
        assert kind in kinds, (kind, kinds)
    assert sum(packet.arp is not None for packet in typed) >= 3
    for packet in typed:
        found = mismatch(packet, decode_frame(packet.frame.encode(), packet.timestamp))
        assert found is None, found


def test_mismatch_sees_type_and_nested_value():
    datagram = UdpDatagram(49152, 53, b"query")
    ip = Ipv4Packet("192.168.10.21", "192.168.10.22", 17,
                    datagram.encode("192.168.10.21", "192.168.10.22"))
    frame = EthernetFrame("02:aa:00:00:00:02", "02:aa:00:00:00:01", 0x0800, ip.encode())
    packet = decode_frame(frame.encode(), 1.0)
    assert mismatch(decode_frame(frame.encode(), 1.0), packet) is None
    enum_protocol = dataclasses.replace(
        packet, ipv4=dataclasses.replace(packet.ipv4, protocol=IpProtocol.UDP))
    assert mismatch(enum_protocol, packet).startswith("packet.ipv4.protocol: IpProtocol vs int")
    other_port = dataclasses.replace(packet, udp=dataclasses.replace(packet.udp, dst_port=54))
    assert mismatch(other_port, packet).startswith("packet.udp.dst_port: 54 != 53")
