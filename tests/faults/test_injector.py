"""FaultInjector behaviour: determinism, fault kinds, receiver faults."""

import pytest

from repro.faults import EMPTY_PLAN, FaultInjector, FaultPlan
from repro.net.ether import EthernetFrame
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceInfo, ServiceTable
from repro.simnet.simulator import Simulator


def _pair():
    simulator = Simulator()
    lan = Lan(simulator)
    client = lan.attach(Node("client", "02:aa:00:00:00:01", "192.168.10.21"))
    server = lan.attach(
        Node("server", "02:aa:00:00:00:02", "192.168.10.22",
             services=ServiceTable([
                 ServiceInfo(80, "tcp", "http", "HTTP/1.1 200 OK", "httpd", "1.0"),
             ])))
    return simulator, lan, client, server


def _chatter(lan, client, server, frames=400):
    """One multicast datagram per tick: no receivers, so no reply traffic
    muddies the 1:1 mapping between sends and captured frames."""
    simulator = lan.simulator
    for index in range(frames):
        simulator.schedule(
            0.01 * index,
            lambda i=index: client.send_udp("239.10.10.10", 9000, b"payload-%d" % i))
    simulator.run(until=frames * 0.01 + 1.0)


LOSSY = FaultPlan.from_dict({
    "name": "lossy",
    "links": [{"src": "*", "dst": "*", "loss": 0.2, "duplicate": 0.1,
               "truncate": 0.1, "corrupt": 0.1,
               "delay": {"probability": 0.1}}],
})


class TestEquivalence:
    def test_empty_plan_injector_is_inert(self):
        """Zero-fault equivalence: EMPTY_PLAN == no injector, byte for byte."""
        runs = []
        for plan in (None, EMPTY_PLAN):
            simulator, lan, client, server = _pair()
            if plan is not None:
                FaultInjector(plan, seed=7).install(lan)
            _chatter(lan, client, server)
            runs.append(list(lan.capture.records))
        assert runs[0] == runs[1]

    def test_empty_plan_counts_nothing(self):
        injector = FaultInjector(EMPTY_PLAN, seed=7)
        assert not injector.active
        assert injector.summary()["total"] == 0


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        captures, counters = [], []
        for _ in range(2):
            simulator, lan, client, server = _pair()
            injector = FaultInjector(LOSSY, seed=42).install(lan)
            _chatter(lan, client, server)
            captures.append(list(lan.capture.records))
            counters.append(dict(injector.counts))
        assert captures[0] == captures[1]
        assert counters[0] == counters[1]
        assert sum(counters[0].values()) > 0

    def test_different_seed_different_schedule(self):
        counters = []
        for seed in (1, 2):
            simulator, lan, client, server = _pair()
            injector = FaultInjector(LOSSY, seed=seed).install(lan)
            _chatter(lan, client, server)
            counters.append(dict(injector.counts))
        assert counters[0] != counters[1]

    def test_seed_salt_changes_schedule(self):
        counters = []
        for salt in (0, 1):
            plan = FaultPlan.from_dict({
                "name": "lossy", "seed_salt": salt,
                "links": [{"loss": 0.2}],
            })
            simulator, lan, client, server = _pair()
            injector = FaultInjector(plan, seed=7).install(lan)
            _chatter(lan, client, server)
            counters.append(dict(injector.counts))
        assert counters[0] != counters[1]


class TestFaultKinds:
    def test_loss_removes_frames_from_capture(self):
        simulator, lan, client, server = _pair()
        injector = FaultInjector(
            FaultPlan.from_dict({"links": [{"loss": 0.5}]}), seed=7).install(lan)
        _chatter(lan, client, server, frames=200)
        assert injector.counts["loss"] > 0
        assert lan.capture.packet_count == 200 - injector.counts["loss"]

    def test_duplicates_add_frames_to_capture(self):
        simulator, lan, client, server = _pair()
        injector = FaultInjector(
            FaultPlan.from_dict({"links": [{"duplicate": 0.5}]}), seed=7).install(lan)
        _chatter(lan, client, server, frames=200)
        assert injector.counts["duplicate"] > 0
        assert lan.capture.packet_count == 200 + injector.counts["duplicate"]

    def test_truncation_quarantines_malformed_frames(self):
        simulator, lan, client, server = _pair()
        injector = FaultInjector(
            FaultPlan.from_dict({"links": [{"truncate": 0.6}]}), seed=7).install(lan)
        _chatter(lan, client, server, frames=200)
        assert injector.counts["truncate"] > 0
        packets = lan.capture.table().packets()
        assert len(packets) == 200  # every frame decodes, damaged or not
        # Deep truncation lands in the quarantine; shallow cuts may still
        # parse (payload-only loss), so quarantine <= truncations.
        assert len(lan.capture.decode_errors) <= injector.counts["truncate"]
        assert any(packet.is_malformed for packet in packets)

    def test_delay_reorders_capture_timestamps(self):
        simulator, lan, client, server = _pair()
        injector = FaultInjector(
            FaultPlan.from_dict({"links": [{"delay": {
                "probability": 0.3, "min_seconds": 0.05, "max_seconds": 0.2}}]}),
            seed=7).install(lan)
        _chatter(lan, client, server, frames=100)
        assert injector.counts["delay"] > 0
        # Capture stays chronologically ordered (frames air at their
        # delayed time), but payload order differs from send order.
        stamps = [timestamp for timestamp, _ in lan.capture.records]
        assert stamps == sorted(stamps)
        payloads = [data[-12:] for _, data in lan.capture.records]
        assert payloads != sorted(payloads, key=lambda raw: int(raw.split(b"-")[-1]))

    def test_link_pattern_scopes_faults(self):
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict(
            {"links": [{"src": "server", "dst": "*", "loss": 1.0}]})
        FaultInjector(plan, seed=7).install(lan)
        _chatter(lan, client, server, frames=50)  # client->server unaffected
        assert lan.capture.packet_count == 50

    def test_discovery_mutation_targets_discovery_ports_only(self):
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict(
            {"discovery": {"probability": 1.0, "protocols": ["mdns"]}})
        injector = FaultInjector(plan, seed=7).install(lan)
        client.send_udp(server.ip, 9000, b"not-discovery")
        assert injector.counts.get("mutate_discovery", 0) == 0
        client.send_udp("224.0.0.251", 5353, b"\x00\x00\x84\x00" + b"\x00" * 20,
                        src_port=5353)
        assert injector.counts["mutate_discovery"] == 1


class TestReceiverFaults:
    def test_flapped_sender_goes_off_air(self):
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict(
            {"flaps": [{"device": "client", "start": 1.0, "duration": 2.0}]})
        injector = FaultInjector(plan, seed=7).install(lan)
        received = []
        server.add_raw_hook(lambda _node, packet: received.append(packet.timestamp))
        # Link-local multicast reaches every stack without triggering
        # unicast replies, so frame counts stay exact.
        for at in (0.5, 1.5, 2.5, 3.5):
            simulator.schedule(at, lambda: client.send_udp("224.0.0.99", 9000, b"x"))
        simulator.run(until=5.0)
        assert received == [0.5, 3.5]
        assert injector.counts["flap_drop_tx"] == 2
        # Down devices transmit nothing, so the capture misses those too.
        assert lan.capture.packet_count == 2

    def test_flapped_receiver_misses_delivery_but_capture_sees_frame(self):
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict(
            {"flaps": [{"device": "server", "start": 0.0, "duration": 10.0}]})
        injector = FaultInjector(plan, seed=7).install(lan)
        received = []
        server.add_raw_hook(lambda _node, packet: received.append(packet))
        client.send_udp(server.ip, 9000, b"x")
        assert received == []
        assert injector.counts["flap_drop_rx"] == 1
        assert lan.capture.packet_count == 1  # the AP still saw it

    def test_unresponsive_port_eats_delivery(self):
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict({"unresponsive_ports": [
            {"device": "server", "transport": "udp", "port": 9000}]})
        injector = FaultInjector(plan, seed=7).install(lan)
        received = []
        server.add_raw_hook(lambda _node, packet: received.append(packet))
        client.send_udp(server.ip, 9000, b"x")
        client.send_udp(server.ip, 9001, b"y")
        assert len(received) == 1  # only the un-filtered port got through
        assert injector.counts["port_unresponsive"] == 1

    def test_tcp_exchange_aborts_against_down_server(self):
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict(
            {"flaps": [{"device": "server", "start": 0.0, "duration": 100.0}]})
        FaultInjector(plan, seed=7).install(lan)
        before = lan.capture.packet_count
        result = lan.tcp_exchange(client, server, 80, [b"GET /"], [b"200 OK"])
        simulator.run(until=10.0)
        assert result is None
        # Only the half-open SYN aired: no handshake, data, or FIN.
        assert lan.capture.packet_count == before + 1


class TestDecodeOnce:
    def test_only_raw_and_changed_frames_are_decoded(self, monkeypatch):
        """Lost, off-air and delayed frames are not decoded on transmit,
        and a frame that airs as its sender encoded it reaches receivers
        as the layers it was built from.  So the decodes are exactly the
        deliveries without layers: raw frames, and frames whose bytes the
        injector changed, one decode per delivery."""
        decoded, sent, delivered = [], set(), []
        decode = EthernetFrame.decode
        transmit, deliver = Lan.transmit, Lan._deliver

        def counting_decode(cls, data):
            decoded.append(data)
            return decode(data)

        def recording_transmit(lan, sender, frame, layers=None):
            # A typed frame reaches the LAN unencoded; the bytes built
            # here are the ones it airs.
            sent.add(frame if layers is None else frame.encode())
            transmit(lan, sender, frame, layers)

        def counting_deliver(lan, sender, frame_bytes, layers=None):
            delivered.append((frame_bytes, layers is not None))
            deliver(lan, sender, frame_bytes, layers)

        # Every decode_frame call starts with EthernetFrame.decode,
        # whichever module calls it.
        monkeypatch.setattr(EthernetFrame, "decode", classmethod(counting_decode))
        monkeypatch.setattr(Lan, "transmit", recording_transmit)
        monkeypatch.setattr(Lan, "_deliver", counting_deliver)
        simulator, lan, client, server = _pair()
        plan = FaultPlan.from_dict({
            "links": [{"loss": 0.2, "duplicate": 0.1, "truncate": 0.1,
                       "delay": {"probability": 0.2}}],
            "flaps": [{"device": "client", "start": 1.0, "duration": 0.5}],
        })
        injector = FaultInjector(plan, seed=7).install(lan)
        # IPv6 frames go out raw: they carry no layers, changed or not.
        for index in range(40):
            simulator.schedule(0.1 * index + 0.005,
                               lambda: server.send_udp6("ff02::fb", 5353, b"raw"))
        _chatter(lan, client, server)
        for kind in ("loss", "flap_drop_tx", "delay", "duplicate", "truncate"):
            assert injector.counts[kind] > 0, (kind, injector.counts)
        untyped = [data for data, typed in delivered if not typed]
        assert decoded == untyped
        changed = [typed for data, typed in delivered if data not in sent]
        assert changed and not any(changed)
        # Of the frames that aired as sent, only the raw ones are decoded.
        raw = [data for data in untyped if data in sent]
        assert raw and all(data[12:14] == b"\x86\xdd" for data in raw)
        assert len(untyped) < len(delivered) == lan.capture.packet_count
