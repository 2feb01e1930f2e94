"""The capture counts every frame, and builds bytes only for its readers.

A typed frame reaches ``ApCapture.observe`` unencoded; the capture
encodes it only when it keeps bytes or has a frame tap, and otherwise
takes its length from the layers.  Whichever way a run is captured, its
counts are the same, and a deferred frame is indistinguishable from one
built eagerly wherever its bytes are looked at.
"""

import dataclasses
import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.behaviors import build_testbed
from repro.net.ether import EthernetFrame
from repro.net.icmp import IcmpMessage
from repro.net.ipv4 import Ipv4Packet, LazyBytes
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.scan.portscan import PortScanner
from tests.simnet.test_typed_delivery import _sweep


def _captured_lab(keep_bytes, tap=None):
    """A seed-7 lab run with a short sweep, captured as asked."""
    testbed = build_testbed(seed=7)
    capture = testbed.lan.capture
    assert capture.packet_count == 0
    capture.keep_bytes = keep_bytes
    if tap is not None:
        capture.frame_taps.append(tap)
    testbed.run(20.0)
    _sweep(testbed, PortScanner(), 2, range(1, 50))
    return capture


def test_kept_tapped_and_counted_runs_agree():
    kept = _captured_lab(keep_bytes=True)
    tapped_records = []
    tapped = _captured_lab(keep_bytes=False,
                           tap=lambda timestamp, data: tapped_records.append((timestamp, data)))
    counted = _captured_lab(keep_bytes=False)
    records = list(kept.records)
    assert records == tapped_records
    assert all(type(data) is bytes for _timestamp, data in records)
    assert tapped.records == counted.records == []
    expected = (len(records), sum(len(data) for _timestamp, data in records))
    for capture in (kept, tapped, counted):
        assert (capture.packet_count, capture.byte_count) == expected


def test_scan_lab_capture_counts():
    """``repro scan --seed 7``'s lab: its 30 s run, kept, then the sweep,
    counted without bytes."""
    testbed = build_testbed(seed=7)
    testbed.run(30.0)
    scanner = PortScanner()
    testbed.lan.attach(scanner)
    capture = testbed.lan.capture
    capture.keep_bytes = False
    scanner.sweep(targets=testbed.devices)
    assert (capture.packet_count, capture.byte_count) == (316_763, 16_702_026)
    assert len(capture.records) == 1_738


def test_deferral_adds_no_dataclass_field():
    assert [field.name for field in dataclasses.fields(EthernetFrame)] == [
        "dst", "src", "ethertype", "payload"]
    assert [field.name for field in dataclasses.fields(Ipv4Packet)] == [
        "src", "dst", "protocol", "payload", "ttl", "identification", "dscp"]


ports = st.integers(0, 0xFFFF)
words = st.integers(0, 0xFFFFFFFF)
# Sizes drawn evenly: ``st.binary`` alone seldom reaches a full frame.
payloads = st.integers(0, 1472).flatmap(lambda size: st.binary(min_size=size, max_size=size))
addresses = words.map(lambda value: str(ipaddress.IPv4Address(value)))
transports = st.one_of(
    st.builds(TcpSegment, ports, ports, seq=words, ack=words,
              flags=st.integers(0, 0x3F).map(TcpFlags), payload=payloads),
    st.builds(UdpDatagram, ports, ports, payload=payloads),
    st.builds(IcmpMessage, st.integers(0, 255), st.integers(0, 255), body=payloads),
)
PROTOCOLS = {TcpSegment: 6, UdpDatagram: 17, IcmpMessage: 1}
DST_MAC, SRC_MAC = "02:aa:00:00:00:02", "02:aa:00:00:00:01"

OBSERVERS = {
    "payload": lambda layer: layer.payload,
    "len": len,
    "repr": repr,
    "asdict": dataclasses.asdict,
    "replace": lambda layer: dataclasses.replace(layer),
}


@settings(max_examples=150, deadline=None)
@given(transport=transports, src=addresses, dst=addresses, ttl=st.integers(0, 255))
def test_deferred_layers_equal_eager_ones(transport, src, dst, ttl):
    protocol = PROTOCOLS[type(transport)]
    args = () if protocol == 1 else (src, dst)
    eager_ip = Ipv4Packet(src, dst, protocol, transport.encode(*args), ttl=ttl)
    eager = EthernetFrame(DST_MAC, SRC_MAC, 0x0800, eager_ip.encode())

    def deferred():
        ip = Ipv4Packet(src, dst, protocol, LazyBytes(transport, *args), ttl=ttl)
        return ip, EthernetFrame(DST_MAC, SRC_MAC, 0x0800, LazyBytes(ip))

    # A fresh pair for each observer, so that each one is the first reader.
    for name, observe in OBSERVERS.items():
        ip, frame = deferred()
        assert observe(frame) == observe(eager), name
        ip, frame = deferred()
        assert observe(ip) == observe(eager_ip), name
    ip, frame = deferred()
    assert frame == eager and eager_ip == ip
    ip, frame = deferred()
    assert dataclasses.replace(ip, ttl=ttl ^ 1) == dataclasses.replace(eager_ip, ttl=ttl ^ 1)
    assert frame.encode() == eager.encode()
    assert ip.payload == eager_ip.payload == frame.payload[20:]
