"""Decode-once ingest and the records view of :class:`ApCapture`.

Covers the decode-once contract: the capture's table ingests each
frame exactly once, extends in place with the backlog observed since,
resets on ``clear()`` and materializes packets equal to the eager
reference decode; ``index()`` is rebuilt only when the capture grew;
and ``records`` is a live read-only view, not a per-access copy.
"""

from __future__ import annotations

import pytest

from repro.net.decode import DecodeErrorLog, decode_records
from repro.net.ether import EtherType, EthernetFrame
from repro.net.ipv4 import Ipv4Packet
from repro.net.mac import MacAddress
from repro.net.udp import UdpDatagram
from repro.obs import enable_observability, use_obs
from repro.simnet.capture import ApCapture, RecordsView


def _frame(index: int) -> bytes:
    """A minimal UDP-in-IPv4 frame with a distinguishable payload."""
    datagram = UdpDatagram(src_port=1000 + index, dst_port=2000,
                           payload=f"payload-{index}".encode())
    ip = Ipv4Packet(src="192.168.10.10", dst="192.168.10.20",
                    protocol=17, payload=datagram.encode())
    return EthernetFrame(
        src=MacAddress("02:aa:00:00:00:01"),
        dst=MacAddress("02:aa:00:00:00:02"),
        ethertype=EtherType.IPV4,
        payload=ip.encode(),
    ).encode()


def _fill(capture: ApCapture, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        capture.observe(float(i), _frame(i))


def _samples(snapshot, family):
    return snapshot[family]["samples"] if family in snapshot else []


class TestDecodeCache:
    def test_rows_materialize_once(self):
        capture = ApCapture()
        _fill(capture, 5)
        table = capture.table()
        assert capture.table() is table
        assert all(table.packet(rid) is table.packet(rid) for rid in range(5))

    def test_incremental_extension(self):
        capture = ApCapture()
        _fill(capture, 3)
        table = capture.table()
        before = table.packets()
        _fill(capture, 2, start=3)
        assert capture.table() is table  # extended in place, not rebuilt
        assert len(table) == 5
        # Prefix untouched: the same objects, not re-decoded.
        assert all(a is b for a, b in zip(table.packets()[:3], before))
        assert [p.timestamp for p in table.packets()] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_clear_invalidates(self):
        capture = ApCapture()
        _fill(capture, 4)
        assert len(capture.table()) == 4
        capture.clear()
        assert capture.table().packets() == []
        _fill(capture, 2, start=10)
        assert [p.timestamp for p in capture.table().packets()] == [10.0, 11.0]

    def test_per_mac_split(self):
        capture = ApCapture()
        _fill(capture, 4)
        split = capture.per_mac()
        assert MacAddress("02:aa:00:00:00:01") in split
        assert MacAddress("02:aa:00:00:00:02") in split

    def test_decoded_matches_the_reference_decode(self):
        """The one-pass materialization equals the eager per-record
        decode, malformed frames and their quarantine included."""
        capture = ApCapture()
        _fill(capture, 6)
        capture.observe(6.0, _frame(6)[:20])  # cut inside the IPv4 header
        capture.observe(7.0, b"\x01\x02")     # too short for Ethernet
        _fill(capture, 2, start=8)
        reference_errors = DecodeErrorLog()
        reference = decode_records(list(capture.records), reference_errors)
        packets = capture.table().packets()
        assert packets == reference
        assert [p.decode_error for p in packets] == \
            [None] * 6 + ["ipv4", "ethernet"] + [None] * 2
        assert capture.decode_errors.snapshot() == reference_errors.snapshot() \
            == {"ipv4": 1, "ethernet": 1}

    def test_index_then_packets_decode_each_frame_once(self):
        """Frames ingested for the index are not counted again when the
        table later materializes them."""
        obs = enable_observability()
        with use_obs(obs):
            capture = ApCapture()
            _fill(capture, 12)
            index = capture.index()   # 12 misses, columnar ingest
            packets = capture.table().packets()  # materializes, no new misses
        assert len(index) == len(packets) == 12
        assert [p.udp.payload for p in packets] == \
            [f"payload-{i}".encode() for i in range(12)]
        snapshot = obs.metrics.to_dict()
        misses = _samples(snapshot, "capture_decode_cache_misses_total")
        assert sum(s["value"] for s in misses) == 12
        chunks = {s["labels"]["mode"]: s["value"]
                  for s in _samples(snapshot, "capture_decode_chunks_total")}
        assert chunks == {"columnar": 1}

    def test_index_cached_until_capture_grows(self):
        capture = ApCapture()
        _fill(capture, 5)
        index = capture.index()
        assert capture.index() is index  # unchanged capture: cache hit
        _fill(capture, 1, start=5)
        rebuilt = capture.index()
        assert rebuilt is not index
        assert len(rebuilt) == 6
        capture.clear()
        assert len(capture.index()) == 0

    def test_cache_metrics(self):
        obs = enable_observability()
        with use_obs(obs):
            capture = ApCapture()
            _fill(capture, 10)
            capture.index()   # 10 misses
            capture.index()   # nothing new to ingest
            _fill(capture, 5, start=10)
            capture.index()   # 5 misses
        snapshot = obs.metrics.to_dict()
        misses = _samples(snapshot, "capture_decode_cache_misses_total")
        assert sum(s["value"] for s in misses) == 15
        chunks = {s["labels"]["mode"]: s["value"]
                  for s in _samples(snapshot, "capture_decode_chunks_total")}
        assert chunks == {"columnar": 2}
        assert "capture_decode_cache_hits_total" not in snapshot


class TestRecordsView:
    def test_records_is_live_view_not_copy(self):
        capture = ApCapture()
        view = capture.records
        assert isinstance(view, RecordsView)
        assert len(view) == 0
        _fill(capture, 3)
        assert len(view) == 3  # live: sees frames observed after creation

    def test_equality_with_lists_and_views(self):
        capture = ApCapture()
        _fill(capture, 2)
        view = capture.records
        assert view == list(view)
        assert view == capture.records
        assert view != []
        assert ApCapture().records == []

    def test_indexing_slicing_iteration(self):
        capture = ApCapture()
        _fill(capture, 4)
        view = capture.records
        assert view[0][0] == 0.0
        assert view[-1][0] == 3.0
        assert [t for t, _ in view] == [0.0, 1.0, 2.0, 3.0]
        assert isinstance(view[1:3], list) and len(view[1:3]) == 2

    def test_view_is_immutable(self):
        capture = ApCapture()
        _fill(capture, 2)
        view = capture.records
        with pytest.raises((TypeError, AttributeError)):
            view[0] = (9.0, b"")
        with pytest.raises(AttributeError):
            view.append((9.0, b""))
        with pytest.raises(TypeError):
            hash(view)

    def test_negative_indexing_and_step_slicing(self):
        capture = ApCapture()
        _fill(capture, 6)
        view = capture.records
        assert view[-1][0] == 5.0
        assert view[-6][0] == 0.0
        assert [t for t, _ in view[::2]] == [0.0, 2.0, 4.0]
        assert [t for t, _ in view[::-1]] == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        assert [t for t, _ in view[-3:]] == [3.0, 4.0, 5.0]
        assert [t for t, _ in view[4:1:-2]] == [4.0, 2.0]
        assert view[2:2] == []
        with pytest.raises(IndexError):
            view[6]
        with pytest.raises(IndexError):
            view[-7]

    def test_equality_against_plain_lists(self):
        capture = ApCapture()
        _fill(capture, 3)
        view = capture.records
        records = [(float(i), _frame(i)) for i in range(3)]
        assert view == records
        assert view == tuple(records)
        assert view != records[:-1]            # shorter
        assert view != records + [(9.0, b"")]  # longer
        assert view != [records[1], records[0], records[2]]  # reordered
        assert (view == object()) is False     # NotImplemented fallback
        assert view != 42
