"""AP-side traffic capture, tcpdump-style.

§3.1: "a Wi-Fi AP captures all network traffic utilizing tcpdump.  The
captured traffic is stored in separate files for each MAC address,
enabling us to distinguish traffic from individual devices."  This
module reproduces both the global capture and the per-MAC split, and
can persist either as classic pcap files.

Decode-once contract: observed frames land in a
:class:`~repro.net.columnar.PacketTable` in one ingest pass (raw-byte
fast path, per-frame quarantining fallback) the first time the table is
asked for, and only the backlog observed since is ingested later.
:meth:`ApCapture.index` layers a cached
:class:`~repro.net.index.CaptureIndex` of row-id buckets over that
table, the one way into the analyses.  A caller that wants packet
objects asks the table (``table().packet(rid)`` or ``table().packets()``),
which materializes each row once and keeps it.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.net.columnar import F_UNICAST, PacketTable
from repro.net.decode import DecodeErrorLog
from repro.net.ether import EthernetFrame
from repro.net.index import CaptureIndex
from repro.net.mac import MacAddress
from repro.net.pcap import PcapWriter
from repro.obs import get_obs


class RecordsView(Sequence):
    """A read-only, live view of the capture's ``(timestamp, bytes)`` records.

    Replaces the old ``list(...)`` copy that ``ApCapture.records``
    rebuilt on every property access (O(n) per call on the hot path).
    The view compares equal to lists/tuples of the same records so
    existing ``capture.records == []``-style assertions keep working,
    but offers no mutating methods — the capture owns the storage.
    """

    __slots__ = ("_records",)

    def __init__(self, records: List[Tuple[float, bytes]]):
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return list(self._records[item])
        return self._records[item]

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordsView):
            return self._records == other._records
        if isinstance(other, (list, tuple)):
            return self._records == list(other)
        return NotImplemented

    __hash__ = None  # mutable view: unhashable, like a list

    def __repr__(self) -> str:
        return f"RecordsView({self._records!r})"


class ApCapture:
    """Collects every frame crossing the AP, with per-MAC indexing."""

    def __init__(self, keep_bytes: bool = True):
        self.keep_bytes = keep_bytes
        self._records: List[Tuple[float, bytes]] = []
        self._table = PacketTable()
        self._index: Optional[CaptureIndex] = None
        self.packet_count = 0
        self.byte_count = 0
        #: Malformed frames are quarantined (counted, sampled) here
        #: instead of ever raising mid-analysis.
        self.decode_errors = DecodeErrorLog()
        #: Live subscribers called as ``tap(timestamp, frame_bytes)`` on
        #: every observed frame — how ``repro monitor --simulate``
        #: streams frames without the capture retaining them
        #: (``keep_bytes=False`` keeps the capture itself O(1)).
        self.frame_taps: List[callable] = []
        obs = get_obs()
        self._obs = obs
        if obs.enabled:
            metrics = obs.metrics.scoped("capture")
            self._frames_observed_total = metrics.counter(
                "frames_observed_total", "every frame seen by the AP capture")
            self._bytes_observed_total = metrics.counter(
                "bytes_observed_total", "bytes seen by the AP capture")
            self._decode_cache_misses = metrics.counter(
                "decode_cache_misses_total",
                "frames decoded for the first time (cache fills)")
            self._decode_chunks_total = metrics.counter(
                "decode_chunks_total", "decode batches executed, per mode")
            self._decode_quarantined_total = metrics.counter(
                "decode_quarantined_total",
                "malformed frames quarantined by the decode layer, per reason")

    def observe(self, timestamp: float, frame) -> None:
        """Count one frame, and keep or tap its bytes when asked to.

        ``frame`` is the frame's bytes or an unencoded
        :class:`EthernetFrame`.  The latter is encoded only when the
        capture keeps bytes or has a tap; otherwise ``len(frame)``, taken
        from its layers, is all the capture reads.
        """
        self.count(1, len(frame))
        if not (self.keep_bytes or self.frame_taps):
            return
        if frame.__class__ is EthernetFrame:
            frame = frame.encode()
        if self.keep_bytes:
            self._records.append((timestamp, frame))
        for tap in self.frame_taps:
            tap(timestamp, frame)

    def count(self, frames: int, length: int) -> None:
        """Count ``frames`` frames of ``length`` bytes in all, with no bytes
        to keep or tap: :meth:`observe` counts each frame here, and
        :meth:`Lan.count_unseen` the frames two stacks exchanged off the
        wire."""
        self.packet_count += frames
        self.byte_count += length
        if self._obs.enabled:
            self._frames_observed_total.inc(frames)
            self._bytes_observed_total.inc(length)

    # -- access -----------------------------------------------------------------

    @property
    def records(self) -> RecordsView:
        """Read-only view of the raw records (no per-access copy)."""
        return RecordsView(self._records)

    def table(self) -> PacketTable:
        """The columnar packet table, ingesting any observed backlog first."""
        return self._ensure_table()

    def _ensure_table(self) -> PacketTable:
        """Ingest observed-but-uningested records into the columnar table.

        This is where frames are decoded (columnar fast path, layered
        fallback), so the decode-cache *miss* accounting and quarantine
        deltas live here: every newly ingested row is one cache fill,
        whether the analyses later read it as columns or as a
        materialized packet.
        """
        table = self._table
        built = len(table)
        total = len(self._records)
        if built < total:
            quarantined_before = self.decode_errors.snapshot()
            table.extend_records(self._records[built:total], self.decode_errors)
            if self._obs.enabled:
                self._decode_cache_misses.inc(total - built)
                self._decode_chunks_total.inc(mode="columnar")
                for reason, count in self.decode_errors.snapshot().items():
                    delta = count - quarantined_before.get(reason, 0)
                    if delta:
                        self._decode_quarantined_total.inc(delta, reason=reason)
        return table

    def index(self) -> CaptureIndex:
        """The capture's :class:`CaptureIndex`, built once per snapshot.

        Rebuilt only when new frames were observed since the last call.
        The index is layered directly over the columnar table — no
        packet materialization happens here.
        """
        table = self._ensure_table()
        if self._index is None or self._index.packet_count != len(table):
            self._index = CaptureIndex(table)
        return self._index

    def per_mac(self) -> Dict[MacAddress, List[Tuple[float, bytes]]]:
        """Split the capture per source/destination MAC, as the testbed does.

        A frame appears in the file of its source MAC and, when unicast,
        also in the destination's file (the AP attributes both ends).
        Reads the table's MAC-id columns — no packet objects.
        """
        table = self._ensure_table()
        src_col, dst_col, flags_col = table.src_mac, table.dst_mac, table.flags
        mac_object = table.mac_object
        split: Dict[MacAddress, List[Tuple[float, bytes]]] = {}
        for rid, record in enumerate(self._records):
            split.setdefault(mac_object(src_col[rid]), []).append(record)
            if flags_col[rid] & F_UNICAST:
                split.setdefault(mac_object(dst_col[rid]), []).append(record)
        return split

    # -- persistence --------------------------------------------------------------

    def write_pcap(self, path) -> int:
        """Write the whole capture to one pcap file; returns packet count."""
        with PcapWriter(path) as writer:
            for timestamp, data in self._records:
                writer.write(timestamp, data)
            return writer.packet_count

    def write_per_mac_pcaps(self, directory) -> Dict[str, Path]:
        """Write one pcap per MAC (testbed layout); returns {mac: path}."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {}
        for mac, records in self.per_mac().items():
            path = directory / f"{mac.compact()}.pcap"
            with PcapWriter(path) as writer:
                for timestamp, data in records:
                    writer.write(timestamp, data)
            paths[str(mac)] = path
        return paths

    def clear(self) -> None:
        self._records.clear()
        self._table = PacketTable()
        self._index = None
        self.packet_count = 0
        self.byte_count = 0
        self.decode_errors.clear()
