"""Decode-once capture indexing: one pass, many analyses.

The paper's post-processing (§4–§6) is a stack of independent analyses
over the same AP capture.  Naively each analysis re-walks every decoded
packet, re-stringifies MAC addresses, re-derives ports/flags, and
re-classifies payloads.  :class:`CaptureIndex` does that work exactly
once over a columnar :class:`~repro.net.columnar.PacketTable`:

* the table's parallel columns (timestamps, interned MAC/IP/protocol
  ids, transport, ports, flags) replace per-packet property chasing —
  analyses on hot loops bind columns to locals and index by row id;
* per-source-MAC buckets (``by_src_mac``) — the §3.1 per-MAC split;
* per-protocol buckets (``by_protocol``) keyed by the quick tag;
* chronological filtered views (``arp``, ``udp``, ``tcp_payload``,
  ``transport_unicast``, ``transport_multicast``) are zero-copy
  :class:`RowIdView` slices — row-id arrays over the shared table, not
  lists of wrapper objects — preserving capture order so analyses that
  append examples or create groups in first-seen order produce results
  byte-identical to a full scan;
* a lazily assembled :class:`~repro.net.flows.FlowTable` (built column
  -wise via :meth:`FlowTable.from_table`) shared by flow consumers;
* lazily memoized per-row classifier labels (the corrected
  nDPI+manual labels), so the classification pass runs once instead of
  once per analysis.

Every analysis entry point under ``repro.core`` and
``repro.classify.crossval`` accepts a plain iterable of
``DecodedPacket`` (back-compat: the table wraps them and keeps the
original objects), a :class:`PacketTable`, or a prebuilt
``CaptureIndex`` (the fast path ``StudyPipeline`` uses via
``ApCapture.index()``).  :class:`PacketRow` remains as a lightweight
per-row *proxy* for callers that want object-style access; the hot
paths never allocate one.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Iterable, List, Optional, Union

from repro.net.columnar import (
    F_ARP,
    F_BROADCAST,
    F_TCP_PAYLOAD,
    F_UDP,
    F_UNICAST,
    PacketTable,
)
from repro.net.decode import DecodedPacket
from repro.net.flows import FlowTable

#: Sentinel distinguishing "label not computed yet" from "classifier
#: returned None" (a legitimate outcome).
_UNSET = object()

_TRANSPORT_NAMES = (None, "udp", "tcp")


class PacketRow:
    """A row-id proxy presenting one table row object-style.

    Everything is a property over the parent table's columns; nothing
    is copied at construction, and ``packet`` materializes the full
    ``DecodedPacket`` lazily (memoized by the table).  Hot loops skip
    the proxy entirely and read columns by row id.
    """

    __slots__ = ("table", "rid")

    def __init__(self, table: PacketTable, rid: int):
        self.table = table
        self.rid = rid

    @property
    def packet(self) -> DecodedPacket:
        return self.table.packet(self.rid)

    @property
    def timestamp(self) -> float:
        return self.table.timestamps[self.rid]

    @property
    def src(self) -> str:
        return self.table.mac_strings[self.table.src_mac[self.rid]]

    @property
    def dst(self) -> str:
        return self.table.mac_strings[self.table.dst_mac[self.rid]]

    @property
    def protocol(self) -> str:
        return self.table.protocol_tags[self.table.protocol[self.rid]]

    @property
    def transport(self) -> Optional[str]:
        return _TRANSPORT_NAMES[self.table.transport[self.rid]]

    @property
    def src_ip(self) -> Optional[str]:
        iid = self.table.src_ip[self.rid]
        return None if iid < 0 else self.table.ip_strings[iid]

    @property
    def dst_ip(self) -> Optional[str]:
        iid = self.table.dst_ip[self.rid]
        return None if iid < 0 else self.table.ip_strings[iid]

    @property
    def src_port(self) -> Optional[int]:
        port = self.table.src_port[self.rid]
        return None if port < 0 else port

    @property
    def dst_port(self) -> Optional[int]:
        port = self.table.dst_port[self.rid]
        return None if port < 0 else port

    @property
    def is_unicast(self) -> bool:
        return bool(self.table.flags[self.rid] & F_UNICAST)

    @property
    def is_broadcast(self) -> bool:
        return bool(self.table.flags[self.rid] & F_BROADCAST)

    def __eq__(self, other) -> bool:
        if isinstance(other, PacketRow):
            return self.table is other.table and self.rid == other.rid
        return NotImplemented

    __hash__ = None  # mutable-ish view; never used as a dict key

    def __repr__(self) -> str:  # debugging aid, not used on hot paths
        return (f"PacketRow(t={self.timestamp:.3f}, {self.src}->{self.dst}, "
                f"{self.protocol})")


class RowIdView(Sequence):
    """A zero-copy view over table rows: just row ids, no wrappers.

    Iteration and indexing yield :class:`PacketRow` proxies on demand;
    hot loops read :attr:`rids` directly and index the table's columns.
    Compares equal to other views over the same rows and to plain
    lists/tuples of equal rows.
    """

    __slots__ = ("table", "rids")

    def __init__(self, table: PacketTable, rids):
        self.table = table
        #: Row ids in capture (chronological) order — a ``range`` for
        #: the full-table view, a list for filtered views.
        self.rids = rids

    def __len__(self) -> int:
        return len(self.rids)

    def __getitem__(self, item):
        if isinstance(item, slice):
            table = self.table
            return [PacketRow(table, rid) for rid in self.rids[item]]
        return PacketRow(self.table, self.rids[item])

    def __iter__(self):
        table = self.table
        for rid in self.rids:
            yield PacketRow(table, rid)

    def __eq__(self, other) -> bool:
        if isinstance(other, RowIdView):
            return self.table is other.table and list(self.rids) == list(other.rids)
        if isinstance(other, (list, tuple)):
            return len(self.rids) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # like a list

    def __repr__(self) -> str:
        return f"RowIdView({len(self.rids)} rows)"


class CaptureIndex:
    """A single-pass index over one capture table.

    Chronological order is the capture order; every bucket and filtered
    view preserves it, which is what makes index-consuming analyses
    byte-identical to their full-scan equivalents.  The build pass
    reads only the integer columns — no packet objects, no strings
    beyond the interned pools.
    """

    def __init__(self, packets: Union[PacketTable, Iterable[DecodedPacket]],
                 classifier=None):
        if isinstance(packets, PacketTable):
            table = packets
        else:
            table = PacketTable.from_packets(packets)
        self.table = table
        n = len(table)
        #: Row count at build time — the shared table may grow after
        #: this index was built; the views cover exactly these rows.
        self._row_count = n
        #: Full-capture view (zero-copy: backed by a ``range``).
        self.rows = RowIdView(table, range(n))
        #: src MAC string -> chronological rows sent by that MAC.
        self.by_src_mac: Dict[str, RowIdView] = {}
        #: quick_protocol tag -> chronological rows.
        self.by_protocol: Dict[str, RowIdView] = {}
        self._classifier = classifier
        self._flows: Optional[FlowTable] = None
        self._labels: List = [_UNSET] * n

        flags_col = table.flags
        src_col = table.src_mac
        proto_col = table.protocol
        trans_col = table.transport
        src_buckets: Dict[int, List[int]] = {}
        proto_buckets: Dict[int, List[int]] = {}
        arp: List[int] = []
        udp: List[int] = []
        tcp_payload: List[int] = []
        unicast: List[int] = []
        multicast: List[int] = []
        for rid in range(n):
            bucket = src_buckets.get(src_col[rid])
            if bucket is None:
                bucket = src_buckets[src_col[rid]] = []
            bucket.append(rid)
            bucket = proto_buckets.get(proto_col[rid])
            if bucket is None:
                bucket = proto_buckets[proto_col[rid]] = []
            bucket.append(rid)
            flags = flags_col[rid]
            if flags & F_ARP:
                arp.append(rid)
            if flags & F_UDP:
                udp.append(rid)
            elif flags & F_TCP_PAYLOAD:
                tcp_payload.append(rid)
            if trans_col[rid]:
                if flags & F_UNICAST:
                    unicast.append(rid)
                else:
                    multicast.append(rid)
        mac_strings = table.mac_strings
        for mid, rids in src_buckets.items():
            self.by_src_mac[mac_strings[mid]] = RowIdView(table, rids)
        tags = table.protocol_tags
        for tid, rids in proto_buckets.items():
            self.by_protocol[tags[tid]] = RowIdView(table, rids)
        #: Chronological filtered views (see module docstring).
        self.arp = RowIdView(table, arp)
        self.udp = RowIdView(table, udp)
        self.tcp_payload = RowIdView(table, tcp_payload)
        self.transport_unicast = RowIdView(table, unicast)
        self.transport_multicast = RowIdView(table, multicast)

    # -- construction -------------------------------------------------------------

    @classmethod
    def ensure(cls, packets: Union["CaptureIndex", PacketTable,
                                   Iterable[DecodedPacket]]) -> "CaptureIndex":
        """Pass a prebuilt index through; wrap a table or raw packets."""
        if isinstance(packets, cls):
            return packets
        return cls(packets)

    # -- size ---------------------------------------------------------------------

    @property
    def packet_count(self) -> int:
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    # -- classification (memoized) --------------------------------------------------

    @property
    def classifier(self):
        """The corrected classifier whose labels this index memoizes."""
        if self._classifier is None:
            from repro.classify.rules import CorrectedClassifier

            self._classifier = CorrectedClassifier()
        return self._classifier

    def label_at(self, rid: int, classifier=None):
        """The corrected-classifier label of one row id, computed once.

        A caller-supplied ``classifier`` different from the index's own
        bypasses the memo (its labels would not be comparable), exactly
        matching the legacy per-analysis behaviour.
        """
        if classifier is not None and classifier is not self._classifier:
            return classifier.classify_packet(self.table.packet(rid))
        label = self._labels[rid]
        if label is _UNSET:
            label = self._labels[rid] = self.classifier.classify_packet(
                self.table.packet(rid))
        return label

    def ensure_labels(self) -> None:
        """Classify every row not labelled yet, in one pass.

        The analyses never need this — :meth:`label_at` fills the memo
        for exactly the rows they read — so it is for callers that want
        every label up front.
        """
        classify = self.classifier.classify_packet
        labels = self._labels
        packet = self.table.packet
        for rid in range(len(labels)):
            if labels[rid] is _UNSET:
                labels[rid] = classify(packet(rid))

    # -- flows (lazy, assembled once) ------------------------------------------------

    @property
    def flows(self) -> FlowTable:
        """The capture's flow table, assembled on first use and shared."""
        if self._flows is None:
            self._flows = FlowTable.from_table(self.table, self._row_count)
        return self._flows

    # -- convenience queries ----------------------------------------------------------

    def protocol_counts(self) -> Dict[str, int]:
        """Packet counts per quick-protocol tag (telemetry/benchmarks)."""
        return {tag: len(view) for tag, view in self.by_protocol.items()}
