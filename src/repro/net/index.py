"""Decode-once capture indexing: one pass, many analyses.

The paper's post-processing (§4–§6) is a stack of independent analyses
over the same AP capture.  Naively each analysis re-walks every decoded
packet, re-stringifies MAC addresses, re-derives ports/flags, and
re-classifies payloads.  :class:`CaptureIndex` does that work exactly
once over a columnar :class:`~repro.net.columnar.PacketTable`:

* the table's parallel columns (timestamps, interned MAC/IP/protocol
  ids, transport, ports, flags) replace per-packet property chasing —
  analyses bind columns to locals and index them by row id;
* per-source-MAC buckets (``by_src_mac``) — the §3.1 per-MAC split;
* per-protocol buckets (``by_protocol``) keyed by the quick tag;
* chronological filtered row-id lists (``arp``, ``udp``,
  ``tcp_payload``, ``transport_unicast``, ``transport_multicast``) in
  capture order, so analyses that append examples or create groups in
  first-seen order produce results byte-identical to a full scan;
* a lazily assembled :class:`~repro.net.flows.FlowTable` (built column
  -wise via :meth:`FlowTable.from_table`) shared by flow consumers;
* a label column of the corrected nDPI+manual labels, so the
  classification pass runs once instead of once per analysis.  The
  rows the table's fast parser accepted are labelled from the columns
  while the index is built: ARP rows are ``ARP``, and a UDP/TCP row's
  label depends only on its transport, ports and payload, so each
  distinct key is classified once per build.  Every other row (a
  decode fallback, a row whose packet was materialized before the
  build, a non-ARP row without a transport layer) is labelled on first
  read by :meth:`CaptureIndex.label_at`, through ``classify_packet``.

Every bucket is a plain list of row ids into :attr:`CaptureIndex.table`.
An index is the only way into the packet analyses under ``repro.core``
and ``repro.classify.crossval``: ``ApCapture.index()`` builds one over
the simulator's capture, ``repro.net.ingest.ingest_pcap`` over a pcap
file and the monitor one per pane.  Code holding decoded packets wraps
them with ``CaptureIndex(PacketTable.from_packets(packets))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.columnar import (
    F_ARP,
    F_TCP_PAYLOAD,
    F_UDP,
    F_UNICAST,
    PacketTable,
)
from repro.net.flows import FlowTable

#: Sentinel distinguishing "label not computed yet" from "classifier
#: returned None" (a legitimate outcome).
_UNSET = object()


class CaptureIndex:
    """A single-pass index over one capture table.

    Chronological order is the capture order; every bucket and filtered
    list preserves it, which is what makes index-consuming analyses
    byte-identical to their full-scan equivalents.  The build pass
    reads the integer columns and, for the label column, the payload
    bytes in the arena — it materializes no packet objects.
    """

    def __init__(self, table: PacketTable):
        self.table = table
        n = len(table)
        #: Row count at build time — the shared table may grow after
        #: this index was built; the buckets cover exactly these rows.
        self._row_count = n
        #: src MAC string -> chronological row ids sent by that MAC.
        self.by_src_mac: Dict[str, List[int]] = {}
        #: quick_protocol tag -> chronological row ids.
        self.by_protocol: Dict[str, List[int]] = {}
        self._classifier = None
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
            self.by_src_mac[mac_strings[mid]] = rids
        tags = table.protocol_tags
        for tid, rids in proto_buckets.items():
            self.by_protocol[tags[tid]] = rids
        #: Chronological filtered row ids (see module docstring).
        self.arp = arp
        self.udp = udp
        self.tcp_payload = tcp_payload
        self.transport_unicast = unicast
        self.transport_multicast = multicast
        self._label_columns()

    def _label_columns(self) -> None:
        """Label the ARP and UDP/TCP rows that have no cached packet.

        A UDP/TCP row's key is its transport, ports and payload bytes;
        the memo lives for this build only.  Every other row stays
        ``_UNSET`` for :meth:`label_at`.
        """
        from repro.classify.labels import Label

        table = self.table
        cached = table._packets
        labels = self._labels
        for rid in self.arp:
            if cached[rid] is None:
                labels[rid] = Label.ARP
        classify = self.classifier.classify_transport
        transports = (None, "udp", "tcp")
        trans_col = table.transport
        sport_col, dport_col = table.src_port, table.dst_port
        off_col, len_col = table.payload_off, table.payload_len
        memo: Dict[tuple, object] = {}
        # Released on exit, so the table can still grow after the build.
        with memoryview(table.frames) as arena:
            for rids in (self.transport_unicast, self.transport_multicast):
                for rid in rids:
                    if cached[rid] is not None:
                        continue
                    off = off_col[rid]
                    key = (trans_col[rid], sport_col[rid], dport_col[rid],
                           arena[off:off + len_col[rid]].tobytes())
                    label = memo.get(key, _UNSET)
                    if label is _UNSET:
                        label = memo[key] = classify(
                            transports[key[0]], key[1], key[2], key[3])
                    labels[rid] = label

    # -- size ---------------------------------------------------------------------

    @property
    def packet_count(self) -> int:
        return self._row_count

    def __len__(self) -> int:
        return self._row_count

    # -- classification (a label column) --------------------------------------------

    @property
    def classifier(self):
        """The corrected classifier whose labels this index memoizes."""
        if self._classifier is None:
            from repro.classify.rules import CorrectedClassifier

            self._classifier = CorrectedClassifier()
        return self._classifier

    def label_at(self, rid: int, classifier=None):
        """The corrected-classifier label of one row id, computed once.

        Reads the label column; a row the build left unlabelled is
        classified here through ``classify_packet``.  A caller-supplied
        ``classifier`` different from the index's own bypasses the memo
        (its labels would not be comparable).
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
        every label up front.  Only the rows the build left unlabelled
        are classified here.
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
        return {tag: len(rids) for tag, rids in self.by_protocol.items()}
