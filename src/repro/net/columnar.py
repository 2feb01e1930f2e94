"""Struct-of-arrays packet store: one decode pass, columnar scans.

The analyses (§4–§6) re-scan every captured frame many times, but they
mostly read a handful of *derived* per-packet facts: source/destination
MAC, quick-protocol tag, transport, IPs, ports, a few boolean flags and
the application payload.  Materializing one :class:`~repro.net.decode.DecodedPacket`
Python object (plus layer objects) per frame just to read those columns
is the dominant cost at fleet scale.

:class:`PacketTable` stores a capture as parallel ``array``/``bytearray``
columns instead:

* ``timestamps`` (f64) and the raw ``frames`` byte arena with per-row
  offset/length, so the original bytes are never lost;
* interned ids into string pools for MACs (``mac_strings``), IPs
  (``ip_strings``) and quick-protocol tags (``protocol_tags``);
* transport code, ports (-1 = absent) and a flags bitfield
  (:data:`F_UNICAST` …) mirroring the per-row booleans the analyses
  branch on;
* application-payload offset/length pointing *into the arena* — payload
  reads are slices, not layer-object walks.

The columns are built by a conservative raw-byte fast path that accepts
a frame only when the layered codecs would decode it cleanly; anything
unusual (short headers, bad versions, ICMP/IGMP/EAPOL, quarantine
cases) falls back to :func:`~repro.net.decode.decode_frame`, which
records decode errors exactly as an eager per-frame decode does and
caches the resulting packet.  Clean rows materialize a ``DecodedPacket``
lazily — only when a consumer (classification, deep payload mining)
actually asks — via :meth:`PacketTable.packet`, memoized per row;
:meth:`PacketTable.packets` materializes them all.

Tables come from raw records (:meth:`PacketTable.from_records`, what
``ApCapture`` and the pcap ingest build) or from packets already decoded
(:meth:`PacketTable.from_packets`, the eager reference the differential
tests and the decode smoke compare against).  ``CaptureIndex``
(:mod:`repro.net.index`) layers row-id buckets over a table;
:class:`LazyPackets` adapts row-id lists back into the
sequence-of-packets shape flow consumers expect.
"""

from __future__ import annotations

import ipaddress
from array import array
from collections.abc import Sequence
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.decode import (
    _TCP_PORT_LABELS,
    _UDP_PORT_LABELS,
    DecodedPacket,
    DecodeErrorLog,
    decode_frame,
    quick_protocol,
)
from repro.net.mac import MacAddress

#: Row flag bits (``PacketTable.flags``).
F_UNICAST = 0x01      #: destination MAC has the I/G bit clear
F_BROADCAST = 0x02    #: L2 broadcast or IPv4 255.255.255.255
F_ARP = 0x04          #: row carries a decoded ARP packet
F_UDP = 0x08          #: row carries a UDP datagram
F_TCP_PAYLOAD = 0x10  #: TCP with non-empty payload (and no UDP)
F_MALFORMED = 0x20    #: decode_error is set on the row's packet

#: Transport column codes.
TRANSPORT_NONE = 0
TRANSPORT_UDP = 1
TRANSPORT_TCP = 2

_BROADCAST_MAC = b"\xff\xff\xff\xff\xff\xff"
_BROADCAST_IP4 = b"\xff\xff\xff\xff"


class PacketTable:
    """A capture stored column-wise, one row per frame.

    Rows are append-only and keep capture (chronological) order.  All
    columns are plain ``array`` instances; consumers on hot loops bind
    them to locals and index by row id.
    """

    __slots__ = (
        "timestamps", "src_mac", "dst_mac", "protocol", "transport",
        "src_ip", "dst_ip", "src_port", "dst_port", "flags",
        "frame_off", "frame_len", "payload_off", "payload_len", "frames",
        "mac_strings", "ip_strings", "protocol_tags",
        "_mac_ids", "_ip_ids", "_protocol_ids", "_mac_objects", "_packets",
    )

    def __init__(self):
        self.timestamps = array("d")
        #: Interned pool ids (see ``mac_strings`` / ``ip_strings`` /
        #: ``protocol_tags``); -1 in the IP/port columns means absent.
        self.src_mac = array("i")
        self.dst_mac = array("i")
        self.protocol = array("h")
        self.transport = array("b")
        self.src_ip = array("i")
        self.dst_ip = array("i")
        self.src_port = array("i")
        self.dst_port = array("i")
        self.flags = array("B")
        #: Raw frame bytes live contiguously in ``frames``; payload
        #: offsets point into the same arena (0/0 when the row's packet
        #: is eagerly cached instead).
        self.frame_off = array("Q")
        self.frame_len = array("I")
        self.payload_off = array("Q")
        self.payload_len = array("I")
        self.frames = bytearray()
        self.mac_strings: List[str] = []
        self.ip_strings: List[str] = []
        self.protocol_tags: List[str] = []
        self._mac_ids: Dict[bytes, int] = {}
        self._ip_ids: Dict[bytes, int] = {}
        self._protocol_ids: Dict[str, int] = {}
        self._mac_objects: List[Optional[MacAddress]] = []
        #: Lazy per-row ``DecodedPacket`` cache (fallback rows eager).
        self._packets: List[Optional[DecodedPacket]] = []

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Tuple[float, bytes]],
                     errors: Optional[DecodeErrorLog] = None) -> "PacketTable":
        """Build a table from ``(timestamp, frame_bytes)`` records."""
        table = cls()
        table.extend_records(records, errors)
        return table

    @classmethod
    def from_packets(cls, packets: Iterable[DecodedPacket]) -> "PacketTable":
        """Wrap already-decoded packets (the eager reference path).

        Columns are derived from the packet objects, which stay cached
        row-for-row, so :meth:`packet` returns the *original* objects.
        """
        table = cls()
        for packet in packets:
            table._append_from_packet(packet)
        return table

    def extend_records(self, records: Iterable[Tuple[float, bytes]],
                       errors: Optional[DecodeErrorLog] = None) -> None:
        """Append raw frames in one pass — the hot ingest loop.

        A frame takes the raw-byte fast path only when the layered
        codecs would accept it verbatim; any anomaly routes through
        :func:`decode_frame` so quarantine counts and per-row decode
        errors are identical to an eager per-frame decode.
        """
        timestamps = self.timestamps
        src_col, dst_col = self.src_mac, self.dst_mac
        proto_col, trans_col = self.protocol, self.transport
        sip_col, dip_col = self.src_ip, self.dst_ip
        sport_col, dport_col = self.src_port, self.dst_port
        flags_col = self.flags
        foff_col, flen_col = self.frame_off, self.frame_len
        poff_col, plen_col = self.payload_off, self.payload_len
        frames = self.frames
        mac_ids, mac_strings = self._mac_ids, self.mac_strings
        mac_objects = self._mac_objects
        ip_ids, ip_strings = self._ip_ids, self.ip_strings
        tag_ids, tags = self._protocol_ids, self.protocol_tags
        packets = self._packets
        udp_labels, tcp_labels = _UDP_PORT_LABELS, _TCP_PORT_LABELS

        for timestamp, data in records:
            n = len(data)
            fallback = False
            flags = 0
            transport = TRANSPORT_NONE
            sip = dip = None
            sport = dport = -1
            pstart = pend = 0
            tag = "l2-other"
            if n < 14:
                fallback = True
            else:
                b0 = data[0]
                if not b0 & 1:
                    flags = F_UNICAST
                elif b0 == 0xFF and data[:6] == _BROADCAST_MAC:
                    flags = F_BROADCAST
                ethertype = (data[12] << 8) | data[13]
                if ethertype == 0x0800:  # IPv4
                    if n < 34 or (data[14] >> 4) != 4:
                        fallback = True
                    else:
                        ihl = (data[14] & 0x0F) << 2
                        if ihl < 20 or 14 + ihl > n:
                            fallback = True
                        else:
                            total_length = (data[16] << 8) | data[17]
                            seg_start = 14 + ihl
                            if total_length:
                                seg_end = 14 + total_length
                                if seg_end > n:
                                    seg_end = n
                                if seg_end < seg_start:
                                    seg_end = seg_start
                            else:
                                seg_end = n
                            proto = data[23]
                            sip = data[26:30]
                            dip = data[30:34]
                            if dip == _BROADCAST_IP4:
                                flags |= F_BROADCAST
                            if proto == 17:
                                if seg_end - seg_start < 8:
                                    fallback = True
                                else:
                                    ulen = (data[seg_start + 4] << 8) | data[seg_start + 5]
                                    if ulen < 8:
                                        fallback = True
                                    else:
                                        sport = (data[seg_start] << 8) | data[seg_start + 1]
                                        dport = (data[seg_start + 2] << 8) | data[seg_start + 3]
                                        pstart = seg_start + 8
                                        pend = seg_start + ulen
                                        if pend > seg_end:
                                            pend = seg_end
                                        transport = TRANSPORT_UDP
                                        flags |= F_UDP
                                        tag = udp_labels.get(dport)
                                        if tag is None:
                                            tag = udp_labels.get(sport, "udp-other")
                            elif proto == 6:
                                seg_len = seg_end - seg_start
                                if seg_len < 20:
                                    fallback = True
                                else:
                                    hlen = (data[seg_start + 12] >> 4) << 2
                                    if hlen < 20 or hlen > seg_len:
                                        fallback = True
                                    else:
                                        sport = (data[seg_start] << 8) | data[seg_start + 1]
                                        dport = (data[seg_start + 2] << 8) | data[seg_start + 3]
                                        pstart = seg_start + hlen
                                        pend = seg_end
                                        transport = TRANSPORT_TCP
                                        if pend > pstart:
                                            flags |= F_TCP_PAYLOAD
                                        tag = tcp_labels.get(dport)
                                        if tag is None:
                                            tag = tcp_labels.get(sport, "tcp-other")
                            elif proto == 1 or proto == 2:  # ICMP/IGMP: rare, layered path
                                fallback = True
                            else:
                                tag = "ip-other"
                elif ethertype == 0x0806:  # ARP
                    if (n < 42 or data[14] != 0 or data[15] != 1
                            or data[16] != 8 or data[17] != 0
                            or data[18] != 6 or data[19] != 4
                            or data[20] != 0 or not 1 <= data[21] <= 2):
                        fallback = True
                    else:
                        flags |= F_ARP
                        tag = "arp"
                elif ethertype == 0x86DD:  # IPv6
                    if n < 54 or (data[14] >> 4) != 6:
                        fallback = True
                    else:
                        payload_len = (data[18] << 8) | data[19]
                        nh = data[20]
                        sip = data[22:38]
                        dip = data[38:54]
                        seg_start = 54
                        seg_end = 54 + payload_len
                        if seg_end > n:
                            seg_end = n
                        if nh == 17:
                            if seg_end - seg_start < 8:
                                fallback = True
                            else:
                                ulen = (data[seg_start + 4] << 8) | data[seg_start + 5]
                                if ulen < 8:
                                    fallback = True
                                else:
                                    sport = (data[seg_start] << 8) | data[seg_start + 1]
                                    dport = (data[seg_start + 2] << 8) | data[seg_start + 3]
                                    pstart = seg_start + 8
                                    pend = seg_start + ulen
                                    if pend > seg_end:
                                        pend = seg_end
                                    transport = TRANSPORT_UDP
                                    flags |= F_UDP
                                    tag = udp_labels.get(dport)
                                    if tag is None:
                                        tag = udp_labels.get(sport, "udp-other")
                        elif nh == 6:
                            seg_len = seg_end - seg_start
                            if seg_len < 20:
                                fallback = True
                            else:
                                hlen = (data[seg_start + 12] >> 4) << 2
                                if hlen < 20 or hlen > seg_len:
                                    fallback = True
                                else:
                                    sport = (data[seg_start] << 8) | data[seg_start + 1]
                                    dport = (data[seg_start + 2] << 8) | data[seg_start + 3]
                                    pstart = seg_start + hlen
                                    pend = seg_end
                                    transport = TRANSPORT_TCP
                                    if pend > pstart:
                                        flags |= F_TCP_PAYLOAD
                                    tag = tcp_labels.get(dport)
                                    if tag is None:
                                        tag = tcp_labels.get(sport, "tcp-other")
                        elif nh == 58:  # ICMPv6: rare, layered path
                            fallback = True
                        else:
                            tag = "ip-other"
                elif ethertype == 0x888E:  # EAPOL: rare, layered path
                    fallback = True
                # anything else (incl. 802.3/LLC lengths): clean l2-other

            if fallback:
                self._append_from_packet(
                    decode_frame(data, timestamp, errors), data)
                continue

            base = len(frames)
            frames += data
            timestamps.append(timestamp)
            key = data[6:12]
            mid = mac_ids.get(key)
            if mid is None:
                mid = mac_ids[key] = len(mac_strings)
                mac_strings.append(key.hex(":"))
                mac_objects.append(None)
            src_col.append(mid)
            key = data[:6]
            mid = mac_ids.get(key)
            if mid is None:
                mid = mac_ids[key] = len(mac_strings)
                mac_strings.append(key.hex(":"))
                mac_objects.append(None)
            dst_col.append(mid)
            tid = tag_ids.get(tag)
            if tid is None:
                tid = tag_ids[tag] = len(tags)
                tags.append(tag)
            proto_col.append(tid)
            trans_col.append(transport)
            if sip is None:
                sip_col.append(-1)
                dip_col.append(-1)
            else:
                iid = ip_ids.get(sip)
                if iid is None:
                    iid = ip_ids[sip] = len(ip_strings)
                    ip_strings.append(str(ipaddress.ip_address(sip)))
                sip_col.append(iid)
                iid = ip_ids.get(dip)
                if iid is None:
                    iid = ip_ids[dip] = len(ip_strings)
                    ip_strings.append(str(ipaddress.ip_address(dip)))
                dip_col.append(iid)
            sport_col.append(sport)
            dport_col.append(dport)
            flags_col.append(flags)
            foff_col.append(base)
            flen_col.append(n)
            poff_col.append(base + pstart)
            plen_col.append(pend - pstart)
            packets.append(None)

    def _append_from_packet(self, packet: DecodedPacket,
                            data: Optional[bytes] = None) -> None:
        """Append a row derived from a decoded packet (caches it eagerly)."""
        base = len(self.frames)
        if data is not None:
            self.frames += data
            frame_len = len(data)
        else:
            frame_len = 0
        frame = packet.frame
        self.timestamps.append(packet.timestamp)
        self.src_mac.append(self._intern_mac(frame.src.packed))
        self.dst_mac.append(self._intern_mac(frame.dst.packed))
        self.protocol.append(self._intern_tag(quick_protocol(packet)))
        transport = packet.transport
        self.transport.append(
            TRANSPORT_UDP if transport == "udp"
            else TRANSPORT_TCP if transport == "tcp"
            else TRANSPORT_NONE)
        self.src_ip.append(self._intern_ip(packet.src_ip))
        self.dst_ip.append(self._intern_ip(packet.dst_ip))
        sport, dport = packet.src_port, packet.dst_port
        self.src_port.append(-1 if sport is None else sport)
        self.dst_port.append(-1 if dport is None else dport)
        flags = 0
        if packet.is_unicast:
            flags |= F_UNICAST
        if packet.is_broadcast:
            flags |= F_BROADCAST
        if packet.arp is not None:
            flags |= F_ARP
        if packet.udp is not None:
            flags |= F_UDP
        elif packet.tcp is not None and packet.tcp.payload:
            flags |= F_TCP_PAYLOAD
        if packet.decode_error is not None:
            flags |= F_MALFORMED
        self.flags.append(flags)
        self.frame_off.append(base)
        self.frame_len.append(frame_len)
        self.payload_off.append(0)
        self.payload_len.append(0)
        self._packets.append(packet)

    # -- interning ----------------------------------------------------------------

    def _intern_mac(self, packed: bytes) -> int:
        mid = self._mac_ids.get(packed)
        if mid is None:
            mid = self._mac_ids[packed] = len(self.mac_strings)
            self.mac_strings.append(packed.hex(":"))
            self._mac_objects.append(None)
        return mid

    def _intern_ip(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        packed = ipaddress.ip_address(value).packed
        iid = self._ip_ids.get(packed)
        if iid is None:
            iid = self._ip_ids[packed] = len(self.ip_strings)
            self.ip_strings.append(value)
        return iid

    def _intern_tag(self, tag: str) -> int:
        tid = self._protocol_ids.get(tag)
        if tid is None:
            tid = self._protocol_ids[tag] = len(self.protocol_tags)
            self.protocol_tags.append(tag)
        return tid

    # -- row access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def packet(self, rid: int) -> DecodedPacket:
        """The row's :class:`DecodedPacket`, materialized once on demand.

        Fast-path rows decode here from the frame arena — clean by
        construction, so no error log is consulted; fallback rows (and
        ``from_packets`` rows) return their eagerly cached object.
        """
        packet = self._packets[rid]
        if packet is None:
            off = self.frame_off[rid]
            data = bytes(self.frames[off:off + self.frame_len[rid]])
            packet = self._packets[rid] = decode_frame(data, self.timestamps[rid])
        return packet

    def packets(self) -> List[DecodedPacket]:
        """Materialize every row (chronological); returns a fresh list."""
        cached = self._packets
        materialize = self.packet
        return [cached[rid] if cached[rid] is not None else materialize(rid)
                for rid in range(len(cached))]

    def app_payload(self, rid: int) -> bytes:
        """The row's application payload, straight from the arena."""
        packet = self._packets[rid]
        if packet is not None:
            return packet.app_payload
        length = self.payload_len[rid]
        if not length:
            return b""
        off = self.payload_off[rid]
        return bytes(self.frames[off:off + length])

    def frame_bytes(self, rid: int) -> bytes:
        """The row's raw frame bytes (empty for ``from_packets`` rows)."""
        off = self.frame_off[rid]
        return bytes(self.frames[off:off + self.frame_len[rid]])

    def arp_sender_mac(self, rid: int) -> str:
        """Sender MAC string of an ARP row without materializing it."""
        packet = self._packets[rid]
        if packet is not None:
            return str(packet.arp.sender_mac)
        off = self.frame_off[rid] + 22  # Ethernet header + ARP offset 8
        return bytes(self.frames[off:off + 6]).hex(":")

    def mac_object(self, mac_id: int) -> MacAddress:
        """The pool entry as a (memoized) :class:`MacAddress`."""
        obj = self._mac_objects[mac_id]
        if obj is None:
            obj = self._mac_objects[mac_id] = MacAddress(self.mac_strings[mac_id])
        return obj

    def __repr__(self) -> str:
        return (f"PacketTable({len(self)} rows, {len(self.mac_strings)} macs, "
                f"{len(self.frames)} arena bytes)")


class LazyPackets(Sequence):
    """A row-id list presented as a sequence of ``DecodedPacket``.

    Materialization is per-item and memoized by the owning table, so
    consumers that only touch a few packets (``packets[0].timestamp``,
    the first payload packet) never pay for the rest.  Compares equal
    to lists/tuples of the same packets.
    """

    __slots__ = ("_table", "_rids")

    def __init__(self, table: PacketTable, rids):
        self._table = table
        self._rids = rids

    @property
    def rids(self):
        """The row ids this view presents, in order."""
        return self._rids

    def __len__(self) -> int:
        return len(self._rids)

    def __getitem__(self, item):
        if isinstance(item, slice):
            table = self._table
            return [table.packet(rid) for rid in self._rids[item]]
        return self._table.packet(self._rids[item])

    def __iter__(self):
        table = self._table
        for rid in self._rids:
            yield table.packet(rid)

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyPackets):
            if self._table is other._table and list(self._rids) == list(other._rids):
                return True
            other = list(other)
        if isinstance(other, (list, tuple)):
            return len(self._rids) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # like a list

    def __repr__(self) -> str:
        return f"LazyPackets({len(self._rids)} rows)"
