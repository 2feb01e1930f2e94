"""RFC 6146-style 5-tuple flow assembly.

Appendix C.2 defines UDP and TCP flows as "a chronologically ordered set
of TCP segments/UDP datagrams with the same 5-tuple combination (source
IP, source port, destination IP, destination port, transport protocol)".
Flows are the unit of classification for the nDPI/tshark comparison and
of the periodicity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.net.decode import DecodedPacket


@dataclass(frozen=True, order=True)
class FlowKey:
    """The directed 5-tuple identifying a flow."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    transport: str  # "udp" or "tcp"

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst_ip, self.dst_port, self.src_ip, self.src_port, self.transport)

    def bidirectional(self) -> "FlowKey":
        """The canonical (order-independent) form of this key."""
        return min(self, self.reversed())


@dataclass
class Flow:
    """A chronologically ordered set of packets sharing one 5-tuple."""

    key: FlowKey
    packets: List[DecodedPacket] = field(default_factory=list)

    def add(self, packet: DecodedPacket) -> None:
        self.packets.append(packet)

    @property
    def first_seen(self) -> float:
        return self.packets[0].timestamp if self.packets else 0.0

    @property
    def last_seen(self) -> float:
        return self.packets[-1].timestamp if self.packets else 0.0

    @property
    def duration(self) -> float:
        return self.last_seen - self.first_seen

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    @property
    def byte_count(self) -> int:
        return sum(len(pkt.frame) for pkt in self.packets)

    @property
    def payload(self) -> bytes:
        """Reassembled application payload in arrival order."""
        return b"".join(pkt.app_payload for pkt in self.packets)

    def timestamps(self) -> List[float]:
        return [pkt.timestamp for pkt in self.packets]

    def first_payload_packet(self) -> Optional[DecodedPacket]:
        for pkt in self.packets:
            if pkt.app_payload:
                return pkt
        return None


class FlowTable:
    """Incremental flow assembler over decoded packets.

    Packets without a transport layer (ARP, ICMP, EAPOL, ...) are kept
    separately in :attr:`non_flow_packets` — the 7.5% of "mostly layer 3
    traffic" neither classifier labels in Appendix C.2.
    """

    def __init__(self):
        self._flows: Dict[FlowKey, Flow] = {}
        self.non_flow_packets: List[DecodedPacket] = []

    @classmethod
    def from_packets(cls, packets: Iterable[DecodedPacket]) -> "FlowTable":
        """Assemble a table from an iterable of decoded packets."""
        table = cls()
        for packet in packets:
            table.add(packet)
        return table

    @classmethod
    def from_table(cls, table: "PacketTable", row_count: int) -> "FlowTable":
        """Assemble flows from the first ``row_count`` rows of a table.

        ``row_count`` is the row count of the index over the table: a
        capture's shared table can grow after that index was built.
        Grouping reads the transport/IP/port columns only; each flow's
        ``packets`` is a :class:`~repro.net.columnar.LazyPackets` view,
        so layer objects materialize only when a consumer (payload
        reassembly, classification) actually touches them.
        """
        from repro.net.columnar import TRANSPORT_UDP, LazyPackets

        flows = cls()
        transport = table.transport
        src_ip, dst_ip = table.src_ip, table.dst_ip
        src_port, dst_port = table.src_port, table.dst_port
        ips = table.ip_strings
        groups: Dict[FlowKey, List[int]] = {}
        non_flow: List[int] = []
        for rid in range(row_count):
            code = transport[rid]
            sid = src_ip[rid]
            if not code or sid < 0:
                non_flow.append(rid)
                continue
            key = FlowKey(
                src_ip=ips[sid],
                src_port=src_port[rid],
                dst_ip=ips[dst_ip[rid]],
                dst_port=dst_port[rid],
                transport="udp" if code == TRANSPORT_UDP else "tcp",
            )
            rids = groups.get(key)
            if rids is None:
                groups[key] = [rid]
            else:
                rids.append(rid)
        for key, rids in groups.items():
            flows._flows[key] = Flow(key=key, packets=LazyPackets(table, rids))
        flows.non_flow_packets = LazyPackets(table, non_flow)
        return flows

    def add(self, packet: DecodedPacket) -> Optional[Flow]:
        key = flow_key_of(packet)
        if key is None:
            self.non_flow_packets.append(packet)
            return None
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(key=key)
            self._flows[key] = flow
        flow.add(packet)
        return flow

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(self._flows.values())

    @property
    def flows(self) -> List[Flow]:
        return list(self._flows.values())

    def get(self, key: FlowKey) -> Optional[Flow]:
        return self._flows.get(key)

    def bidirectional_flows(self) -> Dict[FlowKey, List[Flow]]:
        """Group directed flows into conversations by canonical key."""
        grouped: Dict[FlowKey, List[Flow]] = {}
        for flow in self._flows.values():
            grouped.setdefault(flow.key.bidirectional(), []).append(flow)
        return grouped


def flow_key_of(packet: DecodedPacket) -> Optional[FlowKey]:
    """The directed 5-tuple of a packet, or None for non-transport traffic."""
    if packet.transport is None or packet.src_ip is None:
        return None
    return FlowKey(
        src_ip=packet.src_ip,
        src_port=packet.src_port,
        dst_ip=packet.dst_ip,
        dst_port=packet.dst_port,
        transport=packet.transport,
    )


def assemble_flows(packets: Iterable[DecodedPacket]) -> FlowTable:
    """Assemble an iterable of decoded packets into a flow table."""
    return FlowTable.from_packets(packets)
