"""§5.1 ARP behaviour analysis.

"Amazon Echo devices perform daily broadcast ARP scanning of the entire
local IP space, and also send targeted unicast ARP messages to 83% of
other devices.  Interestingly, while only 58% of devices in our testbed
respond to Echo's broadcast ARP scans, all of them reply to the unicast
ones...  Six devices also send requests for public IPs."

This module extracts all of that from a capture: who sweeps, who
unicast-probes, per-device response rates to broadcast vs unicast
requests, and public-IP probing.  It reads the index's ARP rows and
materializes no other packet.
"""

from __future__ import annotations

import ipaddress
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.arp import ArpOp
from repro.net.index import CaptureIndex


@dataclass
class ArpScanner:
    """One device observed scanning via ARP."""

    device: str
    broadcast_targets: Set[str] = field(default_factory=set)
    unicast_targets: Set[str] = field(default_factory=set)
    public_targets: Set[str] = field(default_factory=set)

    @property
    def is_sweeper(self) -> bool:
        """Swept a large slice of the IP space via broadcast."""
        return len(self.broadcast_targets) >= 64


@dataclass
class ArpAnalysis:
    """The §5.1 ARP findings for one capture."""

    scanners: Dict[str, ArpScanner] = field(default_factory=dict)
    #: device -> (requests received, replies sent) for broadcast requests
    broadcast_behaviour: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    unicast_behaviour: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def sweepers(self) -> List[str]:
        return sorted(name for name, scanner in self.scanners.items() if scanner.is_sweeper)

    def public_ip_probers(self) -> List[str]:
        return sorted(
            name for name, scanner in self.scanners.items() if scanner.public_targets
        )

    def broadcast_response_rate(self) -> float:
        """Fraction of queried devices that answered broadcast requests."""
        queried = [pair for pair in self.broadcast_behaviour.values() if pair[0] > 0]
        if not queried:
            return 0.0
        return sum(1 for requests, replies in queried if replies > 0) / len(queried)

    def unicast_response_rate(self) -> float:
        queried = [pair for pair in self.unicast_behaviour.values() if pair[0] > 0]
        if not queried:
            return 0.0
        return sum(1 for requests, replies in queried if replies > 0) / len(queried)

    def unicast_probe_coverage(self, scanner: str, device_count: int) -> float:
        """Fraction of other devices a scanner unicast-probed (Echo: 83%)."""
        entry = self.scanners.get(scanner)
        if entry is None or device_count <= 1:
            return 0.0
        return len(entry.unicast_targets) / (device_count - 1)


def analyze_arp(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    device_ips: Optional[Dict[str, str]] = None,
) -> ArpAnalysis:
    """Extract ARP scanning/response behaviour from a capture.

    ``device_ips`` maps device name -> IP; when omitted it is inferred
    from gratuitous ARP and replies in the capture.
    """
    analysis = ArpAnalysis()
    inferred_ips: Dict[str, str] = dict(device_ips or {})
    table = index.table
    src_col, dst_col = table.src_mac, table.dst_mac
    # One device_macs lookup per interned MAC, not per packet.
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    # (row id, sending device, packet) of each mapped sender's ARP row.
    rows = [(rid, device_of[src_col[rid]], table.packet(rid))
            for rid in index.arp if device_of[src_col[rid]] is not None]

    # Infer IPs from ARP sender fields when not provided.
    if not device_ips:
        for _, sender, packet in rows:
            if packet.arp.sender_ip != "0.0.0.0":
                inferred_ips.setdefault(sender, packet.arp.sender_ip)
    ip_to_device = {ip: name for name, ip in inferred_ips.items()}

    broadcast_requests: Dict[str, int] = defaultdict(int)
    unicast_requests: Dict[str, int] = defaultdict(int)
    broadcast_replies: Dict[str, int] = defaultdict(int)
    unicast_replies: Dict[str, int] = defaultdict(int)
    #: (requester, target) -> (timestamp, mode) of the latest request,
    #: so a reply is credited to the request that elicited it.
    last_request: Dict[Tuple[str, str], Tuple[float, str]] = {}
    reply_window = 5.0

    for rid, sender, packet in rows:
        arp = packet.arp
        if arp.op is ArpOp.REQUEST:
            scanner = analysis.scanners.get(sender)
            if scanner is None:
                scanner = analysis.scanners[sender] = ArpScanner(device=sender)
            target_device = ip_to_device.get(arp.target_ip)
            try:
                is_public = not ipaddress.ip_address(arp.target_ip).is_private
            except ValueError:
                is_public = False
            if is_public:
                scanner.public_targets.add(arp.target_ip)
            if packet.frame.is_broadcast:
                if arp.sender_ip != arp.target_ip:  # exclude gratuitous
                    scanner.broadcast_targets.add(arp.target_ip)
                    if target_device is not None and target_device != sender:
                        broadcast_requests[target_device] += 1
                        last_request[(sender, target_device)] = (packet.timestamp, "broadcast")
            else:
                scanner.unicast_targets.add(arp.target_ip)
                if target_device is not None and target_device != sender:
                    unicast_requests[target_device] += 1
                    last_request[(sender, target_device)] = (packet.timestamp, "unicast")
        elif arp.op is ArpOp.REPLY:
            requester = device_of[dst_col[rid]]
            if requester is None:
                continue
            entry = last_request.get((requester, sender))
            if entry is None:
                continue
            requested_at, mode = entry
            if not 0.0 <= packet.timestamp - requested_at <= reply_window:
                continue
            if mode == "unicast":
                unicast_replies[sender] += 1
            else:
                broadcast_replies[sender] += 1

    names = set(broadcast_requests) | set(broadcast_replies)
    for name in names:
        analysis.broadcast_behaviour[name] = (
            broadcast_requests.get(name, 0), broadcast_replies.get(name, 0),
        )
    names = set(unicast_requests) | set(unicast_replies)
    for name in names:
        analysis.unicast_behaviour[name] = (
            unicast_requests.get(name, 0), unicast_replies.get(name, 0),
        )
    return analysis
