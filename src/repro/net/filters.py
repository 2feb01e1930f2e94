"""The Appendix C.1 local-traffic filter.

The paper keeps a packet when any of the following hold::

    (ip.dst in LAN/24 and ip.src in LAN/24)   # local IP unicast
    or (eth.dst.ig == 1)                      # multicast/broadcast
    or (eth.dst.ig == 0 and not ip)           # non-IP unicast (ARP, EAPOL)

We reproduce the same three-clause predicate over decoded packets.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, List

from repro.net.decode import DecodedPacket


class LocalTrafficFilter:
    """Select local-network traffic exactly as Appendix C.1 does."""

    def __init__(self, local_network: str = "192.168.10.0/24"):
        self.network = ipaddress.ip_network(local_network)

    def _in_subnet(self, address: str) -> bool:
        try:
            parsed = ipaddress.ip_address(address)
        except ValueError:
            return False
        if parsed.version != self.network.version:
            return False
        return parsed in self.network

    def matches(self, packet: DecodedPacket) -> bool:
        # Clause 2: multicast/broadcast (I/G bit set on destination MAC).
        if packet.frame.is_multicast:
            return True
        # Clause 3: unicast but not IP (ARP, EAPOL, LLC...).
        has_ip = packet.ipv4 is not None or packet.ipv6 is not None
        if not has_ip:
            return True
        # Clause 1: both IP endpoints inside the local subnet.
        if packet.ipv4 is not None:
            return self._in_subnet(packet.ipv4.src) and self._in_subnet(packet.ipv4.dst)
        # IPv6 local traffic: keep link-local and ULA conversations.
        src = ipaddress.ip_address(packet.ipv6.src)
        dst = ipaddress.ip_address(packet.ipv6.dst)
        return not src.is_global and not dst.is_global

    def apply(self, packets: Iterable[DecodedPacket]) -> List[DecodedPacket]:
        return [packet for packet in packets if self.matches(packet)]


def is_private_conversation(src_ip: str, dst_ip: str) -> bool:
    """True when both addresses are in ranges reserved for private networks.

    This is the filter applied to the IoT Inspector dataset (§3.3): "We
    consider only traffic whose source and destination IP addresses are
    in ranges reserved for private networks".
    """
    try:
        src = ipaddress.ip_address(src_ip)
        dst = ipaddress.ip_address(dst_ip)
    except ValueError:
        return False
    return src.is_private and dst.is_private
