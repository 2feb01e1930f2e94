"""Schema of the crowdsourced dataset (§3.3).

IoT Inspector collects: source/destination IPs and ports, device IDs
(HMAC-SHA256 of the MAC with a per-user salt), byte counts over
five-second windows, DHCP/DNS hostnames, and full mDNS and SSDP
responses.  It does *not* collect other payloads.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, List


def hashed_device_id(mac: str, user_salt: bytes) -> str:
    """The privacy-preserving device id: HMAC-SHA256(salt, MAC) (§3.3)."""
    digest = hmac.new(user_salt, mac.lower().encode("utf-8"), hashlib.sha256)
    return digest.hexdigest()


@dataclass
class FlowRecord:
    """Bytes sent/received by a device over one five-second window."""

    window_start: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    transport: str
    bytes_sent: int
    bytes_received: int


@dataclass
class InspectedDevice:
    """One device as IoT Inspector records it."""

    device_id: str  # HMAC of MAC (what the dataset actually stores)
    oui: str  # first three MAC octets (collected for vendor inference)
    dhcp_hostname: str = ""
    mdns_responses: List[bytes] = field(default_factory=list)
    ssdp_responses: List[bytes] = field(default_factory=list)
    hostnames_contacted: List[str] = field(default_factory=list)
    user_label_vendor: str = ""  # crowdsourced, possibly misspelled
    user_label_category: str = ""
    # Ground truth kept by the generator for validation only (a real
    # crowdsourced dataset does not have these).
    truth_vendor: str = ""
    truth_category: str = ""
    truth_mac: str = ""

    @property
    def truth_product(self) -> str:
        """The paper's product unit: a vendor-category combination."""
        return f"{self.truth_vendor}/{self.truth_category}"

    def all_payload_text(self) -> str:
        """Concatenated decodable text of all collected payloads."""
        chunks: List[str] = []
        for payload in self.mdns_responses + self.ssdp_responses:
            chunks.append(payload.decode("utf-8", "replace"))
        return "\n".join(chunks)


@dataclass
class Household:
    """One participating user/household."""

    user_id: str
    devices: List[InspectedDevice] = field(default_factory=list)
    flows: List[FlowRecord] = field(default_factory=list)

    @property
    def device_count(self) -> int:
        return len(self.devices)


@dataclass
class InspectorDataset:
    """The full crowdsourced corpus."""

    households: List[Household] = field(default_factory=list)

    @property
    def device_count(self) -> int:
        return sum(household.device_count for household in self.households)

    @property
    def household_count(self) -> int:
        return len(self.households)

    def all_devices(self) -> List[InspectedDevice]:
        return [device for household in self.households for device in household.devices]

    def vendors(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for device in self.all_devices():
            counts[device.truth_vendor] = counts.get(device.truth_vendor, 0) + 1
        return counts

    def products(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for device in self.all_devices():
            counts[device.truth_product] = counts.get(device.truth_product, 0) + 1
        return counts
