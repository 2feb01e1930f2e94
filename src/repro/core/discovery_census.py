"""§5.1 discovery-protocol censuses: DHCP options and mDNS services.

DHCP: "86 devices actively request 30 different data types from other
devices using DHCP ... including unexpected requests associated with
deprecated standards (e.g., SMTP Server, Name Server, and Root Path).
We identified hostnames for 67% of devices, and 16 unique DHCP client
versions from 40% of devices.  We find that 37 devices ... use old or
custom DHCP client versions."

mDNS: "queries and responses reveal hostnames representing the services
supported by the device, such as casting (e.g., Viziocast), printing
(e.g., IPP), platform-specific services (e.g., Alexa), commercial
streaming services (e.g., Spotify), IoT standards (e.g., Matter,
Thread), and networking protocols (e.g., Bonjour Sleep Proxy)."
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.net.index import CaptureIndex
from repro.protocols.dhcp import DhcpMessage, DhcpOption
from repro.protocols.dns import DnsMessage, DnsType

#: Option codes from standards the paper calls deprecated/unexpected.
DEPRECATED_OPTIONS = {
    int(DhcpOption.NAME_SERVER),  # IEN-116 name server
    int(DhcpOption.ROOT_PATH),
    int(DhcpOption.SMTP_SERVER),
    int(DhcpOption.LOG_SERVER),
    int(DhcpOption.LPR_SERVER),
}

#: Client version strings considered old or custom (§5.1's 37 devices).
_OLD_PREFIXES = ("udhcp 0.", "udhcp 1.1", "udhcp 1.2", "dhcpcd-5", "dhcpcd-6")


@dataclass
class DhcpCensus:
    """The §5.1 DHCP findings for one capture."""

    requesting_devices: Set[str] = field(default_factory=set)
    requested_options: Set[int] = field(default_factory=set)
    hostnames: Dict[str, str] = field(default_factory=dict)
    client_versions: Dict[str, str] = field(default_factory=dict)
    deprecated_requesters: Set[str] = field(default_factory=set)

    @property
    def unique_client_versions(self) -> Set[str]:
        return set(self.client_versions.values())

    def old_or_custom_clients(self) -> Set[str]:
        """Devices running old/custom DHCP clients (paper: 37)."""
        old = set()
        for device, version in self.client_versions.items():
            lowered = version.lower()
            if lowered.startswith(_OLD_PREFIXES) or not lowered.startswith(("udhcp", "dhcpcd")):
                old.add(device)
        return old

    def hostname_fraction(self, total_devices: int) -> float:
        return len(self.hostnames) / total_devices if total_devices else 0.0

    def version_fraction(self, total_devices: int) -> float:
        return len(self.client_versions) / total_devices if total_devices else 0.0


def dhcp_census(index: CaptureIndex, device_macs: Dict[str, str]) -> DhcpCensus:
    """Mine DHCP requests for the §5.1 option/hostname/version stats."""
    census = DhcpCensus()
    table = index.table
    src_col, dport_col = table.src_mac, table.dst_port
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    for rid in index.udp:
        if dport_col[rid] != 67:
            continue
        device = device_of[src_col[rid]]
        if device is None:
            continue
        try:
            message = DhcpMessage.decode(table.app_payload(rid))
        except ValueError:
            continue
        if message.op != 1:
            continue
        parameters = message.parameter_request_list
        if parameters:
            census.requesting_devices.add(device)
            census.requested_options.update(parameters)
            if DEPRECATED_OPTIONS & set(parameters):
                census.deprecated_requesters.add(device)
        if message.hostname:
            census.hostnames[device] = message.hostname
        if message.vendor_class:
            census.client_versions[device] = message.vendor_class
    return census


#: mDNS service-type -> the §5.1 service family it reveals.
SERVICE_FAMILIES = {
    "casting": ("_googlecast.", "_viziocast.", "_airplay.", "_raop.", "_amzn-wplay."),
    "printing": ("_ipp.", "_printer.", "_pdl-datastream."),
    "platform": ("_amzn-alexa.", "_hap.", "_hue.", "_nest.", "_smartthings.",
                 "_companion-link.", "_meross-dev.", "_lg-smart-device.",
                 "_androidtvremote2.", "_arlo-video.", "_nest-cam.", "_dcp.",
                 "_rsp.", "_coap."),
    "streaming": ("_spotify-connect.",),
    "iot-standard": ("_matter.", "_matterc.", "_meshcop."),
    "networking": ("_sleep-proxy.", "_workstation.", "_dns-sd."),
}


@dataclass
class MdnsServiceCensus:
    """Which mDNS service families each device reveals."""

    by_family: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))
    service_types: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))

    def families_of(self, device: str) -> List[str]:
        return sorted(
            family for family, members in self.by_family.items() if device in members
        )

    def devices_revealing(self, family: str) -> Set[str]:
        return set(self.by_family.get(family, ()))


def classify_service(name: str) -> Optional[str]:
    for family, prefixes in SERVICE_FAMILIES.items():
        if any(prefix in name for prefix in prefixes):
            return family
    return None


def mdns_service_census(
    index: CaptureIndex, device_macs: Dict[str, str]
) -> MdnsServiceCensus:
    """Mine mDNS traffic for the service families devices reveal."""
    census = MdnsServiceCensus()
    table = index.table
    src_col = table.src_mac
    sport_col, dport_col = table.src_port, table.dst_port
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    for rid in index.udp:
        if sport_col[rid] != 5353 and dport_col[rid] != 5353:
            continue
        device = device_of[src_col[rid]]
        if device is None:
            continue
        try:
            message = DnsMessage.decode(table.app_payload(rid))
        except ValueError:
            continue
        names: List[str] = [question.name for question in message.questions]
        for record in message.all_records:
            names.append(record.name)
            if record.rtype == DnsType.PTR:
                target = record.ptr_target()
                if target:
                    names.append(target)
        for name in names:
            family = classify_service(name)
            if family is not None:
                census.by_family[family].add(device)
                census.service_types[device].add(name.split(".")[0] if name.startswith("_") else name)
    return census
