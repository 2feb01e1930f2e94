"""Tables 1 and 5: information exposure via discovery protocols.

Walks a capture, parses every discovery-protocol payload with the real
codecs, and records which identifier classes each protocol exposed for
each device.  Column names match Table 1.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.index import CaptureIndex
from repro.protocols.dhcp import DhcpMessage
from repro.protocols.dns import DnsMessage, DnsType
from repro.protocols.ssdp import SsdpMessage
from repro.protocols.tplink_shp import TplinkShpMessage
from repro.protocols.tuyalp import TuyaLpMessage

#: Table 1 column names.
EXPOSURE_TYPES = [
    "MAC",
    "Device/Model",
    "OS Version",
    "Display name",
    "UUIDs",
    "GW id",
    "Prod. Key",
    "OEM id",
    "Geolocation",
    "Outdated OS/SW",
]

#: Table 1 row names.
EXPOSURE_PROTOCOLS = ["ARP", "DHCP", "mDNS", "SSDP", "TuyaLP", "TPLINK"]

_UUID_RE = re.compile(
    r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}"
)
_MAC_TOKEN_RE = re.compile(r"(?:[0-9a-fA-F]{2}[:-]){5}[0-9a-fA-F]{2}|[0-9a-fA-F]{12}")
_DISPLAY_NAME_RE = re.compile(r"[A-Z][a-z]+(?:[-\s][A-Z][a-z]+)*'s")
#: DHCP vendor-class versions at or below these are "old" (§5.1).
_OLD_CLIENTS = [("udhcp", (1, 25)), ("dhcpcd", (7, 0))]


@dataclass
class ExposureMatrix:
    """protocol -> identifier type -> set of exposing devices."""

    cells: Dict[str, Dict[str, Set[str]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(set))
    )
    #: (protocol, device) -> example values, for Table 5-style reporting.
    examples: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)

    def expose(self, protocol: str, identifier_type: str, device: str, example: str = "") -> None:
        self.cells[protocol][identifier_type].add(device)
        if example:
            self.examples.setdefault((protocol, identifier_type), []).append(example)

    def exposed_types(self, protocol: str) -> List[str]:
        return [t for t in EXPOSURE_TYPES if self.cells.get(protocol, {}).get(t)]

    def devices_exposing(self, protocol: str, identifier_type: str) -> Set[str]:
        return set(self.cells.get(protocol, {}).get(identifier_type, ()))

    def as_boolean_table(self) -> Dict[str, Dict[str, bool]]:
        """The checkmark matrix of Table 1."""
        return {
            protocol: {
                identifier_type: bool(self.cells.get(protocol, {}).get(identifier_type))
                for identifier_type in EXPOSURE_TYPES
            }
            for protocol in EXPOSURE_PROTOCOLS
        }


def _is_old_client(vendor_class: str) -> bool:
    lowered = vendor_class.lower()
    for client, threshold in _OLD_CLIENTS:
        if lowered.startswith(client):
            match = re.search(r"(\d+)\.(\d+)", lowered)
            if match and (int(match.group(1)), int(match.group(2))) <= threshold:
                return True
    return "custom" in lowered or lowered.startswith(("samsung", "lg", "nintendo"))


def analyze_exposure(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    matrix: Optional[ExposureMatrix] = None,
) -> ExposureMatrix:
    """Mine a capture for Table 1's exposure matrix.

    Consumes the index's chronological ARP and UDP buckets instead of
    scanning every packet; example ordering per (protocol, identifier)
    cell is unchanged because each cell draws from a single bucket.

    ``matrix`` accumulates into an existing matrix — the hook
    :class:`repro.monitor.state.IncrementalExposure` uses to run this
    exact mining pass chunk by chunk.
    """
    matrix = matrix if matrix is not None else ExposureMatrix()
    table = index.table
    src_col = table.src_mac
    sport_col, dport_col = table.src_port, table.dst_port
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    for rid in index.arp:
        device = device_of[src_col[rid]]
        if device is not None:
            matrix.expose("ARP", "MAC", device, table.arp_sender_mac(rid))
    for rid in index.udp:
        device = device_of[src_col[rid]]
        if device is None:
            continue
        ports = (sport_col[rid], dport_col[rid])
        if 67 in ports or 68 in ports:
            _mine_dhcp(matrix, device, table.app_payload(rid))
        elif 5353 in ports:
            _mine_mdns(matrix, device, table.app_payload(rid))
        elif 1900 in ports:
            _mine_ssdp(matrix, device, table.app_payload(rid))
        elif 6666 in ports or 6667 in ports:
            _mine_tuyalp(matrix, device, table.app_payload(rid))
        elif 9999 in ports:
            _mine_tplink(matrix, device, table.app_payload(rid))
    return matrix


def _mine_dhcp(matrix: ExposureMatrix, device: str, payload: bytes) -> None:
    try:
        message = DhcpMessage.decode(payload)
    except ValueError:
        return
    if message.op != 1:
        return
    matrix.expose("DHCP", "MAC", device, str(message.client_mac))
    hostname = message.hostname
    if hostname:
        if _DISPLAY_NAME_RE.search(hostname.replace("-", " ")):
            matrix.expose("DHCP", "Display name", device, hostname)
        else:
            matrix.expose("DHCP", "Device/Model", device, hostname)
    vendor_class = message.vendor_class
    if vendor_class:
        matrix.expose("DHCP", "OS Version", device, vendor_class)
        if _is_old_client(vendor_class):
            matrix.expose("DHCP", "Outdated OS/SW", device, vendor_class)


def _mine_mdns(matrix: ExposureMatrix, device: str, payload: bytes) -> None:
    try:
        message = DnsMessage.decode(payload)
    except ValueError:
        return
    if not message.is_response:
        return
    text_chunks: List[str] = []
    for record in message.all_records:
        text_chunks.append(record.name)
        if record.rtype == DnsType.PTR:
            target = record.ptr_target()
            if target:
                text_chunks.append(target)
        elif record.rtype == DnsType.TXT:
            text_chunks.extend(f"{k}={v}" for k, v in record.txt_entries().items())
        elif record.rtype == DnsType.SRV:
            srv = record.srv_target()
            if srv:
                text_chunks.append(srv[0])
    text = " ".join(text_chunks)
    matrix.expose("mDNS", "Device/Model", device, text_chunks[0] if text_chunks else "")
    for match in _UUID_RE.finditer(text):
        matrix.expose("mDNS", "UUIDs", device, match.group(0))
    for match in _MAC_TOKEN_RE.finditer(text.replace("fffe", "")):
        token = match.group(0)
        if len(token) >= 6:
            matrix.expose("mDNS", "MAC", device, token)
    if _DISPLAY_NAME_RE.search(text.replace("-", " ")):
        matrix.expose("mDNS", "Display name", device, text[:60])


def _mine_ssdp(matrix: ExposureMatrix, device: str, payload: bytes) -> None:
    try:
        message = SsdpMessage.decode(payload)
    except ValueError:
        return
    uuid_token = message.uuid()
    if uuid_token:
        matrix.expose("SSDP", "UUIDs", device, uuid_token)
    server = message.server
    if server:
        matrix.expose("SSDP", "OS Version", device, server)
        matrix.expose("SSDP", "Device/Model", device, server)
        if "UPnP/1.0" in server:
            matrix.expose("SSDP", "Outdated OS/SW", device, server)
    usn = message.usn or ""
    for match in _MAC_TOKEN_RE.finditer(usn):
        matrix.expose("SSDP", "MAC", device, match.group(0))


def _mine_tuyalp(matrix: ExposureMatrix, device: str, payload: bytes) -> None:
    try:
        message = TuyaLpMessage.decode(payload)
    except ValueError:
        return
    if message.encrypted:
        return  # only plaintext broadcasts leak (the Jinvoo case)
    if message.gw_id:
        matrix.expose("TuyaLP", "GW id", device, message.gw_id)
    if message.product_key:
        matrix.expose("TuyaLP", "Prod. Key", device, message.product_key)


def _mine_tplink(matrix: ExposureMatrix, device: str, payload: bytes) -> None:
    try:
        message = TplinkShpMessage.decode(payload)
    except ValueError:
        return
    info = message.sysinfo
    if not info:
        return
    if "mac" in info:
        matrix.expose("TPLINK", "MAC", device, str(info["mac"]))
    if "model" in info:
        matrix.expose("TPLINK", "Device/Model", device, str(info["model"]))
    if "oemId" in info:
        matrix.expose("TPLINK", "OEM id", device, str(info["oemId"]))
    if "latitude" in info and "longitude" in info:
        matrix.expose(
            "TPLINK", "Geolocation", device, f"{info['latitude']},{info['longitude']}"
        )
    if "sw_ver" in info:
        matrix.expose("TPLINK", "Outdated OS/SW", device, str(info["sw_ver"]))


def payload_examples() -> Dict[str, str]:
    """Table 5: canonical payloads exposing device information.

    Rebuilt from the codecs (not hard-coded strings) so the examples
    stay true to what the simulator actually emits.
    """
    from repro.protocols.netbios import NetbiosNsQuery
    from repro.protocols.ssdp import device_description_xml

    ssdp_xml = device_description_xml(
        friendly_name="AMC020SC43PJ749D66",
        manufacturer="Amcrest",
        model_name="AMC020SC43PJ749D66",
        udn="device_3_0-AMC020SC43PJ749D66",
        serial_number="9c:8e:cd:0a:33:1b",
        services=["urn:schemas-upnp-org:service:AVTransport:1"],
    )
    tplink = TplinkShpMessage.sysinfo_response(
        alias="TP-Link Plug",
        device_id="8006E8E9017F556D283C850B4E29BC1F185334E5",
        hw_id="60FF6B258734EA6880E186F8C96DDC61",
        oem_id="FFF22CFF774A0B89F7624BFC6F50D5DE",
        model="HS110(US)",
        dev_name="Wi-Fi Smart Plug With Energy Monitoring",
        latitude=42.337681,
        longitude=-71.087036,
        mac="50:C7:BF:AA:BB:CC",
    )
    import json

    from repro.protocols.mdns import ServiceAdvertisement, hue_instance_name

    hue = ServiceAdvertisement(
        service_type="_hue._tcp.local",
        instance_name=hue_instance_name("00:17:88:68:5f:61"),
        hostname="Philips-hue.local",
        port=443,
        address="192.168.10.12",
        txt={"bridgeid": "001788FFFE685F61"},
    )
    netbios = NetbiosNsQuery()
    return {
        "SSDP": ssdp_xml,
        "mDNS": f"{hue.full_instance}: type TXT | PTR {hue.service_type} -> {hue.full_instance}",
        "NetBIOS": netbios.encode().hex(" "),
        "TPLINK-SHP": json.dumps(tplink.body, indent=1),
    }
