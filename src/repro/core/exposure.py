"""Tables 1 and 5: information exposure via discovery protocols.

Walks a capture, parses every distinct discovery-protocol payload once
with the real codecs, and records which identifier classes each
protocol exposed for each device.  Column names match Table 1.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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
#: One mined exposure: (protocol, identifier type, example value).
Exposure = Tuple[str, str, str]
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

    A miner is a pure function of the payload, and devices repeat their
    announcements, so each distinct (miner, payload) pair is mined once
    per call; its exposures are then replayed for every occurrence, in
    capture order, because :attr:`ExposureMatrix.examples` keeps each
    occurrence.  The memo does not outlive the call.

    ``matrix`` accumulates into an existing matrix — the hook
    :class:`repro.monitor.state.IncrementalExposure` uses to run this
    exact mining pass chunk by chunk.
    """
    matrix = matrix if matrix is not None else ExposureMatrix()
    expose = matrix.expose
    table = index.table
    src_col = table.src_mac
    sport_col, dport_col = table.src_port, table.dst_port
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    for rid in index.arp:
        device = device_of[src_col[rid]]
        if device is not None:
            expose("ARP", "MAC", device, table.arp_sender_mac(rid))
    mined: Dict[Tuple[Callable, bytes], List[Exposure]] = {}
    for rid in index.udp:
        device = device_of[src_col[rid]]
        if device is None:
            continue
        ports = (sport_col[rid], dport_col[rid])
        if 67 in ports or 68 in ports:
            miner = _mine_dhcp
        elif 5353 in ports:
            miner = _mine_mdns
        elif 1900 in ports:
            miner = _mine_ssdp
        elif 6666 in ports or 6667 in ports:
            miner = _mine_tuyalp
        elif 9999 in ports:
            miner = _mine_tplink
        else:
            continue
        key = (miner, table.app_payload(rid))
        exposures = mined.get(key)
        if exposures is None:
            exposures = mined[key] = miner(key[1])
        for protocol, identifier_type, example in exposures:
            expose(protocol, identifier_type, device, example)
    return matrix


def _mine_dhcp(payload: bytes) -> List[Exposure]:
    try:
        message = DhcpMessage.decode(payload)
    except ValueError:
        return []
    if message.op != 1:
        return []
    found = [("DHCP", "MAC", str(message.client_mac))]
    hostname = message.hostname
    if hostname:
        if _DISPLAY_NAME_RE.search(hostname.replace("-", " ")):
            found.append(("DHCP", "Display name", hostname))
        else:
            found.append(("DHCP", "Device/Model", hostname))
    vendor_class = message.vendor_class
    if vendor_class:
        found.append(("DHCP", "OS Version", vendor_class))
        if _is_old_client(vendor_class):
            found.append(("DHCP", "Outdated OS/SW", vendor_class))
    return found


def _mine_mdns(payload: bytes) -> List[Exposure]:
    try:
        message = DnsMessage.decode(payload)
    except ValueError:
        return []
    if not message.is_response:
        return []
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
    found = [("mDNS", "Device/Model", text_chunks[0] if text_chunks else "")]
    for match in _UUID_RE.finditer(text):
        found.append(("mDNS", "UUIDs", match.group(0)))
    for match in _MAC_TOKEN_RE.finditer(text.replace("fffe", "")):
        token = match.group(0)
        if len(token) >= 6:
            found.append(("mDNS", "MAC", token))
    if _DISPLAY_NAME_RE.search(text.replace("-", " ")):
        found.append(("mDNS", "Display name", text[:60]))
    return found


def _mine_ssdp(payload: bytes) -> List[Exposure]:
    try:
        message = SsdpMessage.decode(payload)
    except ValueError:
        return []
    found = []
    uuid_token = message.uuid()
    if uuid_token:
        found.append(("SSDP", "UUIDs", uuid_token))
    server = message.server
    if server:
        found.append(("SSDP", "OS Version", server))
        found.append(("SSDP", "Device/Model", server))
        if "UPnP/1.0" in server:
            found.append(("SSDP", "Outdated OS/SW", server))
    usn = message.usn or ""
    for match in _MAC_TOKEN_RE.finditer(usn):
        found.append(("SSDP", "MAC", match.group(0)))
    return found


def _mine_tuyalp(payload: bytes) -> List[Exposure]:
    try:
        message = TuyaLpMessage.decode(payload)
    except ValueError:
        return []
    if message.encrypted:
        return []  # only plaintext broadcasts leak (the Jinvoo case)
    found = []
    if message.gw_id:
        found.append(("TuyaLP", "GW id", message.gw_id))
    if message.product_key:
        found.append(("TuyaLP", "Prod. Key", message.product_key))
    return found


def _mine_tplink(payload: bytes) -> List[Exposure]:
    try:
        message = TplinkShpMessage.decode(payload)
    except ValueError:
        return []
    info = message.sysinfo
    if not info:
        return []
    found = []
    if "mac" in info:
        found.append(("TPLINK", "MAC", str(info["mac"])))
    if "model" in info:
        found.append(("TPLINK", "Device/Model", str(info["model"])))
    if "oemId" in info:
        found.append(("TPLINK", "OEM id", str(info["oemId"])))
    if "latitude" in info and "longitude" in info:
        found.append(("TPLINK", "Geolocation", f"{info['latitude']},{info['longitude']}"))
    if "sw_ver" in info:
        found.append(("TPLINK", "Outdated OS/SW", str(info["sw_ver"])))
    return found


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
