"""Declarative models of mobile apps and embedded third-party SDKs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class AppCategory(str, enum.Enum):
    IOT = "iot"
    REGULAR = "regular"


class Identifier(str, enum.Enum):
    """Identifier classes apps harvest and upload (§6.1)."""

    DEVICE_MAC = "device_mac"  # MACs of IoT devices on the LAN
    ROUTER_MAC = "router_mac"  # the Wi-Fi AP / BSSID
    ROUTER_SSID = "router_ssid"
    WIFI_MAC = "wifi_mac"  # the phone's own Wi-Fi MAC
    DEVICE_UUID = "device_uuid"
    DEVICE_MODEL = "device_model"
    GEOLOCATION = "geolocation"
    AAID = "aaid"  # Android Advertising ID
    ANDROID_ID = "android_id"
    TPLINK_IDS = "tplink_ids"  # deviceId / hwId / oemId from TPLINK-SHP
    HOSTNAMES = "hostnames"
    SCREEN_DEVICE_LIST = "screen_device_list"  # UPnP devices with screens


class ScanProtocol(str, enum.Enum):
    MDNS = "mdns"
    SSDP = "ssdp"
    NETBIOS = "netbios"
    ARP = "arp"
    TPLINK_SHP = "tplink_shp"


@dataclass
class ExfilRule:
    """One upload behaviour: these identifiers go to that endpoint."""

    endpoint: str  # e.g. "gw.innotechworld.com"
    identifiers: List[Identifier]
    party: str = "third"  # "first" or "third"
    sdk: Optional[str] = None  # SDK responsible, None = app's own code
    encode_base64: bool = False  # AppDynamics-style URL parameters


@dataclass
class SdkModel:
    """A third-party SDK embedded in host apps.

    SDKs "inherit the same privileges as the host app" (§2.1), so scan
    behaviours execute regardless of what the app developer intended.
    """

    name: str
    vendor: str
    purpose: str  # "analytics", "advertising", "monetization", "apm"
    scan_protocols: List[ScanProtocol] = field(default_factory=list)
    exfil: List[ExfilRule] = field(default_factory=list)
    #: innosdk: the scan payload is generated algorithmically rather
    #: than stored as a constant, "perhaps to avoid being detected as
    #: obvious malware" (§6.2).
    algorithmic_payload: bool = False
    #: innosdk: probes every IP in 192.168.0.0/24 regardless of liveness.
    scans_entire_prefix: bool = False


@dataclass
class AppModel:
    """One Play-Store app in the dataset."""

    package: str
    name: str
    category: AppCategory
    permissions: List[str] = field(default_factory=list)
    sdks: List[SdkModel] = field(default_factory=list)
    scan_protocols: List[ScanProtocol] = field(default_factory=list)
    #: Vendors whose devices this app is a companion for (pairing scope).
    companion_vendors: List[str] = field(default_factory=list)
    exfil: List[ExfilRule] = field(default_factory=list)
    uses_tls_to_devices: bool = False
    #: Apps that *receive* device MACs in downlink traffic (§6.1: 13
    #: companion apps got MACs of other LAN devices from cloud).
    receives_downlink_macs: bool = False

    @property
    def all_scan_protocols(self) -> List[ScanProtocol]:
        protocols = list(self.scan_protocols)
        for sdk in self.sdks:
            for protocol in sdk.scan_protocols:
                if protocol not in protocols:
                    protocols.append(protocol)
        return protocols

    @property
    def all_exfil_rules(self) -> List[ExfilRule]:
        rules = list(self.exfil)
        for sdk in self.sdks:
            rules.extend(sdk.exfil)
        return rules

    def has_sdk(self, name: str) -> bool:
        return any(sdk.name == name for sdk in self.sdks)
