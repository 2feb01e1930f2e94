"""The AppCensus-style instrumented runtime (§3.2).

An :class:`InstrumentedPhone` joins the simulated LAN, executes an
:class:`AppModel` for a Monkey-style session, and records the three
observable streams the paper's analysis consumes:

* permission-protected API accesses (granted and denied),
* local network traffic the app generates (real frames on the LAN),
* decrypted cloud-bound flows (the TLS-MITM view), with the concrete
  identifier values the app harvested.
"""

from __future__ import annotations

import base64
import ipaddress
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.apps.android import (
    AndroidApi,
    AndroidPermission,
    AndroidVersion,
    PermissionDenied,
    PermissionModel,
)
from repro.apps.appmodel import AppModel, Identifier, ScanProtocol
from repro.devices.behaviors import DeviceNode
from repro.net.decode import DecodedPacket
from repro.obs import get_obs
from repro.protocols.dns import DnsMessage
from repro.protocols.mdns import (
    MDNS_GROUP_V4,
    MDNS_PORT,
    ServiceAdvertisement,
    encode_advertisements,
    mdns_query,
)
from repro.protocols.netbios import NetbiosNsQuery
from repro.protocols.ssdp import SSDP_GROUP_V4, SSDP_PORT, SsdpMessage, ST_ALL, ST_IGD
from repro.protocols.tls import TlsRecord, TlsVersion
from repro.protocols.tplink_shp import TPLINK_SHP_PORT, TplinkShpMessage
from repro.simnet.node import Node


@dataclass
class ApiAccess:
    """One tracked access to a permission-protected Android API."""

    timestamp: float
    api: AndroidApi
    granted: bool
    value: str = ""
    via_side_channel: bool = False


@dataclass
class CloudFlow:
    """One decrypted cloud-bound (or cloud-originated) flow."""

    timestamp: float
    app: str
    endpoint: str
    party: str  # "first" or "third"
    sdk: Optional[str]
    payload: Dict[str, object]
    direction: str = "up"  # "up" (exfiltration) or "down" (downlink)
    encoded_base64: bool = False

    def payload_values(self) -> List[str]:
        values: List[str] = []
        for value in self.payload.values():
            if isinstance(value, (list, tuple, set)):
                values.extend(str(item) for item in value)
            else:
                values.append(str(value))
        return values


@dataclass
class AppRunResult:
    """Everything the instrumented runtime observed for one app session."""

    app: AppModel
    api_accesses: List[ApiAccess] = field(default_factory=list)
    cloud_flows: List[CloudFlow] = field(default_factory=list)
    harvested: Dict[Identifier, Set[str]] = field(default_factory=dict)
    protocols_used: Set[str] = field(default_factory=set)
    lan_packets_sent: int = 0

    def harvested_values(self, identifier: Identifier) -> Set[str]:
        return self.harvested.get(identifier, set())

    def uploads_of(self, identifier: Identifier) -> List[CloudFlow]:
        return [
            flow
            for flow in self.cloud_flows
            if flow.direction == "up" and identifier.value in flow.payload
        ]


class InstrumentedPhone(Node):
    """The Pixel 3a running AppCensus instrumentation."""

    def __init__(
        self,
        name: str = "pixel-3a",
        mac: str = "02:00:5e:00:10:01",
        android_version: AndroidVersion = AndroidVersion.PIE,
        ssid: str = "MonIoTr-Lab",
        rng: Optional[random.Random] = None,
    ):
        super().__init__(name=name, mac=mac, ip="0.0.0.0", vendor="Google")
        self.android_version = android_version
        self.permission_model = PermissionModel(android_version)
        self.ssid = ssid
        self.rng = rng if rng is not None else random.Random(0x5EED)
        self.aaid = str(__import__("uuid").UUID(int=self.rng.getrandbits(128)))
        self.android_id = f"{self.rng.getrandbits(64):016x}"
        self.latitude = 42.3376
        self.longitude = -71.0870
        self._inbox: List[DecodedPacket] = []
        self.add_raw_hook(lambda _node, packet: self._inbox.append(packet))

    # -- low-level helpers ---------------------------------------------------------

    def _drain_inbox(self) -> List[DecodedPacket]:
        packets, self._inbox = self._inbox, []
        return packets

    def _settle(self) -> None:
        """Replies in the simulated stack are delivered synchronously, so
        there is nothing to wait for; kept as an explicit sequence point
        for readers used to asynchronous socket APIs."""
        return

    # -- the app session -------------------------------------------------------------

    def run_app(self, app: AppModel, scan_rounds: int = 1) -> AppRunResult:
        """Execute one Monkey-exercised session of ``app``."""
        result = AppRunResult(app=app)
        granted = {
            AndroidPermission(value)
            for value in app.permissions
            if value in AndroidPermission._value2member_map_
        }
        self._track_api(result, AndroidApi.MULTICAST_LOCK, granted)
        if app.package in ("com.tuya.smart", "com.google.android.apps.chromecast.app"):
            # §4.3: "the Tuya and Chromecast companion apps already use
            # the Matter standard to advertise their availability".
            self._advertise_matter_commissioner(result)
        for _ in range(scan_rounds):
            self._run_scans(app, result, granted)
        self._collect_phone_identifiers(app, result, granted)
        self._tls_to_devices(app, result)
        self._emit_cloud_flows(app, result)
        self._receive_downlink(app, result)
        obs = get_obs()
        if obs.enabled:
            metrics = obs.metrics.scoped("apps")
            metrics.counter("runs_total", "app sessions executed").inc()
            metrics.counter(
                "lan_packets_total", "LAN packets sent by app sessions",
            ).inc(result.lan_packets_sent)
            flows = metrics.counter(
                "cloud_flows_total", "cloud flows observed, per SDK")
            for flow in result.cloud_flows:
                flows.inc(sdk=flow.sdk or "app-owned", direction=flow.direction)
            obs.logger("apps").debug(
                "app_run", package=app.package,
                lan_packets=result.lan_packets_sent,
                cloud_flows=len(result.cloud_flows))
        return result

    def _advertise_matter_commissioner(self, result: AppRunResult) -> None:
        advert = ServiceAdvertisement(
            service_type="_matterc._udp.local",
            instance_name=self.android_id.upper(),
            hostname=f"{self.name}.local",
            port=5540,
            address=self.ip,
            txt={"VP": "65521+32769", "CM": "1"},
        )
        self.join_group(MDNS_GROUP_V4)
        self.send_udp(MDNS_GROUP_V4, MDNS_PORT, encode_advertisements([advert]), src_port=MDNS_PORT)
        result.lan_packets_sent += 1
        result.protocols_used.add("matter")

    # -- scanning --------------------------------------------------------------------

    def _run_scans(self, app: AppModel, result: AppRunResult, granted) -> None:
        protocols = app.all_scan_protocols
        if ScanProtocol.MDNS in protocols:
            self._track_api(result, AndroidApi.NSD_DISCOVER_SERVICES, granted)
            self._scan_mdns(result)
        if ScanProtocol.SSDP in protocols:
            self._scan_ssdp(app, result)
        if ScanProtocol.NETBIOS in protocols:
            self._scan_netbios(app, result)
        if ScanProtocol.ARP in protocols:
            self._scan_arp(result)
        if ScanProtocol.TPLINK_SHP in protocols:
            self._scan_tplink(result)

    def _scan_mdns(self, result: AppRunResult) -> None:
        self.join_group(MDNS_GROUP_V4)
        query = mdns_query(
            ["_googlecast._tcp.local", "_hap._tcp.local", "_hue._tcp.local",
             "_airplay._tcp.local", "_amzn-alexa._tcp.local", "_spotify-connect._tcp.local"]
        )
        self.send_udp(MDNS_GROUP_V4, MDNS_PORT, query.encode(), src_port=MDNS_PORT)
        result.lan_packets_sent += 1
        result.protocols_used.add("mdns")
        self._settle()
        for packet in self._drain_inbox():
            if packet.udp is None or packet.udp.src_port != MDNS_PORT:
                continue
            try:
                message = DnsMessage.decode(packet.udp.payload)
            except ValueError:
                continue
            if not message.is_response:
                continue
            for advert in ServiceAdvertisement.from_response(message):
                self._harvest(result, Identifier.HOSTNAMES, advert.hostname)
                self._harvest(result, Identifier.DEVICE_MODEL, advert.instance_name)
                if "id" in advert.txt:
                    self._harvest(result, Identifier.DEVICE_UUID, advert.txt["id"])
            self._harvest(result, Identifier.DEVICE_MAC, str(packet.frame.src))

    def _scan_ssdp(self, app: AppModel, result: AppRunResult) -> None:
        self.join_group(SSDP_GROUP_V4)
        targets = [ST_ALL]
        if app.has_sdk("umlaut-insightCore"):
            targets.append(ST_IGD)  # the IGD-specific discovery (§6.2)
        if app.package.startswith("com.cnn"):
            targets.append("urn:dial-multiscreen-org:service:dial:1")
        for target in targets:
            message = SsdpMessage.msearch(target)
            self.send_udp(SSDP_GROUP_V4, SSDP_PORT, message.encode(), src_port=50123)
            result.lan_packets_sent += 1
        result.protocols_used.add("ssdp")
        self._settle()
        for packet in self._drain_inbox():
            if packet.udp is None or packet.udp.src_port != SSDP_PORT:
                continue
            try:
                message = SsdpMessage.decode(packet.udp.payload)
            except ValueError:
                continue
            uuid_token = message.uuid()
            if uuid_token:
                self._harvest(result, Identifier.DEVICE_UUID, uuid_token)
            if message.server:
                self._harvest(result, Identifier.DEVICE_MODEL, message.server)
            self._harvest(result, Identifier.DEVICE_MAC, str(packet.frame.src))
            self._harvest(result, Identifier.SCREEN_DEVICE_LIST,
                          f"{packet.src_ip}:{message.location or ''}")

    def _scan_netbios(self, app: AppModel, result: AppRunResult) -> None:
        result.protocols_used.add("netbios")
        scans_everything = any(sdk.scans_entire_prefix for sdk in app.sdks)
        if scans_everything:
            # innosdk probes every IP in the /24 regardless of liveness.
            targets = [str(host) for host in ipaddress.ip_network(self.lan.subnet).hosts()]
        else:
            targets = [node.ip for node in self.lan.nodes if node is not self]
        query = NetbiosNsQuery().encode()
        for target in targets:
            self.send_udp(target, 137, query, src_port=137)
            result.lan_packets_sent += 1
        self._settle()
        self._drain_inbox()

    def _scan_arp(self, result: AppRunResult) -> None:
        result.protocols_used.add("arp")
        for host in list(ipaddress.ip_network(self.lan.subnet).hosts())[:254]:
            target = str(host)
            if target == self.ip:
                continue
            self.send_arp_request(target)
            result.lan_packets_sent += 1
        self._settle()
        for packet in self._drain_inbox():
            if packet.arp is not None and packet.arp.op == 2:
                self._harvest(result, Identifier.DEVICE_MAC, str(packet.arp.sender_mac))

    def _scan_tplink(self, result: AppRunResult) -> None:
        result.protocols_used.add("tplink_shp")
        query = TplinkShpMessage.get_sysinfo_query()
        self.send_udp("255.255.255.255", TPLINK_SHP_PORT, query.encode(), src_port=50999)
        result.lan_packets_sent += 1
        self._settle()
        for packet in self._drain_inbox():
            if packet.udp is None or packet.udp.src_port != TPLINK_SHP_PORT:
                continue
            try:
                message = TplinkShpMessage.decode(packet.udp.payload)
            except ValueError:
                continue
            info = message.sysinfo
            if not info:
                continue
            self._harvest(result, Identifier.TPLINK_IDS, info.get("deviceId", ""))
            self._harvest(result, Identifier.TPLINK_IDS, info.get("oemId", ""))
            self._harvest(result, Identifier.DEVICE_MAC, info.get("mac", ""))
            if "latitude" in info:
                self._harvest(
                    result, Identifier.GEOLOCATION,
                    f"{info['latitude']},{info['longitude']}",
                )

    # -- phone-side identifiers --------------------------------------------------------

    def _collect_phone_identifiers(self, app: AppModel, result: AppRunResult, granted) -> None:
        wanted = {
            identifier
            for rule in app.all_exfil_rules
            for identifier in rule.identifiers
        }
        if Identifier.ROUTER_SSID in wanted or Identifier.ROUTER_MAC in wanted:
            value = self._track_api(result, AndroidApi.WIFI_INFO_GET_SSID, granted)
            if value is not None:
                self._harvest(result, Identifier.ROUTER_SSID, self.ssid)
                self._harvest(result, Identifier.ROUTER_MAC, str(self.lan.ap_mac))
            elif app.all_scan_protocols:
                # The §2.1 side channel: discovery protocols reveal the
                # same network identity without any dangerous permission.
                result.api_accesses.append(
                    ApiAccess(self.now, AndroidApi.WIFI_INFO_GET_SSID, False,
                              value=self.ssid, via_side_channel=True)
                )
                self._harvest(result, Identifier.ROUTER_SSID, self.ssid)
                self._harvest(result, Identifier.ROUTER_MAC, str(self.lan.ap_mac))
        if Identifier.ROUTER_MAC in wanted and not result.harvested_values(Identifier.ROUTER_MAC):
            # Pre-Android-10 ARP-cache read: pinging the gateway then
            # reading /proc/net/arp yields the router MAC without any
            # permission — exactly the technique §6.1's 28 apps rely on.
            self.send_arp_request(self.lan.gateway_ip)
            result.lan_packets_sent += 1
            for packet in self._drain_inbox():
                if packet.arp is not None and packet.arp.op == 2:
                    self._harvest(result, Identifier.ROUTER_MAC, str(packet.arp.sender_mac))
                    result.api_accesses.append(
                        ApiAccess(self.now, AndroidApi.WIFI_INFO_GET_BSSID, False,
                                  value=str(packet.arp.sender_mac), via_side_channel=True)
                    )
        if Identifier.WIFI_MAC in wanted:
            self._track_api(result, AndroidApi.WIFI_INFO_GET_MAC, granted)
            self._harvest(result, Identifier.WIFI_MAC, str(self.mac))
        if Identifier.GEOLOCATION in wanted:
            value = self._track_api(result, AndroidApi.LOCATION_GET_LAST, granted)
            if value is not None:
                self._harvest(result, Identifier.GEOLOCATION,
                              f"{self.latitude},{self.longitude}")
        if Identifier.AAID in wanted:
            self._track_api(result, AndroidApi.ADVERTISING_ID, granted)
            self._harvest(result, Identifier.AAID, self.aaid)
        if Identifier.ANDROID_ID in wanted:
            self._harvest(result, Identifier.ANDROID_ID, self.android_id)

    def _track_api(self, result: AppRunResult, api: AndroidApi, granted) -> Optional[str]:
        try:
            self.permission_model.enforce(api, granted)
        except PermissionDenied:
            result.api_accesses.append(ApiAccess(self.now, api, granted=False))
            return None
        result.api_accesses.append(ApiAccess(self.now, api, granted=True, value="ok"))
        return "ok"

    # -- device interaction and cloud traffic ---------------------------------------------

    def _tls_to_devices(self, app: AppModel, result: AppRunResult) -> None:
        if not app.uses_tls_to_devices:
            return
        companions = [
            node
            for node in self.lan.nodes
            if isinstance(node, DeviceNode) and node.vendor in app.companion_vendors
        ]
        if not companions:
            return
        device = companions[0]
        port = device.profile.tls.port if device.profile.tls else 443
        client_hello = TlsRecord.client_hello(TlsVersion.TLS_1_2).encode()
        server_hello = TlsRecord.server_hello(TlsVersion.TLS_1_2).encode()
        self.lan.tcp_exchange(self, device, port, [client_hello], [server_hello])
        self._settle()
        result.protocols_used.add("tls")
        self._harvest(result, Identifier.DEVICE_MAC, str(device.mac))
        self._harvest(result, Identifier.DEVICE_UUID, device.uuid)

    def _emit_cloud_flows(self, app: AppModel, result: AppRunResult) -> None:
        for rule in app.all_exfil_rules:
            payload: Dict[str, object] = {}
            for identifier in rule.identifiers:
                values = sorted(result.harvested_values(identifier))
                if values:
                    payload[identifier.value] = values if len(values) > 1 else values[0]
            if not payload:
                continue
            if rule.encode_base64:
                payload = {
                    key: base64.b64encode(str(value).encode()).decode()
                    for key, value in payload.items()
                }
            result.cloud_flows.append(
                CloudFlow(
                    timestamp=self.now,
                    app=app.package,
                    endpoint=rule.endpoint,
                    party=rule.party,
                    sdk=rule.sdk,
                    payload=payload,
                    encoded_base64=rule.encode_base64,
                )
            )

    def _receive_downlink(self, app: AppModel, result: AppRunResult) -> None:
        if not app.receives_downlink_macs:
            return
        # §6.1: companion apps receive MACs of *other* LAN devices from
        # Tuya machines or AWS instances — likely captured at pairing.
        other_macs = [
            str(node.mac)
            for node in self.lan.nodes
            if isinstance(node, DeviceNode) and node.vendor not in app.companion_vendors
        ][:3]
        if not other_macs:
            return
        result.cloud_flows.append(
            CloudFlow(
                timestamp=self.now,
                app=app.package,
                endpoint="aws-iot.us-east-1.amazonaws.com",
                party="third",
                sdk=None,
                payload={Identifier.DEVICE_MAC.value: other_macs},
                direction="down",
            )
        )

    # -- shared -----------------------------------------------------------------------

    @staticmethod
    def _harvest(result: AppRunResult, identifier: Identifier, value: str) -> None:
        if value:
            result.harvested.setdefault(identifier, set()).add(value)
