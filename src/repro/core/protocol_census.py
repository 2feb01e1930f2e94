"""Figure 2: protocol prevalence across the three measurement methods.

For each protocol, the fraction of the 93 devices observed using it
passively, the fraction with a matching open service in active scans,
and the fraction of the 2,335 apps using it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.net.index import CaptureIndex


@dataclass
class ProtocolCensus:
    """Per-protocol usage sets, keyed by normalized label name."""

    total_devices: int
    total_apps: int = 0
    passive: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))
    scanned: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))
    apps: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))

    def passive_fraction(self, label: str) -> float:
        return len(self.passive.get(label, ())) / self.total_devices if self.total_devices else 0.0

    def scanned_fraction(self, label: str) -> float:
        return len(self.scanned.get(label, ())) / self.total_devices if self.total_devices else 0.0

    def app_fraction(self, label: str) -> float:
        return len(self.apps.get(label, ())) / self.total_apps if self.total_apps else 0.0

    def protocols_per_device(self) -> Dict[str, int]:
        """Distinct passive protocols per device (§4.1: average ~8)."""
        per_device: Dict[str, int] = defaultdict(int)
        for members in self.passive.values():
            for device in members:
                per_device[device] += 1
        return dict(per_device)

    def average_protocols_per_device(self) -> float:
        per_device = self.protocols_per_device()
        return sum(per_device.values()) / len(per_device) if per_device else 0.0

    def rows(self) -> List[Dict[str, object]]:
        """Figure 2 as data rows (protocol, %passive, %scan, %apps)."""
        labels = set(self.passive) | set(self.scanned) | set(self.apps)
        # Scores tie (ARP and DHCP in the reference study); the label
        # breaks the tie, so the order never depends on set iteration.
        ordered = sorted(
            labels,
            key=lambda label: (-(len(self.passive.get(label, ())) * 3
                                 + len(self.scanned.get(label, ()))), label),
        )
        return [
            {
                "protocol": label,
                "passive_pct": 100.0 * self.passive_fraction(label),
                "scan_pct": 100.0 * self.scanned_fraction(label),
                "apps_pct": 100.0 * self.app_fraction(label),
            }
            for label in ordered
        ]


#: scan-report corrected service labels -> Figure 2 protocol names.
_SERVICE_TO_LABEL = {
    "http": "HTTP",
    "echo-http": "HTTP",
    "http-alt": "HTTP",
    "http-proxy": "HTTP.PROXY",
    "https": "HTTPS",
    "https-alt": "HTTPS-ALT",
    "echo-https": "HTTPS",
    "tls": "TLS",
    "cast-tls": "TLS",
    "telnet": "TELNET",
    "domain": "DNS",
    "dns": "DNS",
    "rtsp": "HTTP.RTSP",
    "rtsp-alt": "HTTP.RTSP",
    "socks5": "SOCKS5",
    "upnp": "SSDP",
    "zeroconf": "mDNS",
    "coap": "COAP",
    "coaps": "COAP",
    "tuyalp": "TuyaLP",
    "tuya-ctl": "TuyaLP",
    "tplink-shp": "TPLINK_SHP",
    "netbios-ns": "NETBIOS",
    "ntp": "NTP",
    "ptp-event": "PTP",
    "ptp-general": "PTP",
    "weave": "WEAVE",
    "dhcps": "DHCP",
    "dhcpc": "DHCP",
    "airplay": "TLS",
    "ezmeeting-2": "EZMEETING-2",
    "cslistener": "CSLISTENER",
    "ajp13": "AJP",
    "irc": "IRC",
    "abyss": "OTHER-TCP",
}


def census_from_capture(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    total_devices: Optional[int] = None,
) -> ProtocolCensus:
    """Build the passive part of the census from a capture.

    ``device_macs`` maps MAC string -> device name (the per-MAC pcap
    attribution of §3.1); frames from unknown MACs are ignored.
    Reads the index's per-src-MAC buckets and memoized labels.
    """
    census = ProtocolCensus(total_devices=total_devices or len(device_macs))
    # The per-device protocol sets are order-insensitive, so this walks
    # the per-src-MAC buckets: one device_macs lookup per MAC instead of
    # one per packet.
    label_at = index.label_at
    for mac, rids in index.by_src_mac.items():
        device = device_macs.get(mac)
        if device is None:
            continue
        for rid in rids:
            label = label_at(rid)
            if label is None:
                continue
            census.passive[str(label)].add(device)
    return census


def add_scan_results(census: ProtocolCensus, scan_report) -> ProtocolCensus:
    """Fold a :class:`repro.scan.ScanReport` into the census (orange bars)."""
    for host in scan_report.hosts:
        for entry in host.open_ports:
            label = _SERVICE_TO_LABEL.get(entry.nmap_label)
            if label is None:
                label = "OTHER-TCP" if entry.transport == "tcp" else "OTHER-UDP"
            census.scanned[label].add(host.name)
    return census


def add_app_results(census: ProtocolCensus, app_runs, total_apps: int) -> ProtocolCensus:
    """Fold instrumented app runs into the census (green bars)."""
    protocol_to_label = {
        "mdns": "mDNS",
        "ssdp": "SSDP",
        "netbios": "NETBIOS",
        "arp": "ARP",
        "tplink_shp": "TPLINK_SHP",
        "tls": "TLS",
        "matter": "MATTER",
    }
    census.total_apps = total_apps
    for run in app_runs:
        for protocol in run.protocols_used:
            label = protocol_to_label.get(protocol, protocol.upper())
            census.apps[label].add(run.app.package)
    return census
