"""Sections 6.1/6.2: dissemination of local-network data to the cloud.

Aggregates instrumented app runs into the paper's findings: how many
apps scan with each protocol, which identifiers reach which endpoints
(first vs third party), the SDK case studies, downlink MAC receipt, and
permission side-channel bypasses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.apps.appmodel import AppCategory, Identifier
from repro.apps.runtime import AppRunResult, CloudFlow


@dataclass
class ExfiltrationAudit:
    """The §6.1/§6.2 rollup over a set of app runs."""

    total_apps: int = 0
    scanning_apps: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))
    uploads: Dict[Identifier, Set[str]] = field(default_factory=lambda: defaultdict(set))
    upload_endpoints: Dict[Identifier, Set[str]] = field(default_factory=lambda: defaultdict(set))
    third_party_uploads: Dict[Identifier, Set[str]] = field(default_factory=lambda: defaultdict(set))
    sdk_flows: Dict[str, List[CloudFlow]] = field(default_factory=lambda: defaultdict(list))
    downlink_mac_apps: Set[str] = field(default_factory=set)
    side_channel_apps: Set[str] = field(default_factory=set)
    device_mac_relaying_iot_apps: Set[str] = field(default_factory=set)

    @property
    def any_scanner_count(self) -> int:
        """Apps using at least one discovery protocol (§6.1: 9%)."""
        members: Set[str] = set()
        for protocol in ("mdns", "ssdp", "netbios"):
            members |= self.scanning_apps.get(protocol, set())
        return len(members)

    def scanner_fraction(self, protocol: str) -> float:
        if not self.total_apps:
            return 0.0
        return len(self.scanning_apps.get(protocol, ())) / self.total_apps

    def apps_uploading(self, identifier: Identifier) -> int:
        return len(self.uploads.get(identifier, ()))

    def summary(self) -> Dict[str, object]:
        return {
            "total_apps": self.total_apps,
            "scanners_pct": 100.0 * self.any_scanner_count / self.total_apps if self.total_apps else 0,
            "mdns_pct": 100.0 * self.scanner_fraction("mdns"),
            "ssdp_pct": 100.0 * self.scanner_fraction("ssdp"),
            "netbios_apps": len(self.scanning_apps.get("netbios", ())),
            "router_mac_apps": self.apps_uploading(Identifier.ROUTER_MAC),
            "router_ssid_apps": self.apps_uploading(Identifier.ROUTER_SSID),
            "wifi_mac_apps": self.apps_uploading(Identifier.WIFI_MAC),
            "device_mac_relaying_iot_apps": len(self.device_mac_relaying_iot_apps),
            "downlink_mac_apps": len(self.downlink_mac_apps),
            "side_channel_apps": len(self.side_channel_apps),
        }


def audit_app_runs(runs: Iterable[AppRunResult], total_apps: Optional[int] = None) -> ExfiltrationAudit:
    """Aggregate instrumented runs into the exfiltration audit."""
    runs = list(runs)
    audit = ExfiltrationAudit(total_apps=total_apps if total_apps is not None else len(runs))
    for run in runs:
        package = run.app.package
        for protocol in run.protocols_used:
            audit.scanning_apps[protocol].add(package)
        for access in run.api_accesses:
            if access.via_side_channel:
                audit.side_channel_apps.add(package)
        for flow in run.cloud_flows:
            if flow.direction == "down":
                if Identifier.DEVICE_MAC.value in flow.payload:
                    audit.downlink_mac_apps.add(package)
                continue
            for identifier in Identifier:
                if identifier.value in flow.payload:
                    audit.uploads[identifier].add(package)
                    audit.upload_endpoints[identifier].add(flow.endpoint)
                    if flow.party == "third":
                        audit.third_party_uploads[identifier].add(package)
                    if identifier is Identifier.DEVICE_MAC and run.app.category is AppCategory.IOT:
                        audit.device_mac_relaying_iot_apps.add(package)
            if flow.sdk:
                audit.sdk_flows[flow.sdk].append(flow)
    return audit


def sdk_case_studies(audit: ExfiltrationAudit) -> Dict[str, Dict[str, object]]:
    """The §6.2 case-study table: per SDK, endpoints and identifiers."""
    studies: Dict[str, Dict[str, object]] = {}
    for sdk, flows in sorted(audit.sdk_flows.items()):
        endpoints = sorted({flow.endpoint for flow in flows})
        identifiers = sorted({key for flow in flows for key in flow.payload})
        studies[sdk] = {
            "flows": len(flows),
            "endpoints": endpoints,
            "identifiers": identifiers,
            "apps": sorted({flow.app for flow in flows}),
            "base64_encoded": any(flow.encoded_base64 for flow in flows),
        }
    return studies
