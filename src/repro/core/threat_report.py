"""Section 5: the consolidated threat analysis.

Combines passive captures (plaintext HTTP census, TLS posture) with the
vulnerability scanner output into the findings §5.2 reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.net.index import CaptureIndex
from repro.protocols.http import HttpRequest
from repro.protocols.tls import CertificateInfo, HandshakeType, iter_records

if TYPE_CHECKING:  # repro.scan imports the simulator, which no capture pass needs
    from repro.scan.vulnscan import Finding


@dataclass
class TlsPosture:
    """Per-device passive TLS observations (§5.2)."""

    device: str
    versions: Set[str] = field(default_factory=set)
    certificates: List[CertificateInfo] = field(default_factory=list)
    mutual_auth: bool = False

    @property
    def min_cert_validity_years(self) -> Optional[float]:
        if not self.certificates:
            return None
        return min(cert.validity_years for cert in self.certificates)

    @property
    def max_cert_validity_years(self) -> Optional[float]:
        if not self.certificates:
            return None
        return max(cert.validity_years for cert in self.certificates)

    @property
    def ip_common_names(self) -> bool:
        """Amazon's pattern: CN is a local IP or 0.0.0.0."""
        return any(
            cert.subject_cn == "0.0.0.0" or cert.subject_cn.startswith("192.168.")
            for cert in self.certificates
        )


@dataclass
class ThreatReport:
    """The §5 rollup."""

    plaintext_http_devices: Set[str] = field(default_factory=set)
    http_clients_only: Set[str] = field(default_factory=set)
    http_servers: Set[str] = field(default_factory=set)
    user_agents: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))
    tls_devices: Dict[str, TlsPosture] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def tls_device_count(self) -> int:
        return len(self.tls_devices)

    def findings_by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for finding in self.findings:
            counts[finding.severity] += 1
        return dict(counts)

    def devices_with_findings(self) -> Set[str]:
        return {finding.device for finding in self.findings}

    def findings_for(self, device: str) -> List[Finding]:
        return [finding for finding in self.findings if finding.device == device]


def build_threat_report(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    findings: Optional[List[Finding]] = None,
) -> ThreatReport:
    """Mine passive captures + scanner findings into the §5 report.

    Only TCP packets with payload matter here, so this walks the
    index's chronological ``tcp_payload`` bucket directly.
    """
    report = ThreatReport(findings=list(findings or []))
    http_roles: Dict[str, Set[str]] = defaultdict(set)

    table = index.table
    src_col = table.src_mac
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    for rid in index.tcp_payload:
        device = device_of[src_col[rid]]
        if device is None:
            continue
        payload = table.app_payload(rid)
        head = payload[:8]
        if head[:4] in (b"GET ", b"POST", b"PUT ", b"HEAD"):
            report.plaintext_http_devices.add(device)
            http_roles[device].add("client")
            try:
                request = HttpRequest.decode(payload)
                if request.user_agent:
                    report.user_agents[device].add(request.user_agent)
            except ValueError:
                pass
        elif head.startswith(b"HTTP/1."):
            report.plaintext_http_devices.add(device)
            http_roles[device].add("server")
        elif payload and payload[0] == 22:  # TLS handshake record
            _mine_tls(report, device, payload)

    for device, roles in http_roles.items():
        if roles == {"client"}:
            report.http_clients_only.add(device)
        if "server" in roles:
            report.http_servers.add(device)
    return report


def _mine_tls(report: ThreatReport, device: str, payload: bytes) -> None:
    posture = report.tls_devices.setdefault(device, TlsPosture(device=device))
    saw_client_cert = False
    for record in iter_records(payload):
        handshake = record.handshake()
        if handshake is None:
            continue
        if handshake.handshake_type in (HandshakeType.CLIENT_HELLO, HandshakeType.SERVER_HELLO):
            posture.versions.add(handshake.version.dotted)
        elif handshake.handshake_type is HandshakeType.CERTIFICATE:
            posture.certificates.extend(handshake.certificates)
            saw_client_cert = True
    # Two-way auth heuristic: a *client*-originated record stream that
    # carries a certificate (Amazon's pattern, §5.2).
    if saw_client_cert and any(
        record.handshake() and record.handshake().handshake_type is HandshakeType.CLIENT_HELLO
        for record in iter_records(payload)
    ):
        posture.mutual_auth = True
