#!/usr/bin/env python3
"""A full §3.1-style measurement campaign, stage by stage.

Reproduces the paper's lab methodology explicitly: boot the testbed,
deploy honeypots, capture passively, write tcpdump-style per-MAC pcaps
to disk, run nmap-style scans and the Nessus analogue, and print the
Table 4 response correlation.

Run:  python examples/testbed_campaign.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.core.responses import category_of_profile, correlate_responses
from repro.core.threat_report import build_threat_report
from repro.devices.behaviors import build_testbed
from repro.honeypot.farm import HoneypotFarm
from repro.net.columnar import PacketTable
from repro.net.index import CaptureIndex
from repro.net.ingest import ingest_pcap
from repro.report.tables import render_table, render_table4
from repro.scan.portscan import PortScanner
from repro.scan.vulnscan import VulnerabilityScanner


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())

    print("== Stage 1: build the lab and deploy honeypots ==")
    testbed = build_testbed(seed=7)
    farm = HoneypotFarm.deploy(testbed.lan)
    print(f"   {len(testbed.devices)} devices + {len(farm.honeypots)} honeypots attached")

    print("== Stage 2: passive capture (20 simulated minutes) ==")
    testbed.run(1200.0)
    capture = testbed.lan.capture
    print(f"   {capture.packet_count} packets captured at the AP")
    paths = capture.write_per_mac_pcaps(output_dir / "pcaps")
    print(f"   {len(paths)} per-MAC pcap files written to {output_dir / 'pcaps'}")

    print("== Stage 3: honeypot observations ==")
    scanners = farm.scanners_observed()
    print(f"   {farm.contact_count()} contacts from {len(scanners)} distinct MACs")
    rows = []
    for mac, protocols in sorted(scanners.items())[:10]:
        node = testbed.lan._nodes_by_mac.get(
            next(iter([m for m in testbed.lan._nodes_by_mac if str(m) == mac]), None)
        )
        name = node.name if node else "?"
        rows.append((mac, name, ", ".join(protocols)))
    print(render_table(["MAC", "device", "honeypot protocols contacted"], rows))

    print("== Stage 4: active scans ==")
    scanner = PortScanner()
    testbed.lan.attach(scanner)
    capture.keep_bytes = False  # scans are a separate dataset
    report = scanner.sweep(targets=testbed.devices)
    print(f"   open-port devices: {report.devices_with_open_ports}, "
          f"unique TCP ports: {len(report.unique_open_ports('tcp'))}, "
          f"unique UDP ports: {len(report.unique_open_ports('udp'))}")

    print("== Stage 5: vulnerability scan ==")
    findings = VulnerabilityScanner().scan(testbed.devices)
    by_severity = {}
    for finding in findings:
        by_severity.setdefault(finding.severity, []).append(finding)
    for severity in ("critical", "high", "medium", "low"):
        for finding in by_severity.get(severity, [])[:4]:
            print(f"   [{severity:8s}] {finding.device}: {finding.title}")

    print("== Stage 6: threat + response analysis ==")
    macs = {str(node.mac): node.name for node in testbed.devices}
    categories = {node.name: category_of_profile(node.profile) for node in testbed.devices}
    table = PacketTable()  # ingest the per-MAC pcap artifacts into one table
    for path in sorted((output_dir / "pcaps").glob("*.pcap")):
        ingest_pcap(path, table=table)
    index = CaptureIndex(table)
    threat = build_threat_report(index, macs, findings)
    print(f"   plaintext HTTP devices: {len(threat.plaintext_http_devices)}; "
          f"local TLS devices: {threat.tls_device_count}")
    correlation = correlate_responses(index, macs, categories)
    print(render_table4(correlation))


if __name__ == "__main__":
    main()
