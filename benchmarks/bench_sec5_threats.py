"""§5: the threat analysis rollup.

Paper: 33 devices use plaintext HTTP (26 clients only, 5 servers); 32
devices use TLS locally; Google certs last 20 years with 64-122-bit
keys on 8009 (SWEET32); Amazon self-signed 3-month IP-CN certs with
mutual auth; Apple TLS 1.3; HomePod Mini runs SheerDNS 1.0.0 (cache
snooping); Microseven serves jQuery 1.2 + unauthenticated ONVIF;
Lefun exposes backup files; 9 devices run deprecated UPnP 1.0.
"""

from repro.core.threat_report import build_threat_report
from repro.report.tables import render_comparison
from repro.scan.vulnscan import VulnerabilityScanner


def bench_sec5_threats(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run

    def build():
        findings = VulnerabilityScanner().scan(testbed.devices)
        return build_threat_report(lab_index, maps["macs"], findings)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    identifiers_by_device = {}
    for finding in report.findings:
        identifiers_by_device.setdefault(finding.device, set()).add(finding.identifier)

    def has(device, identifier):
        return "yes" if identifier in identifiers_by_device.get(device, set()) else "NO"

    upnp10 = sum(1 for ids in identifiers_by_device.values() if "UPNP-1.0-DEPRECATED" in ids)
    tls13 = sum(1 for posture in report.tls_devices.values() if "1.3" in posture.versions)
    short_certs = sum(
        1 for posture in report.tls_devices.values()
        if posture.certificates and posture.min_cert_validity_years < 0.5
    )
    long_certs = sum(
        1 for posture in report.tls_devices.values()
        if posture.certificates and posture.max_cert_validity_years > 15
    )
    print()
    print(render_comparison([
        ("plaintext HTTP devices", 33, len(report.plaintext_http_devices)),
        ("HTTP clients only", 26, len(report.http_clients_only)),
        ("local TLS devices", 32, report.tls_device_count),
        ("devices with TLS 1.3 (Apple)", 4, tls13),
        ("devices with ~3-month certs (Amazon)", "Echo fleet", short_certs),
        ("devices with 20y+ certs (Google)", "Google fleet", long_certs),
        ("devices on deprecated UPnP 1.0", 9, upnp10),
        ("HomePod Mini SheerDNS finding", "yes", has("apple-homepod-mini-1", "NESSUS-11535")),
        ("WeMo DNS cache snooping", "yes", has("wemo-plug-1", "NESSUS-12217")),
        ("Microseven ONVIF snapshot", "yes", has("microseven-camera-1", "ONVIF-UNAUTH-SNAPSHOT")),
        ("Microseven jQuery 1.2 XSS", "yes", has("microseven-camera-1", "CVE-2020-11022")),
        ("Lefun backup exposure", "yes", has("lefun-camera-1", "HTTP-BACKUP-EXPOSURE")),
        ("Google SWEET32 on 8009", "yes", has("google-nest-hub-5", "CVE-2016-2183")),
        ("Roku IGD exposure", "yes", has("roku-tv-1", "SSDP-IGD-EXPOSURE")),
        ("TPLINK-SHP unauthenticated control", "yes", has("tplink-1", "TPLINK-SHP-NOAUTH")),
        ("total findings", "-", len(report.findings)),
    ], title="§5 threats — paper vs measured"))
    assert report.tls_device_count >= 20
    assert upnp10 >= 7
    assert has("microseven-camera-1", "ONVIF-UNAUTH-SNAPSHOT") == "yes"
