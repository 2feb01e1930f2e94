"""Figure 2: % of devices (and apps) per protocol, by method.

Paper anchors: 21 passively observed protocols; ARP/DHCP 92%, EAPOL 84%,
ICMP 78%, IGMP 56%, mDNS 44%, HTTP 40%, SSDP 35%, TLS 35%, TPLINK-SHP
26%, TuyaLP 5%, RTP 10%; an average device uses ~8 protocols; apps:
mDNS 6%, SSDP 4%, NetBIOS 0.5%, TLS 25%.
"""

from repro.core.protocol_census import (
    add_app_results,
    add_scan_results,
    census_from_capture,
)
from repro.report.tables import render_comparison, render_figure2


def bench_fig2_protocol_census(benchmark, lab_run, lab_index, scan_report, app_runs):
    testbed, _, maps = lab_run

    def build():
        census = census_from_capture(lab_index, maps["macs"])
        add_scan_results(census, scan_report)
        add_app_results(census, app_runs, total_apps=len(app_runs))
        return census

    census = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(render_figure2(census, top=22))
    print()
    print(render_comparison([
        ("ARP %devices (passive)", 92, round(100 * census.passive_fraction("ARP"))),
        ("DHCP %devices", 92, round(100 * census.passive_fraction("DHCP"))),
        ("EAPOL %devices", 84, round(100 * census.passive_fraction("EAPOL"))),
        ("ICMP %devices", 78, round(100 * census.passive_fraction("ICMP"))),
        ("IGMP %devices", 56, round(100 * census.passive_fraction("IGMP"))),
        ("mDNS %devices", 44, round(100 * census.passive_fraction("mDNS"))),
        ("SSDP %devices", 35, round(100 * census.passive_fraction("SSDP"))),
        ("TLS %devices", 35, round(100 * census.passive_fraction("TLS"))),
        ("TPLINK-SHP %devices", 26, round(100 * census.passive_fraction("TPLINK_SHP"))),
        ("TuyaLP %devices", 5, round(100 * census.passive_fraction("TuyaLP"))),
        ("RTP %devices", 10, round(100 * census.passive_fraction("RTP"))),
        ("avg protocols per device", 8.0, round(census.average_protocols_per_device(), 1)),
        ("apps using mDNS %", 6.0, round(100 * census.app_fraction("mDNS"), 1)),
        ("apps using SSDP %", 4.0, round(100 * census.app_fraction("SSDP"), 1)),
        ("apps using NetBIOS %", 0.5, round(100 * census.app_fraction("NETBIOS"), 2)),
        ("apps using TLS %", 25.0, round(100 * census.app_fraction("TLS"), 1)),
    ], title="Figure 2 anchors — paper vs measured"))
    assert census.passive_fraction("ARP") > 0.85
    assert abs(census.app_fraction("mDNS") - 0.06) < 0.01
