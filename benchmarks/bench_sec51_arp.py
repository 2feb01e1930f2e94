"""§5.1: ARP scanning and response behaviour.

Paper: Echo devices broadcast-sweep the entire local IP space daily and
unicast-probe 83% of other devices; only 58% of devices answer the
broadcast sweeps while all answer unicast; six devices ARP for public
IPs.
"""

from repro.core.arp_analysis import analyze_arp
from repro.report.tables import render_comparison


def bench_sec51_arp(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    ips = {node.name: node.ip for node in testbed.devices}
    analysis = benchmark.pedantic(
        analyze_arp, args=(lab_index, maps["macs"], ips), rounds=1, iterations=1
    )
    sweepers = analysis.sweepers()
    echo_coverage = (
        analysis.unicast_probe_coverage(sweepers[0], len(testbed.devices))
        if sweepers else 0.0
    )
    print()
    print(render_comparison([
        ("devices broadcast-sweeping the IP space", "Echo fleet (17)", len(sweepers)),
        ("Echo unicast probe coverage", "83%", f"{echo_coverage:.0%}"),
        ("broadcast ARP response rate", "58%", f"{analysis.broadcast_response_rate():.0%}"),
        ("unicast ARP response rate", "100%", f"{analysis.unicast_response_rate():.0%}"),
        ("devices ARPing public IPs", 6, len(analysis.public_ip_probers())),
    ], title="§5.1 ARP — paper vs measured"))
    assert len(sweepers) == 17
    assert analysis.unicast_response_rate() > 0.99
    assert len(analysis.public_ip_probers()) == 6
