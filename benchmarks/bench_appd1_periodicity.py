"""Appendix D.1: periodicity of discovery traffic (DFT + autocorrelation).

Paper: 88% of discovery-protocol flows are periodic; 580 periodic
(destination, protocol) groups across the devices, ~6.2 per device.
Paper intervals: Google SSDP every 20 s, mDNS every 20-100 s, Echo SSDP
every 2-3 h, Echo Lifx broadcast every 2 h.
"""

from collections import Counter

from repro.core.periodicity import analyze_periodicity
from repro.report.tables import render_comparison, render_table


def bench_appd1_periodicity(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    result = benchmark.pedantic(
        analyze_periodicity, args=(lab_index, maps["macs"]), rounds=1, iterations=1
    )
    all_traffic = analyze_periodicity(lab_index, maps["macs"], discovery_only=False)
    periods = Counter()
    for detection in result.periodic_groups:
        if detection.period:
            periods[round(detection.period)] += 1
    print()
    print(render_comparison([
        ("periodic fraction of discovery flows", "88%",
         f"{result.periodic_fraction:.0%}"),
        ("periodic (dst, proto) groups — discovery only", "-",
         len(result.periodic_groups)),
        ("periodic groups — all protocols", 580, len(all_traffic.periodic_groups)),
        ("periodic groups per device — all protocols", 6.2,
         round(all_traffic.groups_per_device(), 1)),
    ], title="Appendix D.1 — paper vs measured"))
    print()
    print(render_table(
        ["period (s)", "groups"],
        sorted(periods.items())[:15],
        title="Detected periods (time-compressed lab)",
    ))
    # The configured discovery cadences must be recovered.
    detected = set(periods)
    assert any(18 <= period <= 22 for period in detected)  # Google SSDP 20 s
    assert result.periodic_fraction > 0.6
