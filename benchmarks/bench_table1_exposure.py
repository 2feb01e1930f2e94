"""Table 1: information exposure per discovery protocol.

Paper's checkmarks — ARP: MAC.  DHCP: MAC, model, OS version, display
name, outdated SW.  mDNS: MAC, model, display name, UUIDs.  SSDP: MAC,
model, OS version, UUIDs, outdated SW.  TuyaLP: GW id, product key.
TPLINK: MAC, model, OEM id, geolocation, outdated SW.
"""

from repro.core.exposure import EXPOSURE_TYPES, analyze_exposure
from repro.report.tables import render_comparison, render_table1

#: The Table 1 ground truth (paper checkmarks).
PAPER_TABLE1 = {
    "ARP": {"MAC"},
    "DHCP": {"MAC", "Device/Model", "OS Version", "Display name", "Outdated OS/SW"},
    "mDNS": {"MAC", "Device/Model", "Display name", "UUIDs"},
    "SSDP": {"MAC", "Device/Model", "OS Version", "UUIDs", "Outdated OS/SW"},
    "TuyaLP": {"GW id", "Prod. Key"},
    "TPLINK": {"MAC", "Device/Model", "OEM id", "Geolocation", "Outdated OS/SW"},
}


def bench_table1_exposure(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    matrix = benchmark.pedantic(
        analyze_exposure, args=(lab_index, maps["macs"]), rounds=1, iterations=1
    )
    print()
    print(render_table1(matrix))
    agreements = []
    cells_total = cells_match = 0
    for protocol, expected in PAPER_TABLE1.items():
        measured = set(matrix.exposed_types(protocol))
        for identifier in EXPOSURE_TYPES:
            cells_total += 1
            if (identifier in expected) == (identifier in measured):
                cells_match += 1
        agreements.append((protocol, ", ".join(sorted(expected)), ", ".join(sorted(measured))))
    print()
    print(render_comparison(agreements, title="Table 1 — paper vs measured exposure sets"))
    print(f"cell agreement: {cells_match}/{cells_total}")
    assert cells_match / cells_total > 0.85
