"""Table 4: discovery protocols used / responded to, per device group.

Paper: Amazon Echo 3.65 discovery protocols / 1.82 with responses /
9.47 devices responded to; Google&Nest 4.0/3.0/5.14; Apple 1.0/1.0/5.0;
Tuya 1.0/0.0/0.0; Appliances 2.0/0.0/0.0.
"""

from repro.core.responses import correlate_responses
from repro.report.tables import render_comparison, render_table4

PAPER_TABLE4 = {
    "Amazon Echo": (3.65, 1.82, 9.47),
    "Google&Nest": (4.0, 3.0, 5.14),
    "Apple": (1.0, 1.0, 5.0),
    "Tuya": (1.0, 0.0, 0.0),
    "TVs": (1.4, 1.0, 2.0),
    "Cameras": (1.17, 1.0, 1.5),
    "Hubs": (1.5, 0.0, 0.0),
    "Home Auto": (1.0, 1.0, 1.0),
    "Appliances": (2.0, 0.0, 0.0),
}


def bench_table4_responses(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    correlation = benchmark.pedantic(
        correlate_responses, args=(lab_index, maps["macs"], maps["categories"]),
        rounds=1, iterations=1,
    )
    print()
    print(render_table4(correlation))
    measured = {row[0]: row[1:] for row in correlation.by_category()}
    rows = []
    for category, paper_values in PAPER_TABLE4.items():
        values = measured.get(category)
        rows.append((
            category,
            "/".join(f"{v:.2f}" for v in paper_values),
            "/".join(f"{v:.2f}" for v in values) if values else "absent",
        ))
    print()
    print(render_comparison(rows, title="Table 4 — paper vs measured (#disc/#resp/#devices)"))
    echo = measured.get("Amazon Echo")
    assert echo is not None
    # Shape: Echo is responded to by the most devices, Tuya by none.
    assert echo[2] == max(values[2] for values in measured.values())
    if "Tuya" in measured:
        assert measured["Tuya"][2] == 0.0
