"""Figure 1: the transport-layer device-to-device communication graph.

Paper: nearly half (43/93) of devices contact at least one other device
using TCP or UDP unicast; the graph clusters by vendor/platform.
"""

from repro.core.device_graph import build_device_graph
from repro.report.tables import render_comparison


def bench_fig1_device_graph(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    graph = benchmark.pedantic(
        build_device_graph,
        args=(lab_index, maps["macs"], maps["vendors"]),
        rounds=1,
        iterations=1,
    )
    summary = graph.summary()
    print()
    print(render_comparison([
        ("devices in testbed", 93, summary["devices_total"]),
        ("devices communicating locally", 43, summary["devices_communicating"]),
        ("pairs using both TCP and UDP (thick edges)", "present", summary["pairs_tcp_and_udp"]),
    ], title="Figure 1 — paper vs measured"))
    assert 38 <= summary["devices_communicating"] <= 50
