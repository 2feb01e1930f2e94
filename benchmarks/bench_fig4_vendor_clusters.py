"""Figure 4: vendor-specific TCP/UDP communication clusters.

Paper: Google and Amazon clusters communicate over TLS 1.2 + unknown
UDP; the Amazon UDP cluster has a clear coordinator; Apple devices use
TLS 1.3.
"""

from repro.core.device_graph import build_device_graph
from repro.report.tables import render_comparison, render_table


def bench_fig4_vendor_clusters(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    graph = benchmark.pedantic(
        build_device_graph, args=(lab_index, maps["macs"], maps["vendors"]),
        rounds=1, iterations=1,
    )
    rows = []
    for vendor in ("Google", "Amazon", "Apple"):
        for transport in ("tcp", "udp"):
            cluster = graph.vendor_cluster(vendor, transport)
            connected = len(cluster.communicating_devices)
            rows.append((vendor, transport, connected, len(cluster.edges)))
    print()
    print(render_table(["vendor", "transport", "devices connected", "edges"], rows,
                       title="Figure 4 — vendor cluster sizes"))
    coordinator = graph.coordinator_of("Amazon", "udp")
    amazon_udp = graph.vendor_cluster("Amazon", "udp")
    degrees = sorted(amazon_udp.degrees().values(), reverse=True)
    print()
    print(render_comparison([
        ("Amazon UDP cluster has clear coordinator (Fig. 4e)", "yes",
         f"{coordinator} (degree {degrees[0]} vs next {degrees[1] if len(degrees) > 1 else 0})"),
        ("Apple cluster present (Fig. 4c/4f)", "yes",
         len(graph.vendor_cluster("Apple").edges) > 0),
    ], title="Figure 4 anchors"))
    assert coordinator is not None
    assert degrees[0] >= 3 * max(degrees[1], 1)
