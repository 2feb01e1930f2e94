"""Ablations for the DESIGN.md design choices.

1. Response-correlation window sweep (Table 4 depends on the 3 s window).
2. OUI validation in MAC extraction (§6.3 false-positive filter).
3. Periodicity detector: DFT-only vs autocorrelation-only vs both.
4. mDNS name compression: wire size with vs without.
"""

from repro.core.periodicity import analyze_periodicity
from repro.core.responses import correlate_responses
from repro.inspector.entropy import analyze_dataset
from repro.report.tables import render_table


def bench_ablation_response_window(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run

    def sweep():
        rows = []
        for window in (0.5, 1.0, 3.0, 10.0):
            correlation = correlate_responses(
                lab_index, maps["macs"], maps["categories"], window=window
            )
            responders = sum(
                len(stats.responders) for stats in correlation.per_device.values()
            )
            with_response = sum(
                len(stats.protocols_with_response)
                for stats in correlation.per_device.values()
            )
            rows.append((window, with_response, responders))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["window (s)", "protocol-responses", "responder links"],
        rows, title="Ablation: Appendix D.2 response window (paper uses 3 s)",
    ))
    by_window = {row[0]: row[2] for row in rows}
    assert by_window[10.0] >= by_window[0.5]


def bench_ablation_oui_validation(benchmark, inspector_dataset):
    def compare():
        with_oui = analyze_dataset(inspector_dataset, validate_oui=True)
        without = analyze_dataset(inspector_dataset, validate_oui=False)
        return (
            len(with_oui.distinct_values.get("mac", ())),
            len(without.distinct_values.get("mac", ())),
        )

    validated, unvalidated = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(render_table(
        ["variant", "distinct MAC identifiers"],
        [("OUI-validated (§6.3 method)", validated),
         ("no OUI filter", unvalidated)],
        title="Ablation: OUI validation of MAC extraction",
    ))
    assert unvalidated >= validated


def bench_ablation_periodicity_detectors(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run

    def compare():
        rows = []
        for name, use_dft, use_autocorr in (
            ("DFT + autocorrelation (paper)", True, True),
            ("DFT only", True, False),
            ("autocorrelation only", False, True),
        ):
            result = analyze_periodicity(
                lab_index, maps["macs"], use_dft=use_dft, use_autocorr=use_autocorr
            )
            rows.append((name, f"{result.periodic_fraction:.0%}", len(result.periodic_groups)))
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(render_table(["detector", "periodic fraction", "periodic groups"], rows,
                       title="Ablation: periodicity detector composition"))
    combined = int(rows[0][2])
    dft_only = int(rows[1][2])
    assert combined <= dft_only  # the AND-combination is the strictest


def bench_ablation_dns_compression(benchmark):
    from repro.protocols.dns import DnsMessage, DnsRecord

    def measure():
        message = DnsMessage(is_response=True)
        for index in range(10):
            message.answers.append(
                DnsRecord.ptr("_googlecast._tcp.local",
                              f"Chromecast-{index:02d}._googlecast._tcp.local")
            )
        return len(message.encode(compress=True)), len(message.encode(compress=False))

    compressed, uncompressed = benchmark(measure)
    print()
    print(render_table(
        ["encoding", "bytes"],
        [("with RFC 1035 compression", compressed), ("without", uncompressed)],
        title="Ablation: mDNS name compression",
    ))
    assert compressed < uncompressed
