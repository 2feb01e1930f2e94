"""Figure 3 / Appendix C.2: tshark vs nDPI cross-validation heatmap.

Paper: tshark labels 76% of flows (35 labels), nDPI 74% (18 labels);
different labels for 16%; neither for 7.5%; 95% of disagreements are
tshark-generic/TPLINK vs nDPI-SSDP; nDPI artifacts: CiscoVPN for some
SSDP, AmazonAWS for Nintendo EAPOL.
"""

from repro.classify.crossval import cross_validate
from repro.report.tables import render_comparison, render_figure3


def bench_fig3_crossval(benchmark, lab_run, lab_index):
    testbed, _, maps = lab_run
    result = benchmark.pedantic(cross_validate, args=(lab_index,), rounds=1, iterations=1)
    print()
    print(render_figure3(result))
    disagreements = {
        pair: count for pair, count in result.confusion.items()
        if pair[0] != pair[1] and "UNDETECTED" not in pair
    }
    total = sum(disagreements.values()) or 1
    ssdp_share = (
        disagreements.get(("UNKNOWN", "SSDP"), 0)
        + disagreements.get(("TPLINK_SHP", "SSDP"), 0)
    ) / total
    print()
    print(render_comparison([
        ("tshark coverage %", 76, round(100 * result.tshark_coverage)),
        ("nDPI coverage %", 74, round(100 * result.ndpi_coverage)),
        ("disagreement %", 16, round(100 * result.disagree_fraction)),
        ("neither labels %", 7.5, round(100 * result.neither_fraction, 1)),
        ("tshark label count", 35, result.tshark_label_count),
        ("nDPI label count", 18, result.ndpi_label_count),
        ("share of disagreements = tshark-generic/TPLINK vs nDPI-SSDP",
         "95%", f"{ssdp_share:.0%}"),
    ], title="Figure 3 anchors — paper vs measured"))
    assert result.disagree_fraction > 0.05
    assert ssdp_share > 0.5
