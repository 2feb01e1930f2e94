"""ASCII renderers for every reproduced table and figure.

Benchmarks print these next to the paper's reported values so a reader
can compare shapes at a glance.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render a simple monospace table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in rows)
    return "\n".join(parts)


def render_figure2(census, top: int = 25) -> str:
    """Figure 2 as a table: protocol, %passive, %scan, %apps."""
    rows = [
        (
            row["protocol"],
            f"{row['passive_pct']:5.1f}",
            f"{row['scan_pct']:5.1f}",
            f"{row['apps_pct']:5.1f}",
        )
        for row in census.rows()[:top]
    ]
    return render_table(
        ["protocol", "%devices passive", "%devices scans", "%apps"],
        rows,
        title="Figure 2 — protocol prevalence",
    )


def render_table1(matrix) -> str:
    """Table 1 as a checkmark matrix."""
    from repro.core.exposure import EXPOSURE_PROTOCOLS, EXPOSURE_TYPES

    table = matrix.as_boolean_table()
    rows = []
    for protocol in EXPOSURE_PROTOCOLS:
        rows.append(
            [protocol]
            + ["x" if table[protocol][identifier] else "." for identifier in EXPOSURE_TYPES]
        )
    return render_table(
        ["protocol"] + EXPOSURE_TYPES, rows, title="Table 1 — information exposure"
    )


def render_table2(report) -> str:
    """Table 2 from a FingerprintReport."""
    rows = [
        (
            row.type_count,
            row.identifiers or "N/A",
            row.products,
            row.vendors,
            row.devices,
            row.households,
            f"{row.unique_pct:.1f}%" if row.type_count else "N/A",
            f"{row.entropy:.1f}" if row.type_count else "N/A",
        )
        for row in report.rows
    ]
    return render_table(
        ["#", "identifier(s)", "pdt", "vdr", "dev", "hse", "unique", "ent"],
        rows,
        title="Table 2 — identifier exposure via mDNS/SSDP",
    )


def render_table3(catalog) -> str:
    """Table 3 (device inventory by category/vendor)."""
    from repro.devices.catalog import catalog_summary

    summary = catalog_summary(catalog)
    rows = []
    for category in sorted(summary):
        vendors = ", ".join(
            f"{vendor} ({count})" for vendor, count in sorted(summary[category].items())
        )
        rows.append((category, sum(summary[category].values()), vendors))
    return render_table(["category", "devices", "vendors"], rows, title="Table 3 — testbed inventory")


def render_table4(correlation) -> str:
    rows = [
        (category, f"{protocols:.2f}", f"{with_response:.2f}", f"{responders:.2f}")
        for category, protocols, with_response, responders in correlation.by_category()
    ]
    return render_table(
        ["device group", "#discovery protocols", "#protocols w/ response", "#devices responded to"],
        rows,
        title="Table 4 — discovery protocols and responses per category",
    )


def render_figure3(crossval, max_cells: int = 12) -> str:
    """Figure 3 as the top confusion cells."""
    cells = sorted(crossval.confusion.items(), key=lambda item: -item[1])[:max_cells]
    rows = [(tshark, ndpi, count) for (tshark, ndpi), count in cells]
    header = (
        f"units={crossval.total_units} tshark={crossval.tshark_coverage:.1%} "
        f"ndpi={crossval.ndpi_coverage:.1%} disagree={crossval.disagree_fraction:.1%} "
        f"neither={crossval.neither_fraction:.1%}"
    )
    return header + "\n" + render_table(
        ["tshark label", "nDPI label", "flows"], rows, title="Figure 3 — classifier cross-validation"
    )


def render_comparison(rows: List[Tuple[str, object, object]], title: str = "paper vs measured") -> str:
    """Side-by-side paper-reported vs measured values."""
    return render_table(
        ["quantity", "paper", "measured"],
        [(name, paper, measured) for name, paper, measured in rows],
        title=title,
    )
