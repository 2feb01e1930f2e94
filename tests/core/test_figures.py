"""Tests for the ASCII figure renderers."""

import pytest

from repro.report.figures import (
    render_bars,
    render_figure2_bars,
    render_figure3_heatmap,
    render_heatmap,
)


class TestBars:
    def test_proportional_fill(self):
        text = render_bars([("full", 100.0), ("half", 50.0), ("none", 0.0)],
                           width=10, max_value=100.0)
        lines = text.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5
        assert lines[2].count("█") == 0

    def test_labels_aligned(self):
        text = render_bars([("a", 1.0), ("longer", 2.0)])
        lines = text.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_empty(self):
        assert render_bars([], title="T") == "T"

    def test_values_clamped_to_max(self):
        text = render_bars([("over", 200.0)], width=10, max_value=100.0)
        assert text.count("█") == 10


class TestHeatmap:
    def test_shades_scale_with_value(self):
        text = render_heatmap(["x0", "x1"], ["y0"], [[0, 100]])
        row = text.splitlines()[0]
        assert " " in row[3:5]  # zero cell is blank
        assert "@" in row or "%" in row  # peak cell is dark

    def test_legend_lists_columns(self):
        text = render_heatmap(["SSDP", "mDNS"], ["TLS"], [[1, 2]])
        assert "0: SSDP" in text and "1: mDNS" in text

    def test_empty_matrix(self):
        assert render_heatmap([], [], [], title="T").startswith("T")


class TestPaperFigures:
    def test_figure2_bars(self, full_testbed_run):
        from repro.core.protocol_census import census_from_capture
        from tests.conftest import device_maps

        testbed, _ = full_testbed_run
        macs, _, _ = device_maps(testbed)
        census = census_from_capture(testbed.lan.capture.index(), macs)
        text = render_figure2_bars(census)
        assert "ARP" in text and "mDNS" in text and "█" in text

    def test_figure3_heatmap(self, full_testbed_run):
        from repro.classify.crossval import cross_validate

        testbed, _ = full_testbed_run
        result = cross_validate(testbed.lan.capture.index())
        text = render_figure3_heatmap(result)
        assert "SSDP" in text
        assert "tshark (x) vs nDPI (y)" in text
