"""Appendix D.1: periodicity of discovery traffic.

"To check the periodicity of the traffic, we use an approach that
combines Discrete Fourier Transformation (DFT) and autocorrelation.  We
check periodicity for traffic from each unique (destination, protocol)
tuple...  We find that 88% of discovery protocol flows are periodic,
and we identify a total of 580 different periodic groups (destination,
protocol) across our IoT devices, averaging approximately 6.2 groups
per device."
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.classify.labels import DISCOVERY_LABELS
from repro.net.index import CaptureIndex


@dataclass
class PeriodDetection:
    """Outcome for one (device, destination, protocol) group."""

    device: str
    destination: str
    protocol: str
    event_count: int
    is_periodic: bool
    period: Optional[float] = None  # seconds
    dft_score: float = 0.0
    autocorr_score: float = 0.0


@dataclass
class PeriodicityResult:
    """Aggregate of the Appendix D.1 analysis."""

    detections: List[PeriodDetection] = field(default_factory=list)

    @property
    def group_count(self) -> int:
        return len(self.detections)

    @property
    def periodic_groups(self) -> List[PeriodDetection]:
        return [detection for detection in self.detections if detection.is_periodic]

    @property
    def periodic_fraction(self) -> float:
        eligible = [d for d in self.detections if d.event_count >= 4]
        if not eligible:
            return 0.0
        return sum(1 for d in eligible if d.is_periodic) / len(eligible)

    def groups_per_device(self) -> float:
        devices = {detection.device for detection in self.detections}
        if not devices:
            return 0.0
        return len(self.periodic_groups) / len(devices)


def detect_period(
    timestamps: List[float],
    bin_width: float = 1.0,
    dft_threshold: float = 0.30,
    autocorr_threshold: float = 0.5,
    use_dft: bool = True,
    use_autocorr: bool = True,
) -> Tuple[bool, Optional[float], float, float]:
    """DFT + autocorrelation periodicity test on one event series.

    The series is binned into a rate signal; the DFT must concentrate
    energy in one non-DC frequency AND the autocorrelation at the
    implied lag must confirm it.  Either check can be disabled for the
    ablation benchmark.

    Returns (is_periodic, period_seconds, dft_score, autocorr_score).
    """
    if len(timestamps) < 4:
        return False, None, 0.0, 0.0
    times = np.asarray(sorted(timestamps), dtype=float)
    span = times[-1] - times[0]
    if span <= 0:
        return False, None, 0.0, 0.0
    # Choose a bin width that gives decent resolution for this span.
    bin_width = max(bin_width, span / 4096.0)
    bins = int(np.ceil(span / bin_width)) + 1
    signal, _ = np.histogram(times - times[0], bins=bins, range=(0.0, bins * bin_width))
    signal = signal.astype(float)
    signal -= signal.mean()
    if not signal.any():
        return False, None, 0.0, 0.0

    # DFT: a periodic impulse train produces a comb — energy at the
    # fundamental and its harmonics.  Score = fraction of non-DC energy
    # captured by the comb of the dominant fundamental.
    spectrum = np.abs(np.fft.rfft(signal)) ** 2
    spectrum[0] = 0.0
    total_energy = spectrum.sum()
    if total_energy <= 0:
        return False, None, 0.0, 0.0
    peak_index = int(np.argmax(spectrum))
    dft_score = 0.0
    period = None
    if peak_index > 0:
        comb = 0.0
        harmonic = peak_index
        while harmonic < len(spectrum):
            lo = max(harmonic - 1, 1)
            comb += spectrum[lo : harmonic + 2].sum()
            harmonic += peak_index
        dft_score = float(min(comb / total_energy, 1.0))
        period = (bins * bin_width) / peak_index

    # Autocorrelation confirmation: the mean inter-event gap implies a
    # candidate lag; score the normalized autocorrelation there (+-1 bin).
    gaps = np.diff(times)
    candidate_period = float(np.median(gaps)) if len(gaps) else None
    autocorr_score = 0.0
    best_lag_period = None
    for candidate in {period, candidate_period} - {None}:
        lag = int(round(candidate / bin_width))
        for trial in (lag - 1, lag, lag + 1):
            if 0 < trial < len(signal):
                a, b = signal[:-trial], signal[trial:]
                denominator = np.sqrt((a * a).sum() * (b * b).sum())
                if denominator > 0:
                    score = float((a * b).sum() / denominator)
                    if score > autocorr_score:
                        autocorr_score = score
                        best_lag_period = trial * bin_width

    checks = []
    if use_dft:
        checks.append(dft_score >= dft_threshold)
    if use_autocorr:
        checks.append(autocorr_score >= autocorr_threshold)
    is_periodic = bool(checks) and all(checks)
    reported_period = best_lag_period if best_lag_period is not None else period
    return is_periodic, reported_period, dft_score, autocorr_score


def discovery_intervals(
    result: "PeriodicityResult",
    device_group: Dict[str, str],
) -> Dict[Tuple[str, str], float]:
    """§5.1 "Discovery Intervals": median period per (group, protocol).

    The paper reports, e.g., Google SSDP every 20 s vs Echo SSDP every
    2-3 h, and notes that short intervals enable temporal tracking of
    the household while costing congestion/energy.
    """
    import statistics

    samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for detection in result.periodic_groups:
        if detection.period is None:
            continue
        group = device_group.get(detection.device)
        if group is None:
            continue
        samples[(group, detection.protocol)].append(detection.period)
    return {
        key: float(statistics.median(values)) for key, values in samples.items()
    }


def event_groups(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    discovery_only: bool = True,
) -> Dict[Tuple[str, str, str], List[float]]:
    """Group traffic by (device, destination, protocol).

    Ports are deliberately ignored ("the randomization of port number
    is prevalent on IoT devices", Appendix D.1).  Walks the index's
    rows chronologically with memoized labels, so each group's
    timestamps are in capture order and groups are in first-seen order.
    """
    groups: Dict[Tuple[str, str, str], List[float]] = defaultdict(list)
    table = index.table
    ts_col = table.timestamps
    src_col, dst_col, dip_col = table.src_mac, table.dst_mac, table.dst_ip
    mac_strings, ip_strings = table.mac_strings, table.ip_strings
    device_of = [device_macs.get(mac) for mac in mac_strings]
    label_at = index.label_at
    for rid in range(len(index)):
        device = device_of[src_col[rid]]
        if device is None:
            continue
        label = label_at(rid)
        if label is None:
            continue
        if discovery_only and label not in DISCOVERY_LABELS:
            continue
        dip = dip_col[rid]
        destination = ip_strings[dip] if dip >= 0 else mac_strings[dst_col[rid]]
        groups[(device, destination, str(label))].append(ts_col[rid])
    return groups


def analyze_periodicity(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    discovery_only: bool = True,
    min_events: int = 4,
    use_dft: bool = True,
    use_autocorr: bool = True,
) -> PeriodicityResult:
    """Group traffic by (device, destination, protocol) and test each.

    :func:`event_groups` does the grouping, :func:`detect_groups` the
    DFT + autocorrelation test.
    """
    groups = event_groups(index, device_macs, discovery_only)
    return detect_groups(groups, min_events=min_events, use_dft=use_dft,
                         use_autocorr=use_autocorr)


def detect_groups(
    groups: "Dict[Tuple[str, str, str], List[float]]",
    min_events: int = 4,
    use_dft: bool = True,
    use_autocorr: bool = True,
) -> PeriodicityResult:
    """Run :func:`detect_period` over pre-grouped event series.

    Detection order follows the mapping's iteration (first-seen) order
    — shared by :func:`analyze_periodicity` and the incremental
    :class:`repro.monitor.state.IncrementalPeriodicity`, whose merged
    groups reproduce the batch first-seen order exactly.
    """
    result = PeriodicityResult()
    for (device, destination, protocol), timestamps in groups.items():
        if len(timestamps) < min_events:
            result.detections.append(
                PeriodDetection(device, destination, protocol, len(timestamps), False)
            )
            continue
        is_periodic, period, dft_score, autocorr_score = detect_period(
            timestamps, use_dft=use_dft, use_autocorr=use_autocorr
        )
        result.detections.append(
            PeriodDetection(
                device,
                destination,
                protocol,
                len(timestamps),
                is_periodic,
                period,
                dft_score,
                autocorr_score,
            )
        )
    return result
