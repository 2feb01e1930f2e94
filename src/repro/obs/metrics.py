"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately small and deterministic: metric families
are stored in insertion order, label sets are sorted tuples, and
histograms use *fixed* bucket edges chosen at creation time, so two
runs with the same seed export byte-identical JSON (modulo wall-clock
valued metrics, which instrumented code keeps out of the default set).

Naming follows the Prometheus conventions (``subsystem_name_unit``,
counters end in ``_total``); see ``docs/observability.md``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelValues = Tuple[Tuple[str, str], ...]

#: Default histogram bucket edges, in seconds — tuned for event-callback
#: and stage latencies (100ns .. 60s).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
)


def _freeze_labels(labels: Mapping[str, str]) -> LabelValues:
    if not labels:  # the common unlabelled call skips the sort
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double-quote, and line feed must be escaped."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for char in it:
        if char != "\\":
            out.append(char)
            continue
        escaped = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(escaped, "\\" + escaped))
    return "".join(out)


def _format_labels(labels: LabelValues) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


class _Metric:
    """Shared family machinery: one named metric with labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def _sample_items(self) -> List[Tuple[LabelValues, object]]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _freeze_labels(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_freeze_labels(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def _sample_items(self):
        return sorted(self._values.items())


class Gauge(_Metric):
    """A value that can go up and down (queue depths, pool sizes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_freeze_labels(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _freeze_labels(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_freeze_labels(labels), 0.0)

    def _sample_items(self):
        return sorted(self._values.items())


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets  # per-edge, non-cumulative
        self.count = 0
        self.sum = 0.0


class Histogram(_Metric):
    """A fixed-bucket histogram with Prometheus ``le`` semantics.

    A sample lands in the first bucket whose upper edge is >= the value
    (edges are inclusive); values above the last edge only count toward
    the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(f"histogram {name}: buckets must be sorted and unique")
        self.buckets = edges
        self._series: Dict[LabelValues, _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _freeze_labels(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.sum += value
        for index, edge in enumerate(self.buckets):
            if value <= edge:
                series.bucket_counts[index] += 1
                break

    def count(self, **labels: str) -> int:
        series = self._series.get(_freeze_labels(labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        series = self._series.get(_freeze_labels(labels))
        return series.sum if series else 0.0

    def cumulative_buckets(self, **labels: str) -> List[Tuple[float, int]]:
        """``[(edge, cumulative_count), ..., (inf, total)]``."""
        series = self._series.get(_freeze_labels(labels))
        if series is None:
            return [(edge, 0) for edge in self.buckets] + [(math.inf, 0)]
        out, running = [], 0
        for edge, bucket in zip(self.buckets, series.bucket_counts):
            running += bucket
            out.append((edge, running))
        out.append((math.inf, series.count))
        return out

    def _sample_items(self):
        return sorted(self._series.items())


class MetricsRegistry:
    """Holds metric families; supports child scoping and two exporters."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._metrics: Dict[str, _Metric] = {}

    # -- creation -----------------------------------------------------------------

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}_{name}" if self.prefix else name

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        qualified = self._qualify(name)
        existing = self._metrics.get(qualified)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {qualified!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(qualified, help, **kwargs)
        self._metrics[qualified] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def scoped(self, prefix: str) -> "MetricsRegistry":
        """A child view that prefixes names but stores into this registry."""
        child = MetricsRegistry.__new__(MetricsRegistry)
        child.prefix = self._qualify(prefix)
        child._metrics = self._metrics  # shared storage
        return child

    # -- access -------------------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterable[_Metric]:
        return iter(self._metrics.values())

    # -- JSON export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe snapshot keyed by metric name."""
        out: Dict[str, Dict[str, object]] = {}
        for metric in self._metrics.values():
            entry: Dict[str, object] = {"type": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "labels": dict(labels),
                        "bucket_counts": list(series.bucket_counts),
                        "count": series.count,
                        "sum": series.sum,
                    }
                    for labels, series in metric._sample_items()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(labels), "value": value}
                    for labels, value in metric._sample_items()
                ]
            out[metric.name] = entry
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, object]]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output (for round-trips)."""
        registry = cls()
        for name, entry in data.items():
            kind = entry.get("type")
            if kind == "counter":
                metric = registry.counter(name, str(entry.get("help", "")))
                for sample in entry.get("samples", []):
                    metric.inc(float(sample["value"]), **sample.get("labels", {}))
            elif kind == "gauge":
                metric = registry.gauge(name, str(entry.get("help", "")))
                for sample in entry.get("samples", []):
                    metric.set(float(sample["value"]), **sample.get("labels", {}))
            elif kind == "histogram":
                metric = registry.histogram(
                    name, str(entry.get("help", "")), buckets=entry["buckets"]
                )
                for series in entry.get("series", []):
                    key = _freeze_labels(series.get("labels", {}))
                    rebuilt = _HistogramSeries(len(metric.buckets))
                    rebuilt.bucket_counts = list(series["bucket_counts"])
                    rebuilt.count = int(series["count"])
                    rebuilt.sum = float(series["sum"])
                    metric._series[key] = rebuilt
        return registry

    # -- cross-registry merge -------------------------------------------------------

    def merge(self, other: "MetricsRegistry",
              extra_labels: Optional[Mapping[str, str]] = None) -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry, exactly.

        The merge is **additive** for counters and histograms (values,
        bucket counts, counts and sums add per label set) and
        **last-write-wins** for gauges (``other``'s value replaces
        ours).  A metric present in both registries must agree on kind
        and — for histograms — bucket edges; anything else raises
        ``ValueError`` instead of silently mixing schemas.

        ``extra_labels`` are appended to every incoming sample's label
        set (the fleet uses ``{"from_cache": "true"}`` when replaying a
        snapshot served from the shard cache).  Merging is associative
        and commutative over counters and histograms, with the empty
        registry as identity — the property the fleet's any-worker-count
        equivalence rests on.
        """
        extra = _freeze_labels(extra_labels or {})
        for theirs in other._metrics.values():
            mine = self._metrics.get(theirs.name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(theirs.name, theirs.help, buckets=theirs.buckets)
                else:
                    mine = type(theirs)(theirs.name, theirs.help)
                self._metrics[theirs.name] = mine
            elif mine.kind != theirs.kind:
                raise ValueError(
                    f"cannot merge metric {theirs.name!r}: "
                    f"{mine.kind} != {theirs.kind}")
            if isinstance(theirs, Histogram):
                assert isinstance(mine, Histogram)
                if mine.buckets != theirs.buckets:
                    raise ValueError(
                        f"cannot merge histogram {theirs.name!r}: "
                        f"bucket edges differ ({mine.buckets} != {theirs.buckets})")
                for labels, series in theirs._series.items():
                    key = tuple(sorted(labels + extra))
                    target = mine._series.get(key)
                    if target is None:
                        target = mine._series[key] = _HistogramSeries(len(mine.buckets))
                    for index, bucket in enumerate(series.bucket_counts):
                        target.bucket_counts[index] += bucket
                    target.count += series.count
                    target.sum += series.sum
            elif isinstance(theirs, Gauge):
                for labels, value in theirs._values.items():
                    mine._values[tuple(sorted(labels + extra))] = value
            else:  # Counter
                for labels, value in theirs._values.items():
                    key = tuple(sorted(labels + extra))
                    mine._values[key] = mine._values.get(key, 0.0) + value
        return self

    # -- Prometheus text export -----------------------------------------------------

    def to_prometheus_text(self) -> str:
        """The classic ``# HELP`` / ``# TYPE`` exposition format."""
        lines: List[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for labels, series in metric._sample_items():
                    running = 0
                    for edge, bucket in zip(metric.buckets, series.bucket_counts):
                        running += bucket
                        le = _format_labels(labels + (("le", repr(edge)),))
                        lines.append(f"{metric.name}_bucket{le} {running}")
                    le = _format_labels(labels + (("le", "+Inf"),))
                    lines.append(f"{metric.name}_bucket{le} {series.count}")
                    suffix = _format_labels(labels)
                    lines.append(f"{metric.name}_sum{suffix} {series.sum!r}")
                    lines.append(f"{metric.name}_count{suffix} {series.count}")
            else:
                for labels, value in metric._sample_items():
                    lines.append(f"{metric.name}{_format_labels(labels)} {value!r}")
        return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Dict[LabelValues, float]]:
    """Parse exposition text back into ``{name: {labels: value}}``.

    Supports exactly what :meth:`MetricsRegistry.to_prometheus_text`
    emits — enough for lossless counter/gauge round-trip tests.  Label
    values are unescaped, so hostile values (backslashes, quotes,
    newlines, commas) survive the round trip.
    """
    import re

    pair_re = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')
    samples: Dict[str, Dict[LabelValues, float]] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            label_part = label_part.rstrip("}")
            labels = [
                (match.group(1), _unescape_label_value(match.group(2)))
                for match in pair_re.finditer(label_part)
            ]
            key = tuple(sorted(labels))
        else:
            name, key = name_part, ()
        samples.setdefault(name, {})[key] = float(value_part)
    return samples
