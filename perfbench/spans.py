"""In-memory spans around the public functions of each layer.

The traced benchmark run wraps the layer entry points listed in
:data:`LAYER_SPANS` from outside the program: nothing under ``src/``
knows it is being traced.  Each wrapped call records one span
``(id, parent, name, start, end)``; the parent is the innermost span
open on the same thread, so a layer's *self time* is its spans'
duration minus the time covered by their children.

Two rules keep each cost in the layer that owns it:

* ``absorb``: a span is not opened when one of the named spans is
  already open on the thread, so the work is billed to that ancestor
  (probes sent by ``ip_protocol_scan`` stay in ``scan.ipproto``; the
  batch exposure analysis the monitor's exposure state reuses stays in
  ``monitor.exposure``).
* ``top_only``: only calls made outside every span count (``json.dump``
  is report output when the CLI calls it, cache I/O when the fleet
  runner does).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

MONITOR_STATES = ("monitor.census", "monitor.device_graph",
                  "monitor.exposure", "monitor.periodicity")
PROBE_SPANS = ("scan.ipproto",)

#: (module, attribute, span name, options) for every wrapped entry point.
LAYER_SPANS = [
    ("repro.devices.behaviors", "build_testbed", "simnet.build", {}),
    ("repro.simnet.simulator", "Simulator.run", "simnet.run", {}),
    ("repro.scan.portscan", "PortScanner.sweep", "scan.sweep", {}),
    ("repro.scan.portscan", "PortScanner.tcp_syn_scan", "scan.tcp",
     {"absorb": PROBE_SPANS}),
    ("repro.scan.portscan", "PortScanner.udp_scan", "scan.udp",
     {"absorb": PROBE_SPANS}),
    ("repro.scan.portscan", "PortScanner.ip_protocol_scan", "scan.ipproto", {}),
    ("repro.scan.vulnscan", "VulnerabilityScanner.scan", "scan.vuln", {}),
    ("repro.apps.dataset", "generate_app_dataset", "apps.dataset", {}),
    ("repro.apps.runtime", "InstrumentedPhone.run_app", "apps.run_app", {}),
    ("repro.net.columnar", "PacketTable.extend_records", "net.table", {}),
    ("repro.net.index", "CaptureIndex.__init__", "net.index", {}),
    ("repro.classify.crossval", "cross_validate", "classify.crossval", {}),
    ("repro.core.protocol_census", "census_from_capture", "core.census",
     {"absorb": MONITOR_STATES}),
    ("repro.core.device_graph", "build_device_graph", "core.device_graph",
     {"absorb": MONITOR_STATES}),
    ("repro.core.exposure", "analyze_exposure", "core.exposure",
     {"absorb": MONITOR_STATES}),
    ("repro.core.responses", "correlate_responses", "core.responses",
     {"absorb": MONITOR_STATES}),
    ("repro.core.periodicity", "analyze_periodicity", "core.periodicity",
     {"absorb": MONITOR_STATES}),
    ("repro.core.threat_report", "build_threat_report", "core.threat",
     {"absorb": MONITOR_STATES}),
    ("repro.monitor.monitor", "Monitor.absorb_chunk", "monitor.absorb", {}),
    ("repro.monitor.state", "IncrementalCensus.update", "monitor.census", {}),
    ("repro.monitor.state", "IncrementalDeviceGraph.update",
     "monitor.device_graph", {}),
    ("repro.monitor.state", "IncrementalExposure.update", "monitor.exposure", {}),
    ("repro.monitor.state", "IncrementalPeriodicity.update",
     "monitor.periodicity", {}),
    ("repro.monitor.monitor", "Monitor.snapshot", "monitor.snapshot", {}),
    ("json", "dump", "report.json", {"top_only": True}),
    ("repro.report.artifacts", "canonical_json", "report.json",
     {"top_only": True}),
    ("repro.fleet.runner", "FleetRunner.run", "fleet.run", {}),
    ("repro.fleet.cache", "ShardCache.store", "fleet.cache_store", {}),
    ("repro.fleet.cache", "ShardCache.load", "fleet.cache_load", {}),
    ("repro.fleet.merge", "merge_shard_results", "fleet.merge", {}),
]

#: Every ``render_*`` function of these modules is a ``report.render`` span.
RENDER_MODULES = ("repro.report.tables", "repro.report.figures")


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        #: ``(id, parent id or 0, name, start, end)`` in completion order.
        self.spans = []
        self.counts = Counter()
        #: Objects the per-layer metrics read after the run.
        self.seen = {"testbeds": [], "monitors": [], "fleet_results": []}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # The study's analyses run on a thread pool.
        self._count_lock = threading.Lock()

    def count(self, name, amount=1):
        with self._count_lock:
            self.counts[name] += amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, absorb=(), top_only=False):
        stack = self._stack()
        if (top_only and stack) or any(open_name in absorb
                                        for _, open_name in stack):
            yield
            return
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name, absorb=(), top_only=False):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name, absorb, top_only):
                return fn(*args, **kwargs)

        return traced


def _resolve(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, leaf


def _replace(owner, leaf, original, replacement):
    """Patch ``owner.leaf`` and every module that imported the function."""
    setattr(owner, leaf, replacement)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(recorder):
    """Wrap every layer entry point so calls record spans and counts."""
    for module_name, attribute, name, options in LAYER_SPANS:
        owner, leaf = _resolve(module_name, attribute)
        original = getattr(owner, leaf)
        _replace(owner, leaf, original,
                 recorder.wrap(original, name, **options))
    for module_name in RENDER_MODULES:
        module = importlib.import_module(module_name)
        for key, value in list(vars(module).items()):
            if key.startswith("render_") and callable(value):
                _replace(module, key, value, recorder.wrap(value, "report.render"))
    _install_counting(recorder)


def _install_counting(recorder):
    """Wrappers that also count work: rows, labels, events, probes."""
    from repro.devices import behaviors
    from repro.fleet.runner import FleetRunner
    from repro.monitor.monitor import Monitor
    from repro.net import index as index_module
    from repro.net import ingest
    from repro.net.columnar import PacketTable
    from repro.scan.portscan import PortScanner
    from repro.simnet.simulator import Simulator

    count, seen = recorder.count, recorder.seen

    run = Simulator.run

    def simulator_run(self, *args, **kwargs):
        executed = run(self, *args, **kwargs)
        count("simnet.events", executed)
        return executed

    Simulator.run = simulator_run

    build = behaviors.build_testbed

    def build_testbed(*args, **kwargs):
        testbed = build(*args, **kwargs)
        seen["testbeds"].append(testbed)
        return testbed

    _replace(behaviors, "build_testbed", build, build_testbed)

    sweep = PortScanner.sweep

    def scanner_sweep(self, *args, **kwargs):
        report = sweep(self, *args, **kwargs)
        count("scan.probes", self.probes_sent)
        count("scan.retries", self.retries_used)
        count("scan.host_errors", len(report.errors))
        return report

    PortScanner.sweep = scanner_sweep

    extend = PacketTable.extend_records

    def extend_records(self, records, errors=None):
        rows, quarantined = len(self), errors.total if errors is not None else 0
        extend(self, records, errors)
        count("net.rows", len(self) - rows)
        if errors is not None:
            count("net.quarantined", errors.total - quarantined)

    PacketTable.extend_records = extend_records

    # Labels are memoized per row; only a miss classifies, so only a
    # miss is a classify span (a hit is a list read billed to the caller).
    unset = index_module._UNSET
    label_at = index_module.CaptureIndex.label_at

    def traced_label_at(self, rid, classifier=None):
        own = classifier is None or classifier is self._classifier
        if own and self._labels[rid] is not unset:
            return label_at(self, rid, classifier)
        with recorder.span("classify.labels"):
            label = label_at(self, rid, classifier)
        count("classify.rows", 1)
        return label

    ensure_labels = index_module.CaptureIndex.ensure_labels

    def traced_ensure_labels(self):
        pending = sum(1 for label in self._labels if label is unset)
        with recorder.span("classify.labels"):
            ensure_labels(self)
        count("classify.rows", pending)

    index_module.CaptureIndex.label_at = traced_label_at
    index_module.CaptureIndex.ensure_labels = traced_ensure_labels

    chunks = ingest.iter_pcap_chunks

    def iter_pcap_chunks(*args, **kwargs):
        source = chunks(*args, **kwargs)
        while True:
            with recorder.span("net.pcap_read"):
                chunk = next(source, None)
            if chunk is None:
                return
            yield chunk

    _replace(ingest, "iter_pcap_chunks", chunks, iter_pcap_chunks)

    absorb = Monitor.absorb_chunk

    def absorb_chunk(self, records):
        pane = absorb(self, records)
        if pane is not None:
            count("monitor.panes", 1)
        if not seen["monitors"] or seen["monitors"][-1] is not self:
            seen["monitors"].append(self)
        return pane

    Monitor.absorb_chunk = absorb_chunk

    fleet_run = FleetRunner.run

    def runner_run(self):
        result = fleet_run(self)
        seen["fleet_results"].append(result)
        return result

    FleetRunner.run = runner_run


def self_times(spans):
    """Seconds per span name, each span minus the time of its children."""
    children = Counter()
    for _, parent, _, start, end in spans:
        if parent:
            children[parent] += end - start
    totals = Counter()
    for sid, _, name, start, end in spans:
        totals[name] += (end - start) - children[sid]
    return totals


def covered_seconds(spans, intervals):
    """Wall time inside ``intervals`` covered by at least one root span."""
    roots = sorted((start, end) for _, parent, _, start, end in spans
                   if not parent)
    covered = 0.0
    for low, high in intervals:
        cursor = low
        for start, end in roots:
            start, end = max(start, cursor), min(end, high)
            if end > start:
                covered += end - start
                cursor = end
    return covered


def layer_metrics(recorder, calls, workers=1):
    """The per-layer metrics of one traced process.

    ``calls`` holds the ``(start, end)`` of each ``main(argv)`` call, the
    first being the cold run.
    """
    own = self_times(recorder.spans)
    counts = recorder.counts
    seen = recorder.seen

    def seconds(*names):
        return sum(own.get(name, 0.0) for name in names)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    scan_s = seconds("scan.tcp", "scan.udp", "scan.ipproto")
    labels_s = seconds("classify.labels")
    frames = sum(testbed.lan.capture.packet_count for testbed in seen["testbeds"])
    results = seen["fleet_results"]
    cold = results[0] if results else None
    shard_s = sum(state.seconds for state in cold.shard_states) if cold else 0.0
    cold_wall = calls[0][1] - calls[0][0]
    wall = sum(end - start for start, end in calls)
    values = {
        "simnet.run_s": (seconds("simnet.run"), "s"),
        "simnet.build_s": (seconds("simnet.build"), "s"),
        "simnet.events": (counts["simnet.events"], "count"),
        "simnet.us_per_event": (1e6 * ratio(seconds("simnet.run"),
                                            counts["simnet.events"]), "us"),
        "simnet.frames": (frames, "count"),
        "scan.tcp_s": (seconds("scan.tcp"), "s"),
        "scan.udp_s": (seconds("scan.udp"), "s"),
        "scan.ipproto_s": (seconds("scan.ipproto"), "s"),
        "scan.vuln_s": (seconds("scan.vuln"), "s"),
        "scan.probes": (counts["scan.probes"], "count"),
        "scan.us_per_probe": (1e6 * ratio(scan_s, counts["scan.probes"]), "us"),
        "scan.retries": (counts["scan.retries"], "count"),
        "scan.host_errors": (counts["scan.host_errors"], "count"),
        "apps.run_s": (seconds("apps.run_app", "apps.dataset"), "s"),
        "apps.runs": (sum(1 for span in recorder.spans
                          if span[2] == "apps.run_app"), "count"),
        "net.pcap_read_s": (seconds("net.pcap_read"), "s"),
        "net.table_s": (seconds("net.table"), "s"),
        "net.index_s": (seconds("net.index"), "s"),
        "net.rows": (counts["net.rows"], "count"),
        "net.quarantined": (counts["net.quarantined"], "count"),
        "net.quarantined_share": (ratio(counts["net.quarantined"],
                                        counts["net.rows"]), "ratio"),
        "classify.labels_s": (labels_s, "s"),
        "classify.rows_per_s": (ratio(counts["classify.rows"], labels_s), "1/s"),
        "classify.crossval_s": (seconds("classify.crossval"), "s"),
        "core.census_s": (seconds("core.census"), "s"),
        "core.device_graph_s": (seconds("core.device_graph"), "s"),
        "core.exposure_s": (seconds("core.exposure"), "s"),
        "core.responses_s": (seconds("core.responses"), "s"),
        "core.periodicity_s": (seconds("core.periodicity"), "s"),
        "core.threat_s": (seconds("core.threat"), "s"),
        "monitor.absorb_s": (seconds("monitor.absorb"), "s"),
        "monitor.census_s": (seconds("monitor.census"), "s"),
        "monitor.device_graph_s": (seconds("monitor.device_graph"), "s"),
        "monitor.exposure_s": (seconds("monitor.exposure"), "s"),
        "monitor.periodicity_s": (seconds("monitor.periodicity"), "s"),
        "monitor.snapshot_s": (seconds("monitor.snapshot"), "s"),
        "monitor.panes": (counts["monitor.panes"], "count"),
        "monitor.evicted_panes": (sum(monitor.window.evicted_panes
                                      for monitor in seen["monitors"]), "count"),
        "report.render_s": (seconds("report.render"), "s"),
        "report.json_s": (seconds("report.json"), "s"),
        "fleet.shard_s": (shard_s, "s"),
        "fleet.overhead_s": (cold_wall - shard_s / workers if cold else 0.0, "s"),
        "fleet.run_s": (seconds("fleet.run"), "s"),
        "fleet.cache_store_s": (seconds("fleet.cache_store"), "s"),
        "fleet.cache_load_s": (seconds("fleet.cache_load"), "s"),
        "fleet.merge_s": (seconds("fleet.merge"), "s"),
        "fleet.shards": (cold.shards_total if cold else 0, "count"),
        "fleet.cache_hits": (sum(result.cache_hits for result in results), "count"),
        "fleet.retries": (sum(result.retries_total for result in results), "count"),
        "trace.coverage": (ratio(covered_seconds(recorder.spans, calls), wall),
                           "ratio"),
    }
    return values, own
