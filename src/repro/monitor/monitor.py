"""The monitor orchestrator: chunks in, windowed snapshots out.

:class:`Monitor` turns a stream of ``(timestamp, frame_bytes)`` record
chunks into a bounded-memory sliding window of incremental analysis
state (see :mod:`repro.monitor.state` / :mod:`repro.monitor.window`)
and serves snapshot artifacts at any point:

* ``absorb_chunk(records)`` decodes one chunk into a throwaway
  columnar table + index (labels memoized once, shared by all four
  states), builds one immutable pane, pushes it through the window and
  emits a ``window_advanced`` event;
* ``snapshot()`` merges the live panes and finalizes every state of
  :data:`~repro.monitor.state.STATE_CLASSES` through its
  :mod:`repro.report.artifacts` serializer — byte-identical to the
  batch artifacts whenever the window still covers everything
  absorbed;
* ``write_snapshot(*paths)`` writes that JSON atomically-enough (single
  write per path, one document for all of them) and emits one
  ``snapshot_written`` per file.

Metrics land on the ambient observability context under the
``monitor_`` prefix (``monitor_window_packets``,
``monitor_evictions_total``, ``monitor_rss_bytes``, ...); see
``docs/observability.md`` for the full rows.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.monitor.state import STATE_CLASSES, IncrementalState
from repro.monitor.window import Pane, SlidingWindow
from repro.net.columnar import PacketTable
from repro.net.decode import DecodeErrorLog
from repro.net.index import CaptureIndex
from repro.obs import get_obs
from repro.obs.events import process_stats
from repro.report.artifacts import canonical_json

#: Snapshot document schema; bump when the layout changes shape.
SNAPSHOT_SCHEMA = 1


class Monitor:
    """Online incremental analysis over a sliding window of panes."""

    def __init__(
        self,
        device_macs: Optional[Dict[str, str]] = None,
        window_packets: Optional[int] = None,
        window_seconds: Optional[float] = None,
        obs=None,
    ):
        self.device_macs = None if device_macs is None else dict(device_macs)
        self.window = SlidingWindow(window_packets=window_packets,
                                    window_seconds=window_seconds)
        self.errors = DecodeErrorLog()
        self.chunks = 0
        self.packets_seen = 0
        self.snapshots = 0
        self._seq = 0
        obs = obs if obs is not None else get_obs()
        self._obs = obs
        if obs.enabled:
            metrics = obs.metrics.scoped("monitor")
            self._window_packets_gauge = metrics.gauge(
                "window_packets", "packets held by the live sliding window")
            self._window_panes_gauge = metrics.gauge(
                "window_panes", "panes held by the live sliding window")
            self._evictions_total = metrics.counter(
                "evictions_total", "panes evicted from the sliding window")
            self._rss_gauge = metrics.gauge(
                "rss_bytes", "process RSS sampled after each absorbed chunk")
            self._chunks_total = metrics.counter(
                "chunks_total", "record chunks absorbed")
            self._packets_total = metrics.counter(
                "packets_total", "packets absorbed across all chunks")
            self._snapshots_total = metrics.counter(
                "snapshots_total", "snapshot artifacts written")

    # -- state construction ---------------------------------------------------------

    def fresh_states(self) -> Dict[str, IncrementalState]:
        """One empty state per analysis over this monitor's device map."""
        return {cls.name: cls(self.device_macs) for cls in STATE_CLASSES}

    # -- absorbing ------------------------------------------------------------------

    def absorb_chunk(self, records: Sequence[Tuple[float, bytes]],
                     ) -> Optional[Pane]:
        """Absorb one chronological record chunk; returns its pane.

        Empty chunks are ignored (``None``).  The chunk is decoded into
        a chunk-local table + index (transient, ``O(chunk)``); only the
        pane's incremental states survive.
        """
        if not records:
            return None
        table = PacketTable()
        table.extend_records(list(records), self.errors)
        index = CaptureIndex(table)
        states = self.fresh_states()
        for state in states.values():
            state.update(index)
        self._seq += 1
        count = len(table)
        pane = Pane(
            seq=self._seq,
            packets=count,
            first_timestamp=table.timestamps[0],
            last_timestamp=table.timestamps[count - 1],
            states=states,
        )
        evicted = self.window.push(pane)
        self.chunks += 1
        self.packets_seen += count
        obs = self._obs
        if obs.enabled:
            self._chunks_total.inc()
            self._packets_total.inc(count)
            self._window_packets_gauge.set(self.window.packets)
            self._window_panes_gauge.set(len(self.window))
            if evicted:
                self._evictions_total.inc(len(evicted))
            self._rss_gauge.set(process_stats()["rss_bytes"])
            obs.events.emit(
                "window_advanced",
                pane=pane.seq,
                pane_packets=pane.packets,
                window_packets=self.window.packets,
                window_panes=len(self.window),
                evicted_panes=len(evicted),
                evicted_packets=sum(p.packets for p in evicted),
                packets_seen=self.packets_seen,
                first_timestamp=self.window.first_timestamp,
                last_timestamp=self.window.last_timestamp,
            )
        return pane

    # -- snapshots ------------------------------------------------------------------

    def merged_states(self) -> Dict[str, IncrementalState]:
        """The window's merged states (fresh, empty states when idle)."""
        merged = self.window.merged()
        return merged if merged else self.fresh_states()

    def snapshot(self) -> Dict[str, object]:
        """The windowed analyses as one canonical snapshot document."""
        merged = self.merged_states()
        artifacts = {cls.name: cls.artifact(merged[cls.name].finalize())
                     for cls in STATE_CLASSES}
        return {
            "schema": SNAPSHOT_SCHEMA,
            "window": {
                "panes": len(self.window),
                "packets": self.window.packets,
                "first_timestamp": self.window.first_timestamp,
                "last_timestamp": self.window.last_timestamp,
                "window_packets": self.window.window_packets,
                "window_seconds": self.window.window_seconds,
                "evicted_panes": self.window.evicted_panes,
                "evicted_packets": self.window.evicted_packets,
            },
            "stream": {
                "chunks": self.chunks,
                "packets_seen": self.packets_seen,
                "quarantined": dict(self.errors.counts),
            },
            "artifacts": artifacts,
        }

    def write_snapshot(self, *paths) -> Dict[str, object]:
        """Write one :meth:`snapshot` as canonical JSON to each path.

        The document is built and serialized once, however many paths
        there are; each file written counts in :attr:`snapshots` and
        emits one ``snapshot_written`` event.  Returns the document.
        """
        document = self.snapshot()
        text = canonical_json(document)
        obs = self._obs
        for path in paths:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.snapshots += 1
            if obs.enabled:
                self._snapshots_total.inc()
                obs.events.emit(
                    "snapshot_written",
                    path=str(path),
                    snapshot=self.snapshots,
                    window_packets=self.window.packets,
                    window_panes=len(self.window),
                    packets_seen=self.packets_seen,
                )
        return document
