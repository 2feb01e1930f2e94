"""``repro.monitor`` — online incremental analysis with bounded memory.

The batch pipeline (``repro ingest``) needs the whole capture before it
can say anything.  This package runs four of those analyses — protocol
census, device graph, exposure matrix, periodicity, one state class
each in ``STATE_CLASSES`` — **online**: packets arrive in chunks, each
chunk becomes one immutable pane of incremental state, a sliding
window evicts whole panes deterministically, and any moment's windowed
answer is an exact additive merge of the live panes.  When the window
still covers everything absorbed, ``finalize()`` is byte-identical to
the batch artifacts (pinned by the equivalence suite in
``tests/monitor/``).

See ``docs/monitor.md`` for the state model, window semantics, and the
``repro monitor`` CLI walkthrough.
"""

from repro.monitor.monitor import SNAPSHOT_SCHEMA, Monitor
from repro.monitor.source import (
    SIM_STEP_SECONDS,
    follow_pcap_chunks,
    simulated_chunks,
)
from repro.monitor.state import STATE_CLASSES, IncrementalState
from repro.monitor.window import Pane, SlidingWindow

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SIM_STEP_SECONDS",
    "STATE_CLASSES",
    "IncrementalState",
    "Monitor",
    "Pane",
    "SlidingWindow",
    "follow_pcap_chunks",
    "simulated_chunks",
]
