"""Incremental, mergeable analysis state — the ``repro monitor`` core.

Four state classes mirror the four batch analyses the study pipeline
runs over a completed capture:

===================  ===========================================  =====================
state                batch function                               artifact
===================  ===========================================  =====================
IncrementalCensus    ``repro.core.protocol_census``               ``ProtocolCensus``
IncrementalDevice\\  ``repro.core.device_graph``                   ``DeviceGraph``
Graph
IncrementalExposure  ``repro.core.exposure``                      ``ExposureMatrix``
IncrementalPeriod\\  ``repro.core.periodicity``                    ``PeriodicityResult``
icity
===================  ===========================================  =====================

Each state's ``update(index)`` runs its analysis's ``repro.core``
pass over one chunk-local :class:`~repro.net.index.CaptureIndex` (the
monitor builds one per chunk, so classifier labels are memoized once
across all four states) and folds the result in; no state walks rows
itself.  The states merge exactly and additively, the way the fleet
layer merges shard results:

* ``absorb(other)`` folds another state of the same class in;
* ``merge(states)`` (classmethod) folds a chronological sequence;
* ``fresh()`` returns an empty state over the same device map.

:data:`STATE_CLASSES` is the one list of states: each class names its
snapshot key (``name``) and its :mod:`repro.report.artifacts`
serializer (``artifact``), and :class:`~repro.monitor.Monitor` builds
panes and snapshots from it.

``finalize()`` rebuilds the batch analysis object.  When the absorbed
chunks cover a capture in chronological order the result is
**byte-identical** to the batch function's output through
:mod:`repro.report.artifacts` — including insertion-order-sensitive
pieces (exposure example lists, periodicity group order), which is why
the order-sensitive core passes walk rows chronologically and every
merge folds states in pane order.  The equivalence tests under
``tests/monitor`` pin this contract.

Device attribution follows the batch analyses: an explicit
``device_macs`` map (MAC → device name) restricts every analysis to
mapped devices, while ``device_macs=None`` selects **identity mode** —
each observed *source* MAC is its own device, exactly what
``repro ingest`` does when no ``--device-map`` is given.  Identity mode
has one global dependency: the batch device graph keeps an edge only
when both endpoints appear as a source *somewhere in the whole
capture*.  The incremental graph therefore records candidate edges
unfiltered and applies the endpoint filter at ``finalize()`` against
the merged observed-source set, which reproduces the batch result for
any chunking.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.device_graph import DeviceGraph, conversation_edges
from repro.core.exposure import ExposureMatrix, analyze_exposure
from repro.core.periodicity import PeriodicityResult, detect_groups, event_groups
from repro.core.protocol_census import ProtocolCensus, census_from_capture
from repro.net.index import CaptureIndex
from repro.report.artifacts import (
    census_artifact,
    device_graph_artifact,
    exposure_artifact,
    periodicity_artifact,
)


class IncrementalState:
    """Shared contract for the four incremental analyses."""

    #: Snapshot-artifact key; also the per-state name the monitor uses.
    name = "state"
    #: The :mod:`repro.report.artifacts` serializer of ``finalize()``.
    artifact: Callable[[object], Dict[str, object]]

    def __init__(self, device_macs: Optional[Dict[str, str]] = None):
        self.device_macs = None if device_macs is None else dict(device_macs)

    def fresh(self) -> "IncrementalState":
        """An empty state over the same device map."""
        return type(self)(self.device_macs)

    def update(self, index: CaptureIndex) -> None:
        """Absorb a chunk-local index by running the ``repro.core`` pass."""
        raise NotImplementedError

    def absorb(self, other: "IncrementalState") -> None:
        """Fold ``other`` (chronologically later or disjoint) into self."""
        raise NotImplementedError

    def finalize(self):
        """Rebuild the batch analysis object from the absorbed state."""
        raise NotImplementedError

    @classmethod
    def merge(cls, states: "Iterable[IncrementalState]") -> "IncrementalState":
        """Fold states (in chronological pane order) into a new state."""
        states = list(states)
        if not states:
            raise ValueError(f"{cls.__name__}.merge: no states to merge")
        merged = states[0].fresh()
        for state in states:
            merged.absorb(state)
        return merged

    def _devices(self, index: CaptureIndex) -> Dict[str, str]:
        """The device map for one chunk.

        Identity mode maps each of the chunk's source MACs to itself.
        The census, exposure and periodicity passes attribute rows to
        their source MAC only, so this equals the whole capture's map
        on every row of the chunk.
        """
        if self.device_macs is not None:
            return self.device_macs
        return {mac: mac for mac in index.by_src_mac}


class IncrementalCensus(IncrementalState):
    """Streaming Figure 2: per-protocol device sets, additively merged."""

    name = "census"
    artifact = staticmethod(census_artifact)

    def __init__(self, device_macs: Optional[Dict[str, str]] = None):
        super().__init__(device_macs)
        #: protocol label -> devices observed using it passively.
        self.passive: Dict[str, Set[str]] = {}
        #: Identity mode only: every source MAC observed (labelled or
        #: not) — the batch census counts them all as devices.
        self.observed: Set[str] = set()

    def update(self, index: CaptureIndex) -> None:
        device_macs = self._devices(index)
        if self.device_macs is None:
            self.observed.update(device_macs)
        census = census_from_capture(index, device_macs)
        for label, devices in census.passive.items():
            self.passive.setdefault(label, set()).update(devices)

    def absorb(self, other: "IncrementalCensus") -> None:
        for label, devices in other.passive.items():
            self.passive.setdefault(label, set()).update(devices)
        self.observed.update(other.observed)

    def finalize(self) -> ProtocolCensus:
        total = len(self.observed) if self.device_macs is None \
            else len(self.device_macs)
        census = ProtocolCensus(total_devices=total)
        for label, devices in self.passive.items():
            census.passive[label] = set(devices)
        return census


class IncrementalDeviceGraph(IncrementalState):
    """Streaming Figures 1/4: the unicast device-pair edge set."""

    name = "device_graph"
    artifact = staticmethod(device_graph_artifact)

    def __init__(self, device_macs: Optional[Dict[str, str]] = None):
        super().__init__(device_macs)
        #: (a, b, transport) in first-seen order (insertion-ordered
        #: dict used as a set).  Identity mode stores *candidates* —
        #: the both-endpoints-observed filter runs at finalize().
        self.edges: Dict[Tuple[str, str, str], None] = {}
        #: Identity mode only: source MACs observed so far.
        self.observed: Set[str] = set()

    def update(self, index: CaptureIndex) -> None:
        device_macs = self.device_macs
        if device_macs is None:
            # Identity mode maps destinations too: an edge to a MAC not
            # yet seen as a source is a candidate until finalize().
            device_macs = {mac: mac for mac in index.table.mac_strings}
            self.observed.update(index.by_src_mac)
        for key in conversation_edges(index, device_macs):
            self.edges.setdefault(key)

    def absorb(self, other: "IncrementalDeviceGraph") -> None:
        for key in other.edges:
            self.edges.setdefault(key)
        self.observed.update(other.observed)

    def finalize(self) -> DeviceGraph:
        # No vendor map: the snapshot artifact writes nodes, edges and
        # the summary only.
        if self.device_macs is not None:
            return DeviceGraph(list(dict.fromkeys(self.device_macs.values())),
                               list(self.edges), {})
        observed = self.observed
        return DeviceGraph(sorted(observed),
                           [(a, b, transport) for a, b, transport in self.edges
                            if a in observed and b in observed], {})


class IncrementalExposure(IncrementalState):
    """Streaming Table 1: exposure cells + chronological example lists.

    Per-cell example order survives chunking because every cell draws
    from a single bucket kind (ARP or UDP) and chunks are processed
    chronologically.
    """

    name = "exposure"
    artifact = staticmethod(exposure_artifact)

    def __init__(self, device_macs: Optional[Dict[str, str]] = None):
        super().__init__(device_macs)
        self.matrix = ExposureMatrix()

    def update(self, index: CaptureIndex) -> None:
        analyze_exposure(index, self._devices(index), self.matrix)

    def absorb(self, other: "IncrementalExposure") -> None:
        for protocol, kinds in other.matrix.cells.items():
            for kind, devices in kinds.items():
                self.matrix.cells[protocol][kind].update(devices)
        for key, values in other.matrix.examples.items():
            self.matrix.examples.setdefault(key, []).extend(values)

    def finalize(self) -> ExposureMatrix:
        out = ExposureMatrix()
        for protocol, kinds in self.matrix.cells.items():
            for kind, devices in kinds.items():
                out.cells[protocol][kind].update(devices)
        for key, values in self.matrix.examples.items():
            out.examples[key] = list(values)
        return out


class IncrementalPeriodicity(IncrementalState):
    """Streaming Appendix D.1: per-group event series, detected lazily.

    The state is the grouped timestamp series — detection
    (:func:`repro.core.periodicity.detect_groups`) runs only at
    ``finalize()``, over groups whose first-seen order reproduces the
    batch order for any chunking.
    """

    name = "periodicity"
    artifact = staticmethod(periodicity_artifact)

    def __init__(self, device_macs: Optional[Dict[str, str]] = None):
        super().__init__(device_macs)
        #: (device, destination, protocol) -> chronological timestamps,
        #: keys in first-seen order.
        self.groups: Dict[Tuple[str, str, str], List[float]] = {}

    def update(self, index: CaptureIndex) -> None:
        for key, timestamps in event_groups(index, self._devices(index)).items():
            self.groups.setdefault(key, []).extend(timestamps)

    def absorb(self, other: "IncrementalPeriodicity") -> None:
        for key, timestamps in other.groups.items():
            self.groups.setdefault(key, []).extend(timestamps)

    def finalize(self) -> PeriodicityResult:
        return detect_groups(self.groups)


#: The monitor's analyses, in the order snapshots list them.
STATE_CLASSES = (IncrementalCensus, IncrementalDeviceGraph,
                 IncrementalExposure, IncrementalPeriodicity)
