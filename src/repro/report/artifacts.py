"""Canonical JSON artifacts for the core §4–§6 analyses.

One serializer per analysis — census, device graph, exposure,
periodicity — shared by the batch path, the ``repro monitor`` snapshot
writer, and the incremental/batch equivalence tests.  "Canonical"
means: plain JSON types only, sets emitted sorted, keyed example lists
emitted in a fixed key order (values keep their chronological order),
and one dump shape (:func:`canonical_json`: ``indent=2``,
``sort_keys=True``, trailing newline).  Two runs produce byte-identical
artifacts exactly when the underlying analysis results are equal —
which is the contract the monitor's ``finalize()`` is pinned against
(see ``docs/monitor.md``).
"""

from __future__ import annotations

import json
from typing import Dict, List

#: Example values kept per (protocol, identifier-type) exposure cell.
#: A prefix of a deterministic chronological list is itself
#: deterministic, so truncation preserves byte-identity.
EXPOSURE_EXAMPLE_LIMIT = 3


def census_artifact(census) -> Dict[str, object]:
    """The passive protocol census (Figure 2) as canonical data."""
    return {
        "total_devices": int(census.total_devices),
        "passive": {label: sorted(devices)
                    for label, devices in census.passive.items()},
    }


def device_graph_artifact(graph) -> Dict[str, object]:
    """The device communication graph (Figures 1/4) as canonical data."""
    return {
        "nodes": sorted(graph.nodes),
        "edges": [list(edge) for edge in sorted(graph.edges)],
        "summary": graph.summary(),
    }


def exposure_artifact(matrix) -> Dict[str, object]:
    """The information-exposure matrix (Table 1) as canonical data."""
    cells = {
        protocol: {kind: sorted(devices)
                   for kind, devices in kinds.items() if devices}
        for protocol, kinds in matrix.cells.items()
    }
    examples: List[List[object]] = [
        [protocol, kind, list(values[:EXPOSURE_EXAMPLE_LIMIT])]
        for (protocol, kind), values in sorted(matrix.examples.items())
    ]
    return {
        "cells": {protocol: kinds for protocol, kinds in cells.items() if kinds},
        "examples": examples,
    }


def periodicity_artifact(result) -> Dict[str, object]:
    """The discovery-periodicity result (Appendix D.1) as canonical data.

    Detections keep their first-seen group order — both the batch
    analysis and the incremental merge create groups chronologically,
    so the order itself is part of the equivalence contract.
    """
    detections = [
        {
            "device": detection.device,
            "destination": detection.destination,
            "protocol": detection.protocol,
            "event_count": int(detection.event_count),
            "is_periodic": bool(detection.is_periodic),
            "period": None if detection.period is None else float(detection.period),
            "dft_score": float(detection.dft_score),
            "autocorr_score": float(detection.autocorr_score),
        }
        for detection in result.detections
    ]
    return {
        "group_count": int(result.group_count),
        "periodic_fraction": float(result.periodic_fraction),
        "detections": detections,
    }


def canonical_json(obj) -> str:
    """The one true dump shape for artifact byte-comparison."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
