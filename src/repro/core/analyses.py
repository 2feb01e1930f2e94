"""The capture analyses as isolated passes, and the one runner for them.

``StudyPipeline`` runs :data:`STUDY` over the lab capture, ``repro
ingest`` runs :data:`INGEST` over any pcap, and ``repro classify
--crossval`` runs the cross-validation pass alone.  A raising pass does
not abandon its siblings: keep-going mode leaves its slot ``None`` and
records an :class:`AnalysisFailure`; fail-fast mode re-raises the first
failure once every sibling has finished.
"""

from __future__ import annotations

import importlib
import traceback
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.obs import NULL_OBS, Observability

#: Each pass: the module and function that compute it, and the inputs
#: it takes after the index.  The function is looked up on its module
#: at every call, so a patched or wrapped module attribute is what runs.
PASSES: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "census": ("repro.core.protocol_census", "census_from_capture", ("macs",)),
    "device_graph": ("repro.core.device_graph", "build_device_graph", ("macs", "vendors")),
    "exposure": ("repro.core.exposure", "analyze_exposure", ("macs",)),
    "responses": ("repro.core.responses", "correlate_responses", ("macs", "categories")),
    "periodicity": ("repro.core.periodicity", "analyze_periodicity", ("macs",)),
    "crossval": ("repro.classify.crossval", "cross_validate", ()),
    "threat": ("repro.core.threat_report", "build_threat_report", ("macs", "findings")),
}

#: A study's passes.  Its census stays outside: the passive stage builds
#: it, and the scan and app results extend it.
STUDY = tuple(name for name in PASSES if name != "census")
#: The passes ``repro ingest`` runs.
INGEST = tuple(PASSES)


@dataclass
class AnalysisFailure:
    """One pass that raised and was isolated (keep-going mode)."""

    analysis: str
    error: str
    traceback: str = ""


def run_analyses(
    names: Sequence[str],
    index,
    inputs: Mapping[str, object],
    *,
    kind: str,
    obs: Observability = NULL_OBS,
    keep_going: bool = True,
) -> Tuple[Dict[str, object], List[AnalysisFailure]]:
    """Run the named passes over ``index``, one after another.

    ``inputs`` holds what the passes read besides the index (``macs``,
    ``vendors``, ``categories``, ``findings``).  Each pass runs inside
    its own ``analysis.<name>`` span.  Returns every result by name,
    ``None`` for a pass that raised, and the failures.  Each failure is
    counted in ``pipeline_analysis_failures_total``, logged (its
    traceback at debug level), and emitted as an ``analysis_failed``
    event of ``kind``; with
    ``keep_going=False`` the first one is then re-raised.
    """
    results: Dict[str, object] = {}
    errors: Dict[str, Exception] = {}
    for name in names:
        module, function, arguments = PASSES[name]
        try:
            with obs.tracer.span(f"analysis.{name}", analysis=name):
                compute = getattr(importlib.import_module(module), function)
                results[name] = compute(index, *(inputs[key] for key in arguments))
        except Exception as exc:  # noqa: BLE001 - isolated below
            results[name] = None
            errors[name] = exc

    failures: List[AnalysisFailure] = []
    for name, exc in errors.items():
        failures.append(AnalysisFailure(
            analysis=name,
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
        ))
        if obs.enabled:
            obs.metrics.counter(
                "pipeline_analysis_failures_total",
                "analyses that raised and were isolated, per analysis",
            ).inc(analysis=name)
            log = obs.logger("pipeline")
            log.error("analysis_failed", analysis=name, error=failures[-1].error)
            log.debug("analysis_traceback", analysis=name,
                      traceback=failures[-1].traceback)
            obs.events.emit("analysis_failed", kind=kind, analysis=name,
                            error=failures[-1].error)
    if errors and not keep_going:
        raise next(iter(errors.values()))
    return results, failures
