"""The paper's analyses: each module regenerates one table or figure.

============================  =========================================
Module                        Paper artifact
============================  =========================================
``protocol_census``           Figure 2 (protocol prevalence, 3 methods)
``device_graph``              Figures 1 and 4 (device-to-device graphs)
``exposure``                  Tables 1 and 5 (identifier exposure)
``responses``                 Table 4 (discovery-response correlation)
``periodicity``               Appendix D.1 (DFT + autocorrelation)
``threat_report``             Section 5 (threat analysis)
``fingerprint``               Table 2 / Section 6.3 (entropy)
``exfiltration``              Sections 6.1/6.2 (cloud dissemination)
``mitigations``               Section 7 (countermeasures, evaluated)
``analyses``                  the capture passes and their one runner
``pipeline``                  end-to-end study orchestration
============================  =========================================
"""

import importlib

#: Each re-export and the module that defines it.  They load on first
#: access (PEP 562): importing one analysis module, as the fleet imports
#: ``repro.core.fingerprint``, does not import all of them.
_EXPORTS = {
    "ProtocolCensus": "protocol_census",
    "census_from_capture": "protocol_census",
    "DeviceGraph": "device_graph",
    "build_device_graph": "device_graph",
    "ExposureMatrix": "exposure",
    "analyze_exposure": "exposure",
    "payload_examples": "exposure",
    "ResponseCorrelation": "responses",
    "correlate_responses": "responses",
    "PeriodicityResult": "periodicity",
    "analyze_periodicity": "periodicity",
    "detect_period": "periodicity",
    "ThreatReport": "threat_report",
    "build_threat_report": "threat_report",
    "FingerprintReport": "fingerprint",
    "fingerprint_households": "fingerprint",
    "ExfiltrationAudit": "exfiltration",
    "audit_app_runs": "exfiltration",
    "ArpAnalysis": "arp_analysis",
    "analyze_arp": "arp_analysis",
    "DhcpCensus": "discovery_census",
    "dhcp_census": "discovery_census",
    "MdnsServiceCensus": "discovery_census",
    "mdns_service_census": "discovery_census",
    "PropagationReport": "propagation",
    "trace_markers": "propagation",
    "MitigationOutcome": "mitigations",
    "evaluate_mitigations": "mitigations",
    "StudyPipeline": "pipeline",
    "StudyReport": "pipeline",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
