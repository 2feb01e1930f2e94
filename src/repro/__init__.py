"""repro — a full reproduction of "In the Room Where It Happens:
Characterizing Local Communication and Threats in Smart Homes" (IMC '23).

Quick start::

    from repro import StudyPipeline

    pipeline = StudyPipeline(seed=7, passive_duration=900.0)
    report = pipeline.run()
    print(report.device_graph.summary())

Subpackages
-----------
``repro.net``        packet codecs, pcap I/O, flows, local-traffic filter
``repro.protocols``  application-layer codecs (mDNS, SSDP, DHCP, ...)
``repro.simnet``     the discrete-event home-LAN simulator
``repro.devices``    the 93-device MonIoTr testbed catalog + behaviours
``repro.scan``       nmap/Nessus analogues
``repro.honeypot``   SSDP/mDNS/HTTP/telnet honeypots
``repro.classify``   tshark-like and nDPI-like traffic classifiers
``repro.apps``       the 2,335-app dataset + instrumented Android runtime
``repro.inspector``  the crowdsourced (IoT Inspector-style) dataset
``repro.core``       the paper's analyses (one module per table/figure)
``repro.fleet``      sharded, cached multi-process crowdsourced runner
``repro.obs``        opt-in metrics / sim-time tracing / structured logs
``repro.faults``     seed-deterministic fault injection (chaos plans)
``repro.report``     ASCII table rendering
"""

__version__ = "1.0.0"

import importlib

#: Each re-export and where it lives (``module`` or ``module:name``).
#: They load on first access (PEP 562), so ``import repro.fleet`` does
#: not import the simulator, the analyses or numpy.
_EXPORTS = {
    "StudyPipeline": "repro.core.pipeline",
    "StudyReport": "repro.core.pipeline",
    "build_testbed": "repro.devices.behaviors",
    "Testbed": "repro.devices.behaviors",
    "build_catalog": "repro.devices.catalog",
    "generate_app_dataset": "repro.apps.dataset",
    "generate_inspector_dataset": "repro.inspector.generate:generate_dataset",
    "fingerprint_households": "repro.core.fingerprint",
    "FleetSpec": "repro.fleet",
    "run_fleet": "repro.fleet",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    try:
        module, _, attribute = _EXPORTS[name].partition(":")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), attribute or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
