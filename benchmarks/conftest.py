"""Shared benchmark fixtures: heavy artifacts built once per session.

The lab run compresses the paper's multi-day capture into 40 simulated
minutes (every periodic behaviour fires many times; daily behaviours
fire once early).  Each bench prints the paper's reported value next to
the measured one via :func:`repro.report.tables.render_comparison`.

Every heavy stage (testbed build, passive run, decode, scan sweep, app
runs, inspector dataset) is wall-clock timed into ``STAGE_TIMINGS``;
when pytest-benchmark writes a JSON report (``--benchmark-json``), the
timings are attached under ``stage_timings`` so the perf trajectory is
stage-resolved, not a single end-to-end number.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict

import pytest

from repro.apps.dataset import generate_app_dataset
from repro.apps.runtime import InstrumentedPhone
from repro.core.responses import category_of_profile
from repro.devices.behaviors import build_testbed
from repro.scan.portscan import PortScanner

PASSIVE_DURATION = 2400.0  # simulated seconds

#: Wall-clock seconds per fixture stage, attached to the bench JSON.
STAGE_TIMINGS: Dict[str, float] = {}


@contextmanager
def _timed_stage(name: str):
    started = time.perf_counter()
    try:
        yield
    finally:
        STAGE_TIMINGS[name] = STAGE_TIMINGS.get(name, 0.0) + (
            time.perf_counter() - started
        )


@pytest.fixture(scope="session")
def lab_run():
    """(testbed, capture_index, device_maps) after the passive phase."""
    with _timed_stage("testbed_build"):
        testbed = build_testbed(seed=7)
    with _timed_stage("passive_run"):
        testbed.run(PASSIVE_DURATION)
    with _timed_stage("capture_index"):
        index = testbed.lan.capture.index()
    maps = {
        "macs": {str(node.mac): node.name for node in testbed.devices},
        "vendors": {node.name: node.vendor for node in testbed.devices},
        "categories": {node.name: category_of_profile(node.profile) for node in testbed.devices},
    }
    return testbed, index, maps


@pytest.fixture(scope="session")
def lab_index(lab_run):
    """The decode-once :class:`CaptureIndex` shared by analysis benches."""
    _, index, _ = lab_run
    with _timed_stage("capture_index"):
        index.ensure_labels()
    return index


@pytest.fixture(scope="session")
def stage_timings():
    """The mutable stage-timings dict, for benches that add their own."""
    return STAGE_TIMINGS


@pytest.fixture(scope="session")
def scan_report(lab_run):
    testbed, _, _ = lab_run
    scanner = PortScanner()
    testbed.lan.attach(scanner)
    keep = testbed.lan.capture.keep_bytes
    testbed.lan.capture.keep_bytes = False
    try:
        with _timed_stage("scan_sweep"):
            report = scanner.sweep(targets=testbed.devices)
    finally:
        testbed.lan.capture.keep_bytes = keep
        testbed.lan.detach(scanner)
    return report


@pytest.fixture(scope="session")
def app_runs(lab_run):
    """All 2,335 apps executed on the instrumented phone."""
    testbed, _, _ = lab_run
    apps = generate_app_dataset(seed=11)
    phone = InstrumentedPhone()
    testbed.lan.attach(phone)
    keep = testbed.lan.capture.keep_bytes
    testbed.lan.capture.keep_bytes = False
    try:
        with _timed_stage("app_runs"):
            results = [phone.run_app(app) for app in apps]
    finally:
        testbed.lan.capture.keep_bytes = keep
        testbed.lan.detach(phone)
    return results


@pytest.fixture(scope="session")
def inspector_dataset():
    from repro.inspector.generate import generate_dataset

    with _timed_stage("inspector_dataset"):
        return generate_dataset(seed=23)


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Attach stage timings, resource stats and the env fingerprint.

    The fingerprint is the same one ``tools/bench_record.py`` stamps
    into ``BENCH_*.json`` entries, so pytest-benchmark reports and
    trajectory entries are joinable on identical machine/code state.
    ``resource_stats`` carries the session's ``rss_peak_bytes`` /
    ``cpu_seconds`` (from :func:`repro.obs.events.process_stats`) — the
    same columns the trajectory's memory gate watches.
    """
    from repro.obs.bench import env_fingerprint
    from repro.obs.events import process_stats

    output_json["stage_timings"] = dict(sorted(STAGE_TIMINGS.items()))
    output_json["env_fingerprint"] = env_fingerprint()
    stats = process_stats()
    output_json["resource_stats"] = {
        "rss_peak_bytes": stats["rss_peak_bytes"],
        "cpu_seconds": stats["cpu_seconds"],
    }
