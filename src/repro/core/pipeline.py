"""The end-to-end study pipeline: §3's methodology as one object.

``StudyPipeline`` builds the simulated MonIoTr lab, collects the
passive dataset, deploys honeypots, runs the active scans, exercises a
sample of the app dataset on the instrumented phone, and produces a
:class:`StudyReport` holding every per-artifact analysis.
"""

from __future__ import annotations

import random
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.dataset import generate_app_dataset
from repro.apps.runtime import AppRunResult, InstrumentedPhone
from repro.classify.crossval import CrossValidation
from repro.core.analyses import STUDY, AnalysisFailure, run_analyses
from repro.core.device_graph import DeviceGraph
from repro.core.exfiltration import ExfiltrationAudit, audit_app_runs
from repro.core.exposure import ExposureMatrix
from repro.core.fingerprint import FingerprintReport
from repro.core.periodicity import PeriodicityResult
from repro.core.protocol_census import (
    ProtocolCensus,
    add_app_results,
    add_scan_results,
    census_from_capture,
)
from repro.core.responses import ResponseCorrelation, category_of_profile
from repro.core.threat_report import ThreatReport
from repro.devices.behaviors import Testbed, build_testbed
from repro.faults import FaultInjector, FaultPlan
from repro.obs import NULL_OBS, Observability, use_obs
from repro.honeypot.farm import HoneypotFarm
from repro.scan.portscan import PortScanner, ScanReport
from repro.scan.vulnscan import VulnerabilityScanner


@dataclass
class StudyReport:
    """Every analysis artifact the pipeline produces.

    Analysis fields are ``Optional``: in keep-going mode a failed
    analysis leaves its slot ``None`` and records an
    :class:`AnalysisFailure` in :attr:`failures` while its siblings
    complete — a partial report instead of a crashed study.
    """

    census: ProtocolCensus
    device_graph: Optional[DeviceGraph]
    exposure: Optional[ExposureMatrix]
    responses: Optional[ResponseCorrelation]
    periodicity: Optional[PeriodicityResult]
    crossval: Optional[CrossValidation]
    threat: Optional[ThreatReport]
    scan_report: ScanReport
    exfiltration: ExfiltrationAudit
    fingerprint: Optional[FingerprintReport] = None
    honeypot_contacts: int = 0
    capture_packets: int = 0
    #: Analyses that raised and were isolated instead of aborting the run.
    failures: List[AnalysisFailure] = field(default_factory=list)
    #: ``FaultInjector.summary()`` when a fault plan was installed.
    fault_summary: Optional[Dict[str, object]] = None
    #: Populated when the pipeline runs with observability enabled:
    #: ``{"stages": {...}, "metrics": {...}, "spans": [...]}``.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def complete(self) -> bool:
        return not self.failures


class StudyPipeline:
    """Orchestrates the full reproduction study.

    With an :class:`~repro.obs.Observability` context passed as ``obs``,
    every stage in :data:`STAGES` runs inside a tracer span (sim + wall
    time), stage durations land in the ``pipeline_stage_seconds``
    histogram, artifact counts in ``pipeline_artifacts_total``, and the
    finished :class:`StudyReport` carries a ``telemetry`` snapshot.
    """

    #: One span (and one ``pipeline_stage_seconds`` sample) per entry.
    STAGES = ("build", "passive_capture", "scans", "apps", "vulnscan", "analysis")

    def __init__(
        self,
        seed: int = 7,
        passive_duration: float = 1800.0,
        app_sample_size: int = 40,
        deploy_honeypots: bool = True,
        include_crowdsourced: bool = False,
        obs: Optional[Observability] = None,
        fault_plan: Optional[FaultPlan] = None,
        keep_going: bool = True,
    ):
        self.seed = seed
        self.passive_duration = passive_duration
        self.app_sample_size = app_sample_size
        self.deploy_honeypots = deploy_honeypots
        self.include_crowdsourced = include_crowdsourced
        self.obs = obs if obs is not None else NULL_OBS
        #: Validated chaos plan; None (or an empty plan) leaves the run
        #: byte-identical to an un-injected study.
        self.fault_plan = fault_plan
        #: keep_going=True isolates analysis failures into the report;
        #: False re-raises the first one (CI-style fail-fast).
        self.keep_going = keep_going
        self.injector: Optional[FaultInjector] = None
        self.testbed: Optional[Testbed] = None
        self.farm: Optional[HoneypotFarm] = None

    @property
    def faults_active(self) -> bool:
        return self.injector is not None and self.injector.active

    # -- stages ---------------------------------------------------------------------

    def build(self) -> Testbed:
        self.testbed = build_testbed(seed=self.seed)
        if self.fault_plan is not None:
            self.injector = FaultInjector(self.fault_plan, seed=self.seed)
            self.injector.install(self.testbed.lan)
        if self.deploy_honeypots:
            self.farm = HoneypotFarm.deploy(self.testbed.lan)
        if self.obs.enabled:
            simulator = self.testbed.simulator
            self.obs.set_sim_clock(lambda: simulator.now)
        return self.testbed

    def collect_passive(self) -> int:
        """Run the lab for the configured duration; returns packet count."""
        assert self.testbed is not None, "call build() first"
        events = self.obs.events
        if events.enabled:
            capture = self.testbed.lan.capture

            def beat(executed: int, sim_now: float) -> None:
                events.heartbeat(kind="study", stage="passive_capture",
                                 sim_seconds=round(sim_now, 3),
                                 sim_events=executed,
                                 packets=capture.packet_count)

            self.testbed.run(self.passive_duration, on_event=beat,
                             on_event_every=2000)
        else:
            self.testbed.run(self.passive_duration)
        return self.testbed.lan.capture.packet_count

    def device_maps(self) -> Dict[str, Dict[str, str]]:
        assert self.testbed is not None
        macs = {str(node.mac): node.name for node in self.testbed.devices}
        vendors = {node.name: node.vendor for node in self.testbed.devices}
        categories = {
            node.name: category_of_profile(node.profile) for node in self.testbed.devices
        }
        return {"macs": macs, "vendors": vendors, "categories": categories}

    def run_scans(self) -> ScanReport:
        assert self.testbed is not None
        if self.faults_active:
            # Under chaos, probes can be lost or delayed: retry silent
            # ports and let sim time advance so late replies land.
            scanner = PortScanner(max_retries=2, wait_for_replies=True)
        else:
            scanner = PortScanner()
        self.testbed.lan.attach(scanner)
        # Active scans are a separate dataset; keep them out of the
        # passive capture, like running them when the lab is closed.
        keep = self.testbed.lan.capture.keep_bytes
        self.testbed.lan.capture.keep_bytes = False
        try:
            report = scanner.sweep(targets=self.testbed.devices)
        finally:
            self.testbed.lan.capture.keep_bytes = keep
            self.testbed.lan.detach(scanner)
        return report

    def run_apps(self) -> List[AppRunResult]:
        assert self.testbed is not None
        apps = generate_app_dataset(seed=self.seed + 1)
        rng = random.Random(self.seed + 2)
        named = apps[:10]  # the case-study apps always run
        if self.app_sample_size >= len(apps):
            sample = apps
        else:
            sample = named + rng.sample(apps[10:], max(0, self.app_sample_size - len(named)))
        phone = InstrumentedPhone(rng=random.Random(self.seed + 3))
        self.testbed.lan.attach(phone)
        keep = self.testbed.lan.capture.keep_bytes
        self.testbed.lan.capture.keep_bytes = False
        try:
            results = [phone.run_app(app) for app in sample]
        finally:
            self.testbed.lan.capture.keep_bytes = keep
            self.testbed.lan.detach(phone)
        return results

    # -- observability helpers ---------------------------------------------------------

    def _stage(self, stack: ExitStack, name: str):
        """Open the tracer span + stage timer for one pipeline stage."""
        obs = self.obs
        if not obs.enabled:
            return None
        span = stack.enter_context(obs.tracer.span(f"pipeline.{name}", stage=name))
        started = time.perf_counter()

        def close_stage() -> None:
            elapsed = time.perf_counter() - started
            obs.metrics.histogram(
                "pipeline_stage_seconds", "wall-clock duration per pipeline stage",
            ).observe(elapsed, stage=name)
            obs.events.emit("stage_end", kind="study", stage=name,
                            wall_seconds=round(elapsed, 6))

        stack.callback(close_stage)
        obs.logger("pipeline").info("stage_start", stage=name)
        obs.events.emit("stage_start", kind="study", stage=name)
        return span

    def _count_artifact(self, name: str, amount: float = 1.0) -> None:
        if self.obs.enabled:
            self.obs.metrics.counter(
                "pipeline_artifacts_total", "analysis artifacts produced, per kind",
            ).inc(amount, artifact=name)

    def _telemetry_snapshot(self) -> Dict[str, object]:
        tracer = self.obs.tracer
        stages: Dict[str, Dict[str, Optional[float]]] = {}
        for span in tracer.iter_spans():
            stage = span.attrs.get("stage")
            if stage is not None:
                stages[str(stage)] = {
                    "wall_seconds": span.wall_duration,
                    "sim_seconds": span.sim_duration,
                }
        out: Dict[str, object] = {
            "stages": stages,
            "metrics": self.obs.metrics.to_dict(),
            "spans": tracer.to_tree(),
        }
        # Key absent (not null) on unprofiled runs: their telemetry
        # payload must stay byte-identical to pre-profiling builds.
        profile = self.obs.profiler.snapshot()
        if profile is not None:
            out["profile"] = profile
        return out

    # -- the full study ----------------------------------------------------------------

    def run(self) -> StudyReport:
        """Run the study; guarantees a terminal ``run_end`` event.

        Every exit path emits exactly one ``run_end`` with an
        ``outcome`` field: ``"ok"`` on success, ``"interrupted"`` on
        SIGINT/SIGTERM (:class:`KeyboardInterrupt` and its
        :class:`~repro.interrupt.RunInterrupted` subclass), and
        ``"failed"`` for everything else — so a truncated event stream
        still tells the reader how the run died.
        """
        try:
            return self._run()
        except KeyboardInterrupt:
            self.obs.events.emit("run_end", kind="study", complete=False,
                                 outcome="interrupted")
            raise
        except BaseException:
            self.obs.events.emit("run_end", kind="study", complete=False,
                                 outcome="failed")
            raise

    def _run(self) -> StudyReport:
        obs = self.obs
        # The sim clock is installed exactly once, by build(), when the
        # Simulator it reads actually exists; spans opened before that
        # (the run span, the build stage span) get their sim bounds
        # backfilled at close by the tracer.
        # Install the pipeline's context for the whole run so every
        # subsystem constructed below (Simulator, Lan, scanners, phone)
        # binds its instruments to this pipeline's registry.
        with use_obs(obs), ExitStack() as root:
            run_span = None
            if obs.enabled:
                run_span = root.enter_context(
                    obs.tracer.span("pipeline.run", seed=self.seed))
            obs.events.emit("run_start", kind="study", seed=self.seed,
                            duration=self.passive_duration,
                            apps=self.app_sample_size)
            with ExitStack() as stack:
                self._stage(stack, "build")
                self.build()
                self._count_artifact("devices", len(self.testbed.devices))

            with ExitStack() as stack:
                span = self._stage(stack, "passive_capture")
                self.collect_passive()
                maps = self.device_maps()
                # Decode + index exactly once; every analysis below
                # shares this CaptureIndex (and its label column, filled
                # while the index is built).
                with obs.tracer.span("capture.decode_index"):
                    index = self.testbed.lan.capture.index()
                # The census is the first reader of the labels the
                # column leaves to label_at.
                with obs.tracer.span("capture.classify"):
                    census = census_from_capture(
                        index, maps["macs"], total_devices=len(self.testbed.devices))
                if span is not None:
                    span.set_attr("packets", len(index))
                self._count_artifact("capture_packets", len(index))

            with ExitStack() as stack:
                span = self._stage(stack, "scans")
                scan_report = self.run_scans()
                add_scan_results(census, scan_report)
                if span is not None:
                    span.set_attr("hosts", len(scan_report.hosts))
                self._count_artifact("scan_hosts", len(scan_report.hosts))

            with ExitStack() as stack:
                span = self._stage(stack, "apps")
                app_runs = self.run_apps()
                # Rates are computed over the apps actually run; pass
                # app_sample_size=2335 to exercise the full dataset.
                apps_total = len(app_runs)
                add_app_results(census, app_runs, total_apps=apps_total)
                if span is not None:
                    span.set_attr("apps", apps_total)
                self._count_artifact("app_runs", apps_total)

            with ExitStack() as stack:
                self._stage(stack, "vulnscan")
                findings = VulnerabilityScanner().scan(self.testbed.devices)
                self._count_artifact("vuln_findings", len(findings))

            with ExitStack() as stack:
                self._stage(stack, "analysis")
                analyses, failures = run_analyses(
                    STUDY, index, dict(maps, findings=findings), kind="study",
                    obs=obs, keep_going=self.keep_going)
                report = StudyReport(
                    census=census,
                    device_graph=analyses["device_graph"],
                    exposure=analyses["exposure"],
                    responses=analyses["responses"],
                    periodicity=analyses["periodicity"],
                    crossval=analyses["crossval"],
                    threat=analyses["threat"],
                    scan_report=scan_report,
                    exfiltration=audit_app_runs(app_runs, total_apps=apps_total),
                    honeypot_contacts=self.farm.contact_count() if self.farm else 0,
                    capture_packets=len(index),
                    failures=failures,
                )
                if self.injector is not None:
                    report.fault_summary = self.injector.summary()
                if self.include_crowdsourced:
                    # Delegate to the sharded fleet runner; with the default
                    # spec it produces a report byte-identical to the serial
                    # fingerprint_households() path (see docs/fleet.md).
                    from repro.fleet import FleetSpec, run_fleet

                    report.fingerprint = run_fleet(
                        FleetSpec(seed=self.seed + 16), obs=self.obs
                    ).report
                for artifact in ("census", "device_graph", "exposure", "responses",
                                 "periodicity", "crossval", "threat", "exfiltration"):
                    if analyses.get(artifact, True) is not None:
                        self._count_artifact(artifact)
            if run_span is not None:
                run_span.set_attr("capture_packets", report.capture_packets)
        if obs.enabled:
            report.telemetry = self._telemetry_snapshot()
            obs.logger("pipeline").info(
                "run_complete", packets=report.capture_packets,
                honeypot_contacts=report.honeypot_contacts,
                failed_analyses=len(report.failures))
        obs.events.emit("run_end", kind="study",
                        packets=report.capture_packets,
                        failed_analyses=len(report.failures),
                        complete=report.complete, outcome="ok")
        return report
