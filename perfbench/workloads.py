"""The four workloads: their command lines, and what a run must produce.

Shared by ``run.py``, which builds each workload's argv
from the seeded inputs, and by the per-iteration process
(``child.py``), which installs the workload's probes, calls
``repro.cli.main`` and turns what it printed or wrote into an
:class:`Outcome` — operations attempted and failed, packets and
households handled, per-operation latencies and an output digest.

Probes never open spans: each is one stash of a returned object or two
clock reads around a call, so the untraced run times the code users run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

STUDY_DURATION = 300
STUDY_APPS = 40
INGEST_DURATION = 600
INGEST_CHUNK_RECORDS = 512
MONITOR_DURATION = 600
MONITOR_CHUNK_RECORDS = 64
MONITOR_WINDOW_PACKETS = 2000
MONITOR_SNAPSHOT_EVERY = 2500
FLEET_HOUSEHOLDS = 12000
#: The paper's population density: 12,669 devices over 3,860 households.
FLEET_DEVICES = round(FLEET_HOUSEHOLDS * 12669 / 3860)
#: One worker: the shards run inline in the measured process.  A pool
#: of two on a 2-vCPU host, next to its parent, measures the scheduler,
#: and its workers' speed cannot be probed from the parent (hostclock).
FLEET_WORKERS = 1
#: Small shards give the per-shard latency enough samples for a p99.
FLEET_SHARD_SIZE = 32

#: study and fleet run one fixed input each: the lab of seed 7 and the
#: population of seed 23 (the CLI defaults).  The resume cost of a fleet
#: population varies by up to 1.6x between seeds, and a fixed study lets
#: every run check the capture and scan digests ``reference.json`` pins.
FIXED_SEEDS = {"study": 7, "fleet": 23}

#: The modules each subcommand imports before it does any work; the
#: set-up time ends when they are loaded.
IMPORTS = {
    "study": ["repro.cli", "repro.core.pipeline", "repro.report.tables",
              "repro.report.figures", "repro.fleet.supervisor"],
    "ingest": ["repro.cli", "repro.classify.crossval", "repro.core.device_graph",
               "repro.core.exposure", "repro.core.periodicity",
               "repro.core.protocol_census", "repro.core.responses",
               "repro.core.threat_report", "repro.net.ingest",
               "repro.report.tables"],
    "monitor_chaos": ["repro.cli", "repro.monitor", "repro.net.ingest",
                      "repro.fleet.supervisor"],
    "fleet": ["repro.cli", "repro.fleet", "repro.report.tables",
              "repro.fleet.supervisor"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def input_seed(workload: str, seed: int) -> int:
    """The seed the workload's inputs are built from."""
    return FIXED_SEEDS.get(workload, seed)


def commands(workload: str, seed: int, inputs: Dict[str, str],
             out: str) -> Dict[str, object]:
    """The cold and warm ``repro`` argv of one iteration in ``out``.

    ``warm`` is ``None`` for ``study``: a study keeps no state between
    runs, so a warm re-run does the same work as the cold one.  The
    warm call repeats ``warm_calls`` times in the same process.
    """
    if workload == "study":
        return {"cold": ["study", "--seed", str(seed), "--duration",
                         str(STUDY_DURATION), "--apps", str(STUDY_APPS)],
                "warm": None, "warm_calls": 0}
    if workload == "ingest":
        argv = ["ingest", inputs["pcap"], "--device-map", inputs["device_map"],
                "--chunk-records", str(INGEST_CHUNK_RECORDS),
                "--json", os.path.join(out, "ingest.json")]
        return {"cold": argv, "warm": argv, "warm_calls": 2}
    if workload == "monitor_chaos":
        argv = ["monitor", inputs["pcap"],
                "--chunk-records", str(MONITOR_CHUNK_RECORDS),
                "--window-packets", str(MONITOR_WINDOW_PACKETS),
                "--snapshot-every", str(MONITOR_SNAPSHOT_EVERY),
                "--snapshot-dir", os.path.join(out, "snapshots"),
                "--json", os.path.join(out, "final.json")]
        return {"cold": argv, "warm": argv, "warm_calls": 1}
    if workload == "fleet":
        argv = ["fleet", "--seed", str(seed), "--households",
                str(FLEET_HOUSEHOLDS), "--target-devices", str(FLEET_DEVICES),
                "--shard-size", str(FLEET_SHARD_SIZE), "--workers", str(FLEET_WORKERS),
                "--cache-dir", os.path.join(out, "cache"), "--no-progress"]
        return {"cold": argv + ["--json", os.path.join(out, "cold.json")],
                "warm": argv + ["--resume", "--json",
                                os.path.join(out, "warm.json")],
                # A resume only reads the cache: cheap, so sample it more.
                "warm_calls": 3}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """What one ``main(argv)`` call did, as the benchmark scores it."""

    ops: int
    failed: int
    packets: int
    households: int
    digest: str
    #: Per-operation latencies in milliseconds.
    latencies_ms: List[float] = field(default_factory=list)
    #: Extra digests the reference pins (study: capture and scan report).
    extra: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class Probes:
    """Stashes and clock reads installed into a child before it runs."""

    def __init__(self):
        self.stash: Dict[str, list] = defaultdict(list)
        self.latencies: List[float] = []
        self.host_seconds: Dict[str, float] = defaultdict(float)
        self._depth = 0
        #: The clock latencies are read from (the child's host clock).
        self.clock = time.perf_counter

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these objects.
        self.stash.clear()
        self.latencies.clear()
        self.host_seconds.clear()

    def keep(self, key: str, fn, keep_self: bool = False):
        probes = self

        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            probes.stash[key].append(args[0] if keep_self else result)
            return result

        return kept

    def timed(self, fn):
        probes, latencies = self, self.latencies

        def clocked(*args, **kwargs):
            started = probes.clock()
            result = fn(*args, **kwargs)
            latencies.append((probes.clock() - started) * 1e3)
            return result

        return clocked

    def per_host(self, fn):
        """Time the outermost scan call per target (tcp + udp + ip-proto)."""
        probes = self

        def clocked(scanner, target, *args, **kwargs):
            if probes._depth:
                return fn(scanner, target, *args, **kwargs)
            probes._depth += 1
            started = probes.clock()
            try:
                return fn(scanner, target, *args, **kwargs)
            finally:
                probes._depth -= 1
                probes.host_seconds[target.name] += probes.clock() - started

        return clocked


def install_probes(workload: str, probes: Probes) -> None:
    if workload == "study":
        from repro.core import pipeline
        from repro.scan.portscan import PortScanner

        pipeline.StudyPipeline.run = probes.keep("report", pipeline.StudyPipeline.run)
        pipeline.StudyPipeline.build = probes.keep(
            "testbed", pipeline.StudyPipeline.build)
        for name in ("tcp_syn_scan", "udp_scan", "ip_protocol_scan"):
            setattr(PortScanner, name, probes.per_host(getattr(PortScanner, name)))
    elif workload == "ingest":
        from repro.net.columnar import PacketTable

        PacketTable.extend_records = probes.timed(PacketTable.extend_records)
    elif workload == "monitor_chaos":
        from repro.monitor.monitor import Monitor

        Monitor.absorb_chunk = probes.timed(
            probes.keep("monitor", Monitor.absorb_chunk, keep_self=True))
    elif workload == "fleet":
        from repro.fleet import runner

        runner.FleetRunner.run = probes.keep("result", runner.FleetRunner.run)
        runner.run_shard = probes.timed(runner.run_shard)


def _capture_digest(testbed) -> str:
    digest = hashlib.sha256()
    for timestamp, data in testbed.lan.capture.records:
        digest.update(struct.pack("<dI", timestamp, len(data)))
        digest.update(data)
    return digest.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def outcome(workload: str, call: str, argv: List[str], rc: int, stdout: str,
            probes: Probes) -> Outcome:
    """Score one ``main(argv)`` call; a nonzero exit fails every operation."""
    result = _score(workload, call, argv, stdout, probes)
    if rc != 0:
        result.problems.append(f"{workload} {call}: exit code {rc}")
    if result.problems:
        result.ops = max(result.ops, 1)
        result.failed = result.ops
    return result


def _score(workload, call, argv, stdout, probes) -> Outcome:
    stash = probes.stash
    if workload == "study":
        reports = stash.get("report") or []
        if not reports:
            return Outcome(1, 1, 0, 1, "", problems=["study: no report"])
        report = reports[-1]
        ops = len(report.scan_report.hosts) + 7
        failed = len(report.scan_report.errors) + len(report.failures)
        extra = {
            "capture": _capture_digest(stash["testbed"][-1]),
            "scan_report": sha256(canonical(dataclasses.asdict(report.scan_report))),
        }
        problems = [] if "Headline results" in stdout else ["study: no headline table"]
        return Outcome(ops, failed, report.capture_packets, 1,
                       sha256(stdout.encode()),
                       [1e3 * s for s in probes.host_seconds.values()],
                       extra, problems)
    if workload == "ingest":
        path = argv[argv.index("--json") + 1]
        raw = _read(path)
        payload = json.loads(raw)
        problems = [] if payload["packets"] > 0 else ["ingest: no packets"]
        return Outcome(1, 0, payload["packets"], 1, sha256(raw),
                       list(probes.latencies), problems=problems)
    if workload == "monitor_chaos":
        path = argv[argv.index("--json") + 1]
        raw = _read(path)
        document = json.loads(raw)
        monitor = stash["monitor"][-1]
        problems = []
        if document["window"]["evicted_panes"] == 0:
            problems.append("monitor: the window never evicted a pane")
        if not document["stream"]["quarantined"]:
            problems.append("monitor: no frame took the quarantine path")
        return Outcome(monitor.chunks, 0, monitor.packets_seen, 1, sha256(raw),
                       list(probes.latencies), problems=problems)
    if workload == "fleet":
        path = argv[argv.index("--json") + 1]
        payload = json.loads(_read(path))
        result = stash["result"][-1]
        # Wall-clock fields are the only run-to-run differences.
        payload["summary"].pop("wall_seconds", None)
        for shard in payload["shards"]:
            shard.pop("seconds", None)
        latencies = list(probes.latencies) if call == "cold" else []
        report = payload["report"] or {}
        problems = [] if result.complete else ["fleet: incomplete run"]
        return Outcome(result.shards_total,
                       len(result.failures) + len(result.quarantined),
                       report.get("dataset_devices", 0), result.spec.households,
                       sha256(canonical(payload)), latencies,
                       {"report": sha256(canonical(report))}, problems)
    raise ValueError(f"unknown workload {workload!r}")
