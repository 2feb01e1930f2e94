"""Command-line interface.

Installed as the ``repro`` console script::

    repro study        [--seed N] [--duration SECONDS] [--apps N]
                       [--fault-plan PATH] [--keep-going | --fail-fast]
                       [TELEMETRY]
    repro classify     PCAP [--crossval] [TELEMETRY]
    repro ingest       PCAP [--device-map JSON] [--chunk-records N]
                       [--json PATH] [--keep-going | --fail-fast]
                       [TELEMETRY]
    repro monitor      [PCAP | --simulate] [--follow] [--window-packets N]
                       [--window-seconds S] [--snapshot-every N]
                       [--snapshot-dir DIR] [--json PATH] [--device-map JSON]
                       [--chunk-records N] [--seed N] [--duration SECONDS]
                       [--poll-interval S] [--idle-timeout S] [--max-packets N]
                       [TELEMETRY]
    repro scan         [--seed N]
    repro fingerprint  [--seed N] [--mitigation NAME]
    repro catalog
    repro capture      OUTPUT_DIR [--seed N] [--duration SECONDS]
    repro fleet        [--households N] [--workers W] [--shard-size N]
                       [--cache-dir PATH] [--resume] [--json PATH]
                       [--fault-plan PATH] [--keep-going | --fail-fast]
                       [--shard-retries N] [--retry-backoff SECONDS]
                       [--shard-deadline SECONDS]
                       [--progress | --no-progress] [TELEMETRY]

``TELEMETRY`` stands for the six flags the five observed subcommands
share: ``--metrics-out PATH``, ``--trace-out PATH``, ``--events-out
PATH``, ``--profile-out DIR``, ``--profile-hz HZ`` and ``--log-level
LEVEL``.  They are declared once, and one lifecycle
(:func:`_run_with_telemetry`) writes their outputs on every exit path.

``repro classify`` works on *any* classic-pcap file (including captures
from a real network), making the classifier pair usable outside the
simulation.  ``repro ingest`` streams an external pcap into the
columnar packet store in bounded-memory chunks and runs the full §4–§6
analysis stack over it.  ``repro monitor`` is the *online* counterpart:
it consumes a (possibly still growing) pcap or the simulator's live
feed and keeps the four core analyses current over a bounded sliding
window (see ``docs/monitor.md``).  ``repro fleet`` is the sharded,
cached, multi-process version of the Table 2 crowdsourced analysis;
see ``docs/cli.md`` for the complete flag reference and
``docs/fleet.md`` for its guarantees.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _progress_wanted(args: argparse.Namespace) -> bool:
    """Whether the in-terminal progress line should render.

    Explicit ``--progress``/``--no-progress`` win; the default is on
    exactly when stderr is a terminal and the event stream is not
    already targeting it (``--events-out -``).
    """
    forced = getattr(args, "progress", None)
    if forced is not None:
        return forced
    if getattr(args, "events_out", None) == "-":
        return False
    return sys.stderr.isatty()


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    """Whether any telemetry flag was given (or a progress line needs the
    event bus); only subcommands that define ``--progress`` (fleet) can
    want the bus for the progress line alone."""
    return any(getattr(args, flag, None) for flag in (
        "metrics_out", "trace_out", "events_out", "profile_out", "log_level",
    )) or ("progress" in vars(args) and _progress_wanted(args))


def _build_observability(args: argparse.Namespace):
    """A live observability context when :func:`_telemetry_wanted`, else
    the null one."""
    from repro.obs import NULL_OBS, enable_observability, open_event_stream

    if not _telemetry_wanted(args):
        return NULL_OBS
    events_out = args.events_out
    progress = "progress" in vars(args) and _progress_wanted(args)
    events = open_event_stream(events_out) if (events_out or progress) else None
    profiler = None
    if args.profile_out:
        from repro.obs.profile import DEFAULT_PROFILE_HZ, SamplingProfiler

        profiler = SamplingProfiler(hz=args.profile_hz or DEFAULT_PROFILE_HZ)
    obs = enable_observability(log_level=args.log_level, events=events,
                               profiler=profiler)
    if profiler is not None:
        # Per-span resource accounting rides with profiling; whether the
        # profiler records is _run_with_telemetry's ``sample`` (the
        # fleet's parent leaves it off so its merged profile is exactly
        # the deterministic fold of the workers' profiles).
        from repro.obs.profile import SpanResourceProbe

        obs.tracer.resource_probe = SpanResourceProbe()
    return obs


def _check_outputs(args: argparse.Namespace) -> Optional[str]:
    """Validate output paths and telemetry settings *before* any work.

    Returns an error message, or ``None`` when every path is writable
    and the logging environment parses.
    """
    import os

    for flag in ("metrics_out", "trace_out", "events_out", "json"):
        path = getattr(args, flag, None)
        if not path or path == "-":
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            return f"--{flag.replace('_', '-')}: directory does not exist: {parent}"
        if not os.access(parent, os.W_OK):
            return f"--{flag.replace('_', '-')}: directory is not writable: {parent}"
    profile_out = getattr(args, "profile_out", None)
    profile_hz = getattr(args, "profile_hz", None)
    if profile_hz is not None and not profile_out:
        return "--profile-hz requires --profile-out"
    if profile_hz is not None:
        from repro.obs.profile import SamplingProfiler

        try:
            SamplingProfiler(hz=profile_hz)
        except ValueError as error:
            return f"--profile-hz: {error}"
    if profile_out:
        target = os.path.abspath(profile_out)
        # The directory itself is created on demand; its parent must
        # already exist so a typo fails before the run, not after.
        probe = target if os.path.isdir(target) else os.path.dirname(target)
        if os.path.exists(target) and not os.path.isdir(target):
            return f"--profile-out: not a directory: {profile_out}"
        if not os.path.isdir(probe):
            return f"--profile-out: directory does not exist: {probe}"
        if not os.access(probe, os.W_OK):
            return f"--profile-out: directory is not writable: {probe}"
    if _telemetry_wanted(args):
        from repro.obs.logging import LogManager

        try:
            LogManager.from_env(default_level=args.log_level)
        except ValueError as error:
            return str(error)
    return None


def _write_observability_outputs(obs, args: argparse.Namespace) -> None:
    """Finalize telemetry outputs on every exit path of a run: partial
    failures and interrupts are exactly when telemetry matters most."""
    import json

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(obs.metrics.to_dict(), handle, indent=2, sort_keys=True)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        obs.tracer.write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.profile_out and obs.profiler.enabled:
        from repro.obs.profile import write_profile_outputs

        obs.profiler.stop()
        write_profile_outputs(obs.profiler.profile, args.profile_out,
                              tracer=obs.tracer)
        print(f"profile written to {args.profile_out} "
              f"({obs.profiler.profile.total_samples} samples)",
              file=sys.stderr)
    obs.events.close()
    if args.events_out and args.events_out != "-":
        print(f"events written to {args.events_out}", file=sys.stderr)


def _run_with_telemetry(args: argparse.Namespace, work, *, sample: bool = True,
                        on_interrupt: str = "telemetry outputs flushed") -> int:
    """Run ``work(obs)``, the body of an observed subcommand; its exit code.

    Builds the telemetry context and hands it to ``work``, which passes
    it on explicitly (the study's pipeline installs it for its own run),
    arms the profiling timer for the whole run and starts the profiler
    when ``sample`` (the fleet's workers sample themselves), and guards
    SIGINT/SIGTERM.  An interrupt exits ``128 + signum`` and an
    exception (the first failure of a fail-fast run) exits ``1`` with
    its traceback logged at debug level; every exit path disarms the
    timer and then writes the requested telemetry outputs.
    """
    from repro.interrupt import interrupt_guard
    from repro.obs.profile import arm_timer

    obs = _build_observability(args)
    disarm = arm_timer(obs.profiler.hz) if obs.profiler.enabled else None
    if sample and obs.profiler.enabled:
        obs.profiler.start()
    try:
        with interrupt_guard():
            return work(obs)
    except KeyboardInterrupt as interrupt:
        code = getattr(interrupt, "exit_code", 130)
        note = f"interrupted (exit {code}); {on_interrupt}"
    except BrokenPipeError:
        raise
    except Exception as error:  # noqa: BLE001 - reported below, exit 1
        import traceback

        code, note = 1, f"error: {type(error).__name__}: {error}"
        obs.logger("cli").debug("error_traceback", command=args.command,
                                traceback=traceback.format_exc())
    finally:
        if disarm is not None:
            disarm()
        _write_observability_outputs(obs, args)
    print(f"repro {args.command}: {note}", file=sys.stderr)
    return code


def _usage_error(args: argparse.Namespace, message: str) -> int:
    """Report a configuration error found before any work; exit code 2."""
    print(f"repro {args.command}: error: {message}", file=sys.stderr)
    return 2


def _print_failures(failures) -> None:
    """List the analyses a keep-going run isolated into a partial report."""
    if failures:
        print()
        print(f"{len(failures)} analysis failure(s) isolated "
              f"(partial report):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure.analysis}: {failure.error}", file=sys.stderr)


class _FleetProgress:
    """The minimal in-terminal progress line, driven by shard events.

    Subscribes to the run's :class:`~repro.obs.events.EventBus`; every
    shard lifecycle record that carries tallies redraws one
    carriage-return line on stderr.  Leaving its ``with`` block ends
    the line, so later output starts clean.
    """

    TERMINAL = ("shard_done", "shard_cached", "shard_failed",
                "shard_quarantined")

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self.active = False

    def __call__(self, record) -> None:
        if record.get("event") not in self.TERMINAL or "total" not in record:
            return
        quarantined = record.get("quarantined", 0)
        done = record.get("done", 0) + record.get("cached", 0) \
            + record.get("failed", 0) + quarantined
        line = (f"fleet: {done}/{record['total']} shards "
                f"({record.get('cached', 0)} cached, "
                f"{record.get('failed', 0)} failed)")
        if quarantined:
            line = line[:-1] + f", {quarantined} quarantined)"
        try:
            self.stream.write("\r" + line.ljust(60))
            self.stream.flush()
        except (OSError, ValueError):
            return
        self.active = True

    def __enter__(self) -> "_FleetProgress":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.active:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
            self.active = False


def _load_fault_plan(path: Optional[str]):
    """Load + validate a fault plan file; returns (plan, error_message)."""
    if not path:
        return None, None
    from repro.faults import FaultPlan
    from repro.faults.plan import FaultPlanError

    try:
        return FaultPlan.load(path), None
    except OSError as error:
        return None, f"--fault-plan: cannot read {path}: {error}"
    except FaultPlanError as error:
        return None, f"--fault-plan: invalid plan: {error}"


def _cmd_study(args: argparse.Namespace) -> int:
    fault_plan, error = _load_fault_plan(args.fault_plan)
    if error:
        return _usage_error(args, error)
    return _run_with_telemetry(args, lambda obs: _study(args, obs, fault_plan))


def _study(args: argparse.Namespace, obs, fault_plan) -> int:
    from repro.core.pipeline import StudyPipeline
    from repro.report.figures import render_figure2_bars, render_figure3_heatmap
    from repro.report.tables import (
        render_comparison,
        render_figure2,
        render_figure3,
        render_table1,
        render_table4,
    )

    report = StudyPipeline(
        seed=args.seed,
        passive_duration=args.duration,
        app_sample_size=args.apps,
        include_crowdsourced=args.crowdsourced,
        obs=obs,
        fault_plan=fault_plan,
        keep_going=not args.fail_fast,
    ).run()
    rows = []
    if report.device_graph is not None:
        summary = report.device_graph.summary()
        rows.append(("devices communicating locally (Fig. 1)", "43/93",
                     f"{summary['devices_communicating']}/{summary['devices_total']}"))
    if report.crossval is not None:
        rows.append(("classifier disagreement (Fig. 3)", "16%",
                     f"{report.crossval.disagree_fraction:.0%}"))
    rows.append(("devices with open ports (§4.2)", 61,
                 report.scan_report.devices_with_open_ports))
    if report.threat is not None:
        rows.append(("local TLS devices (§5.2)", 32, report.threat.tls_device_count))
    if report.periodicity is not None:
        rows.append(("periodic discovery flows (App. D.1)", "88%",
                     f"{report.periodicity.periodic_fraction:.0%}"))
    print(render_comparison(rows, title="Headline results — paper vs this run"))
    print()
    print(render_figure2_bars(report.census))
    print()
    print(render_figure2(report.census, top=20))
    if report.exposure is not None:
        print()
        print(render_table1(report.exposure))
    if report.responses is not None:
        print()
        print(render_table4(report.responses))
    if report.crossval is not None:
        print()
        print(render_figure3(report.crossval))
        print()
        print(render_figure3_heatmap(report.crossval))
    if report.fingerprint is not None:
        from repro.report.tables import render_table2

        print()
        print(render_table2(report.fingerprint))
    if report.fault_summary is not None:
        counts = report.fault_summary.get("counts", {})
        detail = ", ".join(f"{kind}={count}" for kind, count in sorted(counts.items()))
        print()
        print(f"fault plan {report.fault_summary['plan']!r}: "
              f"{report.fault_summary['total']} faults injected"
              + (f" ({detail})" if detail else ""))
    _print_failures(report.failures)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    return _run_with_telemetry(args, lambda obs: _classify(args, obs))


def _classify(args: argparse.Namespace, obs) -> int:
    from collections import Counter

    from repro.core.analyses import run_analyses
    from repro.net.ingest import ingest_pcap
    from repro.report.tables import render_figure3, render_table

    try:
        with obs.tracer.span("capture.decode_index"):
            index = ingest_pcap(args.pcap).index
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.pcap}: {error}", file=sys.stderr)
        return 1
    total = len(index)
    if not total:
        print("error: capture contains no packets", file=sys.stderr)
        return 1
    counts = Counter(str(index.label_at(rid)) for rid in range(total))
    print(render_table(
        ["protocol", "packets", "share"],
        [(label, count, f"{count / total:.1%}")
         for label, count in counts.most_common()],
        title=f"{args.pcap}: {total} packets (nDPI+manual labels)",
    ))
    if args.crossval:
        results, _ = run_analyses(("crossval",), index, {}, kind="classify",
                                  obs=obs, keep_going=False)
        print()
        print(render_figure3(results["crossval"]))
    return 0


def _load_device_map(path: Optional[str]):
    """Load ``--device-map`` JSON; returns (macs, vendors, categories, error).

    The file maps MAC string -> device name, or MAC string -> object
    with ``name`` and optional ``vendor``/``category`` keys.
    """
    import json

    if not path:
        return None, {}, {}, None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return None, {}, {}, f"--device-map: cannot read {path}: {error}"
    if not isinstance(raw, dict):
        return None, {}, {}, "--device-map: expected a JSON object"
    macs, vendors, categories = {}, {}, {}
    for mac, value in raw.items():
        key = mac.lower()
        if isinstance(value, str):
            macs[key] = value
        elif isinstance(value, dict) and "name" in value:
            macs[key] = value["name"]
            if "vendor" in value:
                vendors[value["name"]] = value["vendor"]
            if "category" in value:
                categories[value["name"]] = value["category"]
        else:
            return None, {}, {}, (
                f"--device-map: entry {mac!r} must be a name string or an "
                "object with a 'name' key")
    return macs, vendors, categories, None


#: ``repro ingest --json`` members that hold an analysis: the pass each
#: serializes and how.  A pass that failed leaves its member ``null``.
_INGEST_MEMBERS = {
    "census_passive": ("census", lambda census: {
        label: sorted(devices) for label, devices in census.passive.items()}),
    "graph_summary": ("device_graph", lambda graph: graph.summary()),
    "exposure": ("exposure", lambda exposure: {
        protocol: {kind: sorted(devices) for kind, devices in cells.items()}
        for protocol, cells in exposure.cells.items()}),
    "responses_by_category": ("responses", lambda responses: responses.by_category()),
    "periodicity": ("periodicity", lambda periodicity: {
        "detections": len(periodicity.detections),
        "periodic_fraction": periodicity.periodic_fraction,
    }),
    "threat": ("threat", lambda threat: {
        "plaintext_http_devices": sorted(threat.plaintext_http_devices),
        "http_servers": sorted(threat.http_servers),
        "tls_devices": sorted(threat.tls_devices),
    }),
    "crossval": ("crossval", lambda crossval: {
        "total_units": crossval.total_units,
        "agree": crossval.agree,
        "disagree": crossval.disagree,
        "neither": crossval.neither,
    }),
}


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.chunk_records <= 0:
        return _usage_error(
            args, f"--chunk-records must be positive, got {args.chunk_records}")
    device_macs, vendors, categories, error = _load_device_map(args.device_map)
    if error:
        return _usage_error(args, error)
    return _run_with_telemetry(
        args, lambda obs: _ingest(args, obs, device_macs, vendors, categories))


def _ingest(args: argparse.Namespace, obs, device_macs, vendors, categories) -> int:
    import json
    import os

    from repro.core.analyses import INGEST, run_analyses
    from repro.net.columnar import PacketTable
    from repro.net.decode import DecodeErrorLog
    from repro.net.ingest import IngestResult, IngestStats, ingest_pcap
    from repro.report.tables import render_table

    try:
        with obs.tracer.span("capture.decode_index"):
            if os.path.getsize(args.pcap) == 0:
                # A zero-byte capture file is what a tcpdump that was
                # killed before its first write leaves behind: an empty
                # capture, not a malformed one.
                result = IngestResult(PacketTable(), DecodeErrorLog(), IngestStats())
            else:
                result = ingest_pcap(args.pcap, chunk_records=args.chunk_records)
            index = result.index
    except (OSError, ValueError) as error:
        print(f"error: cannot ingest {args.pcap}: {error}", file=sys.stderr)
        return 1
    if device_macs is None:
        # No map supplied: every observed source MAC is its own device.
        device_macs = {mac: mac for mac in index.by_src_mac}
    results, failures = run_analyses(
        INGEST, index, {"macs": device_macs, "vendors": vendors,
                        "categories": categories, "findings": None},
        kind="ingest", obs=obs, keep_going=not args.fail_fast)

    stats = result.stats
    counts = index.protocol_counts()
    if len(index) == 0:
        # A header-only or zero-byte pcap is a normal outcome (a capture
        # that has not started yet, a quiet network): exit 0 with an
        # all-zero report of the same shape as a populated run.
        print(f"{args.pcap}: capture contains no packets (empty capture)")
    else:
        print(render_table(
            ["protocol", "packets", "share"],
            [(tag, count, f"{count / len(index):.1%}")
             for tag, count in sorted(counts.items(), key=lambda item: -item[1])],
            title=(f"{args.pcap}: {stats.packets} packets in {stats.chunks} "
                   f"chunk(s), {stats.quarantined_total} quarantined"),
        ))
        print()
    # Each summary line needs its pass; a failed pass drops its line.
    graph, threat, crossval = (results[name] for name in ("device_graph", "threat", "crossval"))
    if graph is not None:
        summary = graph.summary()
        print(f"devices: {len(device_macs)} mapped, "
              f"{summary['devices_communicating']} communicating "
              f"locally, {summary['device_pairs']} device pairs")
    if len(index) and threat is not None:
        print(f"threats: {len(threat.plaintext_http_devices)} plaintext-HTTP "
              f"device(s), {threat.tls_device_count} local-TLS device(s)")
    if len(index) and crossval is not None:
        print(f"classifiers: {crossval.total_units} units, "
              f"{crossval.disagree_fraction:.0%} disagree, "
              f"{crossval.neither_fraction:.0%} unlabeled")
    if stats.quarantined:
        detail = ", ".join(f"{reason}={count}"
                           for reason, count in sorted(stats.quarantined.items()))
        print(f"quarantined frames: {detail}")
    if args.json:
        payload = {
            "pcap": args.pcap,
            "packets": stats.packets,
            "bytes": stats.bytes,
            "chunks": stats.chunks,
            "quarantined": stats.quarantined,
            "protocol_counts": counts,
        }
        for member, (name, serialize) in _INGEST_MEMBERS.items():
            payload[member] = None if results[name] is None else serialize(results[name])
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"artifacts written to {args.json}", file=sys.stderr)
    _print_failures(failures)
    return 0


def _check_monitor_args(args: argparse.Namespace) -> Optional[str]:
    """Config validation for ``repro monitor``; message or ``None``."""
    if args.simulate and args.pcap:
        return "provide a PCAP path or --simulate, not both"
    if not args.simulate and not args.pcap:
        return "provide a PCAP path or --simulate"
    if args.follow and not args.pcap:
        return "--follow requires a PCAP path"
    if args.snapshot_every is not None and not args.snapshot_dir:
        return "--snapshot-every requires --snapshot-dir"
    for flag, positive in (
        ("chunk_records", True), ("window_packets", True),
        ("window_seconds", True), ("snapshot_every", True),
        ("duration", True), ("idle_timeout", True),
        ("max_packets", True), ("poll_interval", False),
    ):
        value = getattr(args, flag)
        if value is None:
            continue
        if value < 0 or (positive and value == 0):
            kind = "positive" if positive else "non-negative"
            return (f"--{flag.replace('_', '-')} must be {kind}, "
                    f"got {value}")
    return None


def _cmd_monitor(args: argparse.Namespace) -> int:
    import os

    error = _check_monitor_args(args)
    if error:
        return _usage_error(args, error)
    device_macs, _vendors, _categories, error = _load_device_map(args.device_map)
    if error:
        return _usage_error(args, error)
    if args.snapshot_dir:
        try:
            os.makedirs(args.snapshot_dir, exist_ok=True)
        except OSError as oserror:
            return _usage_error(args, f"--snapshot-dir: {oserror}")
    return _run_with_telemetry(args, lambda obs: _monitor(args, obs, device_macs))


def _monitor(args: argparse.Namespace, obs, device_macs) -> int:
    import os

    from repro.monitor import Monitor, follow_pcap_chunks, simulated_chunks
    from repro.net.ingest import iter_pcap_chunks

    monitor = Monitor(
        device_macs=device_macs,
        window_packets=args.window_packets,
        window_seconds=args.window_seconds,
        obs=obs,
    )
    if args.simulate:
        chunks = simulated_chunks(seed=args.seed, duration=args.duration,
                                  chunk_records=args.chunk_records)
    elif args.follow:
        chunks = follow_pcap_chunks(args.pcap,
                                    chunk_records=args.chunk_records,
                                    poll_interval=args.poll_interval,
                                    idle_timeout=args.idle_timeout)
    else:
        chunks = iter_pcap_chunks(args.pcap,
                                  chunk_records=args.chunk_records)

    interrupted: Optional[int] = None
    periodic = 0
    next_snapshot = args.snapshot_every
    try:
        with obs.tracer.span("monitor.absorb"):
            for chunk in chunks:
                monitor.absorb_chunk(chunk)
                while (next_snapshot is not None
                       and monitor.packets_seen >= next_snapshot):
                    periodic += 1
                    monitor.write_snapshot(os.path.join(
                        args.snapshot_dir, f"snapshot-{periodic:06d}.json"))
                    next_snapshot += args.snapshot_every
                if (args.max_packets is not None
                        and monitor.packets_seen >= args.max_packets):
                    break
    except KeyboardInterrupt as interrupt:
        # SIGINT/SIGTERM mid-stream: the window is still consistent, so
        # fall through to write the final snapshot before exiting by
        # the 128+signum convention.
        interrupted = getattr(interrupt, "exit_code", 130)
    except (OSError, ValueError) as error:
        print(f"repro monitor: error: {error}", file=sys.stderr)
        return 1

    final_paths = []
    if args.snapshot_dir:
        final_paths.append(os.path.join(args.snapshot_dir, "snapshot-final.json"))
    if args.json:
        final_paths.append(args.json)
    try:
        document = monitor.write_snapshot(*final_paths)
        if args.json:
            print(f"final snapshot written to {args.json}", file=sys.stderr)
    except OSError as error:
        print(f"repro monitor: error: {error}", file=sys.stderr)
        return 1

    window = document["window"]
    artifacts = document["artifacts"]
    census = artifacts["census"]
    graph = artifacts["device_graph"]["summary"]
    exposure_cells = sum(len(kinds)
                         for kinds in artifacts["exposure"]["cells"].values())
    periodicity = artifacts["periodicity"]
    print(f"monitor: {monitor.packets_seen} packets in {monitor.chunks} "
          f"chunk(s); window holds {window['packets']} packets across "
          f"{window['panes']} pane(s), {window['evicted_panes']} pane(s) "
          f"evicted")
    print(f"census: {census['total_devices']} devices across "
          f"{len(census['passive'])} protocols; "
          f"graph: {graph['device_pairs']} device pairs; "
          f"exposure: {exposure_cells} cells; "
          f"periodicity: {periodicity['group_count']} groups "
          f"({periodicity['periodic_fraction']:.0%} periodic)")
    if periodic:
        print(f"{periodic} periodic snapshot(s) written to "
              f"{args.snapshot_dir}", file=sys.stderr)
    if interrupted is not None:
        print(f"repro monitor: interrupted (exit {interrupted}); final "
              "snapshot reflects the window at interrupt", file=sys.stderr)
        return interrupted
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.max_findings < 0:
        return _usage_error(
            args, f"--max-findings must be non-negative, got {args.max_findings}")
    from repro.devices.behaviors import build_testbed
    from repro.report.tables import render_table
    from repro.scan.portscan import PortScanner
    from repro.scan.vulnscan import VulnerabilityScanner

    testbed = build_testbed(seed=args.seed)
    testbed.run(30.0)
    scanner = PortScanner()
    testbed.lan.attach(scanner)
    testbed.lan.capture.keep_bytes = False
    report = scanner.sweep(targets=testbed.devices)
    rows = []
    for host in report.hosts:
        if not host.has_open_ports:
            continue
        ports = ", ".join(
            f"{entry.port}/{entry.transport}:{entry.corrected_label}"
            for entry in host.open_ports[:6]
        )
        rows.append((host.name, host.ip, ports))
    print(render_table(["device", "ip", "open services (corrected labels)"], rows,
                       title=f"{report.devices_with_open_ports} devices with open ports"))
    findings = VulnerabilityScanner(include_low=not args.no_low).scan(testbed.devices)
    print()
    rows = [(finding.severity, finding.device, finding.title) for finding in findings[:args.max_findings]]
    print(render_table(["severity", "device", "finding"], rows,
                       title=f"{len(findings)} vulnerability findings"))
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.core.mitigations import MITIGATIONS, evaluate_mitigations
    from repro.inspector.generate import generate_dataset
    from repro.report.tables import render_table2

    if args.mitigation and args.mitigation not in MITIGATIONS:
        print(f"error: unknown mitigation {args.mitigation!r}; "
              f"choose from {', '.join(MITIGATIONS)}", file=sys.stderr)
        return 1
    dataset = generate_dataset(seed=args.seed)
    names = [args.mitigation] if args.mitigation else ["baseline"]
    outcome = evaluate_mitigations(dataset=dataset, names=names)[0]
    print(render_table2(outcome.report))
    print(f"\nmitigation: {outcome.name}; max combined entropy: "
          f"{outcome.max_entropy():.1f} bits; uniquely identifiable households: "
          f"{outcome.uniquely_identifiable_households()}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.devices.catalog import build_catalog
    from repro.report.tables import render_table, render_table3

    catalog = build_catalog()
    print(render_table3(catalog))
    if args.verbose:
        rows = [
            (profile.name, profile.vendor, profile.model,
             ", ".join(profile.exposed_identifier_types()))
            for profile in catalog
        ]
        print()
        print(render_table(["device", "vendor", "model", "exposes"], rows))
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.devices.behaviors import build_testbed

    testbed = build_testbed(seed=args.seed)
    testbed.run(args.duration)
    output = Path(args.output_dir)
    paths = testbed.lan.capture.write_per_mac_pcaps(output / "per-mac")
    total = testbed.lan.capture.write_pcap(output / "lab.pcap")
    print(f"wrote {total} packets to {output / 'lab.pcap'} "
          f"and {len(paths)} per-MAC pcaps to {output / 'per-mac'}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    fault_plan, error = _load_fault_plan(args.fault_plan)
    if error:
        return _usage_error(args, error)
    return _run_with_telemetry(
        args, lambda obs: _fleet(args, obs, fault_plan), sample=False,
        on_interrupt="manifest checkpointed — rerun with --resume to continue")


def _fleet(args: argparse.Namespace, obs, fault_plan) -> int:
    import json

    from repro.fleet import FleetConfigError, FleetError, FleetRunner, FleetSpec
    from repro.report.tables import render_table2

    spec_kwargs = dict(
        seed=args.seed,
        households=args.households,
        target_devices=args.target_devices,
        validate_oui=not args.no_validate_oui,
    )
    if args.shard_size is not None:
        spec_kwargs["shard_size"] = args.shard_size
    try:
        spec = FleetSpec(**spec_kwargs)
        runner = FleetRunner(
            spec=spec,
            workers=args.workers,
            cache_dir=args.cache_dir,
            resume=args.resume,
            fault_plan=fault_plan,
            keep_going=not args.fail_fast,
            obs=obs,
            # Fleet profiling is worker-side: each computed shard samples
            # itself and the parent's (never-started) profiler is only the
            # merge target, so the merged profile is a deterministic fold.
            profile_hz=obs.profiler.hz if args.profile_out else 0.0,
            retries=args.shard_retries,
            retry_backoff=args.retry_backoff,
            shard_deadline=args.shard_deadline,
        )
    except (FleetConfigError, ValueError) as error:
        return _usage_error(args, str(error))
    progress = _FleetProgress()
    if _progress_wanted(args) and obs.events.enabled:
        obs.events.subscribe(progress)
    try:
        with progress:
            result = runner.run()
    except FleetError as error:
        # A fleet run that died mid-flight is the one to inspect: the
        # telemetry outputs are still written on the way out.
        print(f"repro fleet: error: {error}", file=sys.stderr)
        return 2 if isinstance(error, FleetConfigError) else 1

    if result.report is not None:
        print(render_table2(result.report))
        print()
    summary = result.summary()
    states = summary["states"]
    quarantined_count = states.get("quarantined", 0)
    print(
        f"fleet: {summary['shards']} shards "
        f"({states.get('completed', 0)} computed, "
        f"{states.get('cached', 0)} cached, "
        f"{states.get('failed', 0)} failed"
        + (f", {quarantined_count} quarantined" if quarantined_count else "")
        + f"), workers {summary['workers']}, "
        f"cache {summary['cache_hits']} hits / "
        f"{summary['cache_misses']} misses / "
        f"{summary['cache_writes']} writes, "
        f"{summary['wall_seconds']:.1f}s wall"
        + (" [resumed]" if result.resumed else "")
    )
    if result.failures:
        print(f"{len(result.failures)} shard failure(s) isolated "
              f"(partial report):", file=sys.stderr)
        for failure in result.failures:
            print(f"  shard {failure.shard} "
                  f"[{failure.start}, {failure.stop}): {failure.error}",
                  file=sys.stderr)
    if result.quarantined:
        print(f"{len(result.quarantined)} poison shard(s) quarantined "
              f"after exhausting {runner.retries} retries "
              f"(partial report):", file=sys.stderr)
        for poison in result.quarantined:
            print(f"  shard {poison.shard} "
                  f"[{poison.start}, {poison.stop}): "
                  f"{poison.attempts} attempts, last error: {poison.error}",
                  file=sys.stderr)
    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "summary": summary,
            "report": result.report.to_dict() if result.report else None,
            "failures": [
                {"shard": failure.shard, "start": failure.start,
                 "stop": failure.stop, "error": failure.error}
                for failure in result.failures
            ],
            "quarantined": [
                {"shard": poison.shard, "start": poison.start,
                 "stop": poison.stop, "attempts": poison.attempts,
                 "error": poison.error}
                for poison in result.quarantined
            ],
            "shards": [
                {"index": state.index, "start": state.start, "stop": state.stop,
                 "state": state.state, "seconds": state.seconds,
                 "attempts": state.attempts}
                for state in result.shard_states
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"run summary written to {args.json}", file=sys.stderr)
    return 0


def _telemetry_flags() -> argparse.ArgumentParser:
    """The six telemetry flags, shared by every observed subcommand."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write a JSON metrics snapshot after the run")
    flags.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome trace_event file (chrome://tracing)")
    flags.add_argument("--events-out", metavar="PATH", default=None,
                       help="stream NDJSON progress events to PATH "
                            "('-' streams to stderr; see docs/observability.md)")
    flags.add_argument("--profile-out", metavar="DIR", default=None,
                       help="continuously profile the run; write flame.txt, "
                            "profile.speedscope.json and span_resources.json "
                            "into DIR (created if missing)")
    flags.add_argument("--profile-hz", type=float, default=None,
                       help="profiler sampling rate in samples/second "
                            "(default 97; requires --profile-out)")
    flags.add_argument("--log-level", default=None,
                       choices=["debug", "info", "warning", "error"],
                       help="enable structured logging at this level "
                            "(per-subsystem overrides via REPRO_LOG=sim=debug,...)")
    return flags


def _failure_flags() -> argparse.ArgumentParser:
    """The ``--keep-going``/``--fail-fast`` pair (``args.fail_fast``)."""
    flags = argparse.ArgumentParser(add_help=False)
    going = flags.add_mutually_exclusive_group()
    going.add_argument("--keep-going", dest="fail_fast", action="store_false",
                       default=False,
                       help="isolate failed analyses or shards into a "
                            "partial report (default)")
    going.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                       help="exit 1 on the first failure, once the work in "
                            "flight has finished")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'In the Room Where It Happens' (IMC 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    telemetry = _telemetry_flags()
    failures = _failure_flags()

    study = sub.add_parser("study", help="run the full study pipeline",
                           parents=[telemetry, failures])
    study.add_argument("--seed", type=int, default=7)
    study.add_argument("--duration", type=float, default=900.0,
                       help="passive capture length in simulated seconds")
    study.add_argument("--apps", type=int, default=60,
                       help="app sample size (2335 = the full dataset)")
    study.add_argument("--crowdsourced", action="store_true",
                       help="also run the Table 2 crowdsourced analysis")
    study.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="inject faults from a JSON fault plan "
                            "(see docs/resilience.md)")
    study.set_defaults(func=_cmd_study)

    classify = sub.add_parser("classify", help="classify any classic-pcap capture",
                              parents=[telemetry])
    classify.add_argument("pcap", help="path to a pcap file")
    classify.add_argument("--crossval", action="store_true",
                          help="also print the tshark-vs-nDPI comparison")
    classify.set_defaults(func=_cmd_classify)

    ingest = sub.add_parser(
        "ingest", help="stream an external pcap through the full analysis stack",
        parents=[telemetry, failures])
    ingest.add_argument("pcap", help="path to a classic pcap file")
    ingest.add_argument("--device-map", metavar="JSON", default=None,
                        help="JSON file mapping MAC -> device name (or an "
                             "object with name/vendor/category keys); "
                             "default: each source MAC is its own device")
    ingest.add_argument("--chunk-records", type=int, metavar="N",
                        default=8192,
                        help="pcap records ingested per bounded-memory "
                             "chunk (default 8192)")
    ingest.add_argument("--json", metavar="PATH", default=None,
                        help="write the analysis artifacts as JSON")
    ingest.set_defaults(func=_cmd_ingest)

    monitor = sub.add_parser(
        "monitor",
        help="online incremental analysis over a sliding window",
        parents=[telemetry])
    monitor.add_argument("pcap", nargs="?", default=None,
                         help="path to a classic pcap file (omit with "
                              "--simulate)")
    monitor.add_argument("--simulate", action="store_true",
                         help="consume the simulated lab's live feed "
                              "instead of a pcap")
    monitor.add_argument("--seed", type=int, default=7,
                         help="simulation seed (with --simulate)")
    monitor.add_argument("--duration", type=float, default=300.0,
                         help="simulated seconds to stream "
                              "(with --simulate; default 300)")
    monitor.add_argument("--follow", action="store_true",
                         help="tail a still-growing pcap, tcpdump-style; "
                              "stops after --idle-timeout without new bytes")
    monitor.add_argument("--poll-interval", type=float, default=0.5,
                         metavar="SECONDS",
                         help="how often --follow polls for growth "
                              "(default 0.5)")
    monitor.add_argument("--idle-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="--follow gives up after this long without "
                              "new bytes (default 10)")
    monitor.add_argument("--device-map", metavar="JSON", default=None,
                         help="JSON file mapping MAC -> device name (or an "
                              "object with name/vendor/category keys); "
                              "default: each source MAC is its own device")
    monitor.add_argument("--chunk-records", type=int, metavar="N",
                         default=8192,
                         help="records absorbed per pane (default 8192)")
    monitor.add_argument("--window-packets", type=int, metavar="N",
                         default=None,
                         help="evict oldest panes while the window holds "
                              "more than N packets (default: unbounded)")
    monitor.add_argument("--window-seconds", type=float, metavar="SECONDS",
                         default=None,
                         help="evict panes older than this capture-time "
                              "span (default: unbounded)")
    monitor.add_argument("--snapshot-every", type=int, metavar="N",
                         default=None,
                         help="write a numbered snapshot into "
                              "--snapshot-dir every N absorbed packets")
    monitor.add_argument("--snapshot-dir", metavar="DIR", default=None,
                         help="directory for snapshot-NNNNNN.json and "
                              "snapshot-final.json (created if missing)")
    monitor.add_argument("--max-packets", type=int, metavar="N",
                         default=None,
                         help="stop after absorbing at least N packets")
    monitor.add_argument("--json", metavar="PATH", default=None,
                         help="write the final window snapshot as JSON")
    monitor.set_defaults(func=_cmd_monitor)

    scan = sub.add_parser("scan", help="port- and vulnerability-scan the simulated lab")
    scan.add_argument("--seed", type=int, default=7)
    scan.add_argument("--no-low", action="store_true", help="hide low-severity findings")
    scan.add_argument("--max-findings", type=int, default=40)
    scan.set_defaults(func=_cmd_scan)

    fingerprint = sub.add_parser("fingerprint", help="Table 2 entropy analysis")
    fingerprint.add_argument("--seed", type=int, default=23)
    fingerprint.add_argument("--mitigation", default=None,
                             help="apply a §7 mitigation first (see repro.core.mitigations)")
    fingerprint.set_defaults(func=_cmd_fingerprint)

    catalog = sub.add_parser("catalog", help="print the Table 3 device inventory")
    catalog.add_argument("--verbose", action="store_true",
                         help="one row per device with its exposure classes")
    catalog.set_defaults(func=_cmd_catalog)

    capture = sub.add_parser("capture", help="run the lab and write pcaps to disk")
    capture.add_argument("output_dir")
    capture.add_argument("--seed", type=int, default=7)
    capture.add_argument("--duration", type=float, default=600.0)
    capture.set_defaults(func=_cmd_capture)

    fleet = sub.add_parser(
        "fleet", help="sharded multi-process Table 2 run with shard caching",
        parents=[telemetry, failures])
    fleet.add_argument("--seed", type=int, default=23)
    fleet.add_argument("--households", type=int, default=3860,
                       help="population size (3860 = the paper's §6.3 subset)")
    fleet.add_argument("--target-devices", type=int, default=12669,
                       help="population device-count target")
    fleet.add_argument("--shard-size", type=int, default=None,
                       help="households per shard (default: 256)")
    fleet.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: the CPU count)")
    fleet.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="content-addressed shard cache + checkpoint manifest")
    fleet.add_argument("--resume", action="store_true",
                       help="continue a previous --cache-dir run "
                            "(errors if the manifest does not match)")
    fleet.add_argument("--no-validate-oui", action="store_true",
                       help="skip OUI validation of MAC candidates "
                            "(the §6.3 ablation)")
    fleet.add_argument("--json", metavar="PATH", default=None,
                       help="write the merged report + run summary as JSON")
    fleet.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="inject shard faults from a JSON plan's "
                            "'shards' section (see docs/resilience.md)")
    fleet.add_argument("--shard-retries", type=int, default=2, metavar="N",
                       help="retry budget per shard before poison "
                            "quarantine (default 2; 0 disables retries)")
    fleet.add_argument("--retry-backoff", type=float, default=0.5,
                       metavar="SECONDS",
                       help="base retry delay; attempt n waits "
                            "backoff * 2**(n-1) seconds (default 0.5)")
    fleet.add_argument("--shard-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock deadline per shard attempt; a "
                            "worker silent past it is reaped and the "
                            "shard rescheduled (default: derived from "
                            "shard size, min 60s)")
    progress_group = fleet.add_mutually_exclusive_group()
    progress_group.add_argument("--progress", dest="progress",
                                action="store_true", default=None,
                                help="force the in-terminal shard progress "
                                     "line (default: only on a TTY)")
    progress_group.add_argument("--no-progress", dest="progress",
                                action="store_false",
                                help="suppress the shard progress line")
    fleet.set_defaults(func=_cmd_fleet)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    error = _check_outputs(args)
    if error:
        return _usage_error(args, error)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except KeyboardInterrupt as interrupt:
        # An interrupt outside the telemetry lifecycle's guard (argument
        # parsing, the unobserved subcommands): exit by the same
        # 128+signum convention instead of dumping a traceback.
        return getattr(interrupt, "exit_code", 130)


if __name__ == "__main__":
    raise SystemExit(main())
