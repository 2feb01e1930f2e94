"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

``SPEC.json`` (written by ``run.py``) names the workload, the ``src``
directory, the argv of the cold and the warm ``repro`` call and how
many warm calls to make, whether to trace, the ``time.monotonic()``
reading, steal-time reading and host-speed probe taken just before this
process was spawned, and where to write the result JSON.  With
``"setup_only"`` the process stops once the subcommand's modules are
imported.

Every call is timed on a :class:`hostclock.HostClock`: reference-host
seconds, with steal time and the clock's own probes left out.  The
unscaled wall and CPU seconds are kept next to the scaled ones.
"""

from __future__ import annotations

import json
import sys
import time


def _spec():
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        return json.load(handle)


SPEC = _spec()
sys.path.insert(0, SPEC["src"])

import importlib  # noqa: E402

for _module in SPEC["imports"]:
    importlib.import_module(_module)
SETUP_S = time.monotonic() - SPEC["spawned"]

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402

import hostclock  # noqa: E402

#: Set-up is scaled by the host's speed on both sides of it: probed by
#: ``run.py`` just before the spawn, and here just after.
SETUP_PROBE_S = (SPEC["probe_s"] + hostclock.settled_probe()) / 2
#: Steal time during set-up, which does not count (see hostclock).
SETUP_STOLEN_S = min(SETUP_S, max(0.0, hostclock.stolen() - SPEC["stolen"]))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """VmHWM of this process, or of its largest finished child if larger."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        own_kb = next(int(line.split()[1]) for line in handle
                      if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def main() -> int:
    result = {"setup_s": ((SETUP_S - SETUP_STOLEN_S)
                          * hostclock.rate(SETUP_PROBE_S)),
              "setup_raw_s": SETUP_S}
    if SPEC.get("setup_only"):
        _write(result)
        return 0

    import spans
    import workloads
    from repro.cli import main as repro_main

    workload = SPEC["workload"]
    probes = workloads.Probes()
    workloads.install_probes(workload, probes)
    recorder = None
    if SPEC["traced"]:
        recorder = spans.Recorder()
        spans.install(recorder)

    calls, intervals = {"cold": [], "warm": []}, []
    order = ["cold"] + ["warm"] * SPEC["argv"]["warm_calls"]
    for call in order:
        argv = SPEC["argv"][call]
        probes.reset()
        # Each call starts from a collected heap, like a fresh process;
        # otherwise a collection of one call's garbage lands in the next.
        gc.collect()
        stdout = io.StringIO()
        # The traced run's spans read the raw clock: it is probed only
        # at the call's ends.
        clock = hostclock.HostClock(ticking=recorder is None)
        probes.clock = clock.now
        cpu = _cpu_seconds()
        clock.start()
        started, raw_started, span_started = (clock.now(), clock.raw(),
                                              time.perf_counter())
        try:
            with contextlib.redirect_stdout(stdout):
                rc = repro_main(list(argv))
        finally:
            span_ended = time.perf_counter()
            clock.stop()
        ended, raw_ended = clock.now(), clock.raw()
        # Probing is CPU work of this process: take it out, then scale.
        cpu = _cpu_seconds() - cpu - clock.paused
        intervals.append((span_started, span_ended))
        raw_wall = raw_ended - raw_started
        # The mean rate of the clock, steal left out.
        scale = (ended - started) / (raw_wall - clock.stolen)
        scored = workloads.outcome(workload, call, argv, rc, stdout.getvalue(),
                                   probes)
        calls[call].append(dict(vars(scored), wall_s=ended - started,
                                cpu_s=cpu * scale, raw_wall_s=raw_wall,
                                raw_cpu_s=cpu, stolen_s=clock.stolen,
                                host_probes=clock.ticks))
        if call == "cold":
            result["rss_peak_mb"] = _peak_rss_mb()
    result["calls"] = calls
    if recorder is not None:
        values, own = spans.layer_metrics(
            recorder, intervals, workers=workloads.FLEET_WORKERS)
        result["layers"] = values
        result["self_s"] = dict(own)
        trace = {"spans": [list(span) for span in recorder.spans],
                 "calls": intervals}
        with open(SPEC["trace_out"], "w", encoding="utf-8") as handle:
            handle.write(json.dumps(trace))
    _write(result)
    return 0


def _write(result) -> None:
    # json.dumps, not json.dump: the traced run wraps json.dump.
    with open(SPEC["result"], "w", encoding="utf-8") as handle:
        handle.write(json.dumps(result))


if __name__ == "__main__":
    raise SystemExit(main())
