"""Record a benchmark run into a repo-root ``BENCH_*.json`` trajectory.

Runs one of the named smoke benchmarks (the same ones CI's perf gates
execute), derives throughput metrics from its numbers, stamps the entry
with the environment fingerprint from
:func:`repro.obs.bench.env_fingerprint`, and appends it to the matching
trajectory file::

    PYTHONPATH=src python tools/bench_record.py decode
    PYTHONPATH=src python tools/bench_record.py fleet --households 400
    PYTHONPATH=src python tools/bench_record.py all --notes "PR 6 seed"

Benchmarks:

* ``decode`` → ``BENCH_decode.json``, primary metric
  ``packets_per_second`` (cold columnar ingest + index scan), plus the
  ``columnar_packets_per_second`` secondary column (raw table ingest).
* ``fleet``  → ``BENCH_fleet.json``, primary metric
  ``households_per_second`` (cold sharded run throughput).
* ``monitor`` → ``BENCH_monitor.json``, primary metric
  ``packets_per_second`` (steady-state windowed absorb over the 10×
  replicated stream), plus the 1×/10× tracemalloc peaks whose ratio the
  bench itself gates at 1.10 (the bounded-memory guarantee).

``--note`` appends a fragment to ``--notes`` (repeatable), so CI can
stamp entries without hand-editing the JSON.

``--date`` overrides the stamped ISO date (defaulting to today at this
CLI boundary — the library layer never reads the wall clock).  Pair
with ``tools/check_bench_regression.py`` to gate on the trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.obs.bench import BenchEntry, BenchTrajectory, env_fingerprint  # noqa: E402

#: benchmark name -> (trajectory file, primary metric, runner)
BENCHMARKS = {}


def _register(name, filename, primary_metric):
    def wrap(runner):
        BENCHMARKS[name] = (filename, primary_metric, runner)
        return runner
    return wrap


@_register("decode", "BENCH_decode.json", "packets_per_second")
def _run_decode(options) -> dict:
    from bench_decode_throughput import run_smoke

    results = run_smoke(duration=options.duration)
    packets = results["packets"]
    metrics = {
        "packets": float(packets),
        "packets_per_second": packets / results["cold_seconds"],
        "cold_seconds": results["cold_seconds"],
        "cached_seconds": results["cached_seconds"],
        "columnar_seconds": results["columnar_seconds"],
        "materialize_seconds": results["materialize_seconds"],
    }
    if results["columnar_seconds"] > 0:
        metrics["columnar_packets_per_second"] = (
            packets / results["columnar_seconds"])
    return metrics


@_register("fleet", "BENCH_fleet.json", "households_per_second")
def _run_fleet(options) -> dict:
    from bench_fleet_scaling import run_smoke

    results = run_smoke(households=options.households,
                        workers=options.workers)
    return {
        "households": float(results["households"]),
        "shards": float(results["shards"]),
        "workers": float(results["workers"]),
        "households_per_second": results["households"] / results["cold_seconds"],
        "serial_seconds": results["serial_seconds"],
        "cold_seconds": results["cold_seconds"],
        "warm_seconds": results["warm_seconds"],
        "warm_cache_hits": float(results["warm_cache_hits"]),
    }


@_register("monitor", "BENCH_monitor.json", "packets_per_second")
def _run_monitor_bench(options) -> dict:
    from bench_monitor import run_smoke

    results = run_smoke(duration=options.monitor_duration)
    return {
        "packets": float(results["packets"]),
        "packets_per_second": results["packets_per_second"],
        "seconds": results["seconds"],
        "seconds_1x": results["seconds_1x"],
        "window_packets": float(results["window_packets"]),
        "chunk_records": float(results["chunk_records"]),
        "tracemalloc_peak_1x": float(results["tracemalloc_peak_1x"]),
        "tracemalloc_peak_10x": float(results["tracemalloc_peak_10x"]),
        "peak_ratio": results["peak_ratio"],
        "evicted_panes": float(results["evicted_panes"]),
    }


def record(name: str, options) -> BenchTrajectory:
    """Run benchmark ``name`` and append the entry to its trajectory.

    Every entry also carries resource columns — ``rss_peak_bytes`` and
    ``cpu_seconds`` from :func:`repro.obs.events.process_stats` — so the
    trajectory tracks memory alongside throughput;
    ``check_bench_regression`` gates the memory column at its own
    (looser) tolerance.
    """
    from repro.obs.events import process_stats

    filename, primary_metric, runner = BENCHMARKS[name]
    metrics = runner(options)
    stats = process_stats()
    metrics.setdefault("rss_peak_bytes", stats["rss_peak_bytes"])
    metrics.setdefault("cpu_seconds", stats["cpu_seconds"])
    trajectory = BenchTrajectory.load(
        REPO_ROOT / filename, name=name, primary_metric=primary_metric)
    # Pin identity fields on first write; later runs must agree.
    if not trajectory.entries:
        trajectory.name = name
        trajectory.primary_metric = primary_metric
    entry = BenchEntry(date=options.date, fingerprint=env_fingerprint(),
                       metrics=metrics, notes=options.notes)
    trajectory.append(entry)
    trajectory.save()
    return trajectory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_record", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("benchmark", choices=sorted(BENCHMARKS) + ["all"],
                        help="which smoke benchmark to run and record")
    parser.add_argument("--date", default=datetime.date.today().isoformat(),
                        help="ISO date to stamp the entry with (default: today)")
    parser.add_argument("--notes", default="",
                        help="free-form note attached to the entry")
    parser.add_argument("--note", action="append", default=[],
                        metavar="TEXT",
                        help="additional note fragment; repeatable, joined "
                             "onto --notes with '; '")
    parser.add_argument("--duration", type=float, default=300.0,
                        help="decode bench: simulated capture seconds")
    parser.add_argument("--households", type=int, default=400,
                        help="fleet bench: population size")
    parser.add_argument("--workers", type=int, default=2,
                        help="fleet bench: worker processes")
    parser.add_argument("--monitor-duration", type=float, default=60.0,
                        help="monitor bench: simulated capture seconds "
                             "for the 1x stream (10x is replicated)")
    options = parser.parse_args(argv)
    if options.note:
        fragments = ([options.notes] if options.notes else []) + options.note
        options.notes = "; ".join(fragments)

    names = sorted(BENCHMARKS) if options.benchmark == "all" else [options.benchmark]
    for name in names:
        trajectory = record(name, options)
        latest = trajectory.latest
        print(json.dumps({
            "benchmark": name,
            "file": str(trajectory.path.relative_to(REPO_ROOT)),
            "entries": len(trajectory.entries),
            "date": latest.date,
            trajectory.primary_metric: latest.metrics[trajectory.primary_metric],
        }, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
