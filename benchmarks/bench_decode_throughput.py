"""Decode throughput: columnar ingest vs materialized decode.

The tentpole perf claim of the columnar capture store, measured
directly: how many packets/second the store sustains on a cold
ingest+index scan (the primary ``packets_per_second`` metric — what the
pipeline pays before analyses start), on a raw columnar ingest
(``columnar_packets_per_second``), when the table materializes every
row to a full ``DecodedPacket`` (``table().packets()``), and when the
capture serves its already built index again.  Timings land in
``STAGE_TIMINGS`` (attached to the bench JSON under ``stage_timings``)
so the decode trajectory is tracked next to the pipeline stages.

Also runnable standalone as the CI perf smoke::

    PYTHONPATH=src python benchmarks/bench_decode_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_decode_throughput.py --smoke --profile

which builds a small capture, checks that serving the cached index is
the same object and not slower than the cold build, and that the
columnar index agrees with the eager reference
(``PacketTable.from_packets`` of a per-record decode), and prints the
numbers as JSON.  ``--profile`` adds the
profiler overhead gate: the same decode with a
:class:`repro.obs.profile.SamplingProfiler` recording must stay within
:data:`PROFILE_OVERHEAD_MAX` of the unprofiled time, and the sampled
flamegraph must actually contain decode-path frames.
"""

from __future__ import annotations

import time

from repro.simnet.capture import ApCapture


def _feed(capture: ApCapture, records) -> ApCapture:
    for timestamp, data in records:
        capture.observe(timestamp, data)
    return capture


def _materialize(records) -> list:
    """Every row of a fresh capture as a ``DecodedPacket``, in order."""
    return _feed(ApCapture(), records).table().packets()


def bench_decode_serial_cold(benchmark, lab_run, stage_timings):
    """Cold ingest and full materialization of the lab capture."""
    testbed, _, _ = lab_run
    records = list(testbed.lan.capture.records)

    def cold():
        return _materialize(records)

    started = time.perf_counter()
    packets = benchmark.pedantic(cold, rounds=1, iterations=1)
    stage_timings["decode_serial_cold"] = time.perf_counter() - started
    print(f"\nserial cold: {len(packets)} packets")
    assert len(packets) == len(records)


def bench_decode_cached(benchmark, lab_run, stage_timings):
    """The memoized path: every ``index()`` after the first is a cache hit."""
    testbed, _, _ = lab_run
    capture = testbed.lan.capture
    first = capture.index()

    started = time.perf_counter()
    again = benchmark.pedantic(capture.index, rounds=1, iterations=1)
    stage_timings["decode_cached"] = time.perf_counter() - started
    assert again is first  # same index object, zero re-decode


def bench_columnar_index_cold(benchmark, lab_run, stage_timings):
    """Cold columnar ingest + zero-copy index build (the primary metric)."""
    testbed, _, _ = lab_run
    records = list(testbed.lan.capture.records)

    def cold():
        return _feed(ApCapture(), records).index()

    started = time.perf_counter()
    index = benchmark.pedantic(cold, rounds=1, iterations=1)
    stage_timings["columnar_index_cold"] = time.perf_counter() - started
    assert len(index) == len(records)


def bench_capture_index_cached(benchmark, lab_run, lab_index, stage_timings):
    """Index retrieval after the session fixture built it: cache hit."""
    testbed, _, _ = lab_run

    started = time.perf_counter()
    index = benchmark.pedantic(testbed.lan.capture.index, rounds=1, iterations=1)
    stage_timings["capture_index_cached"] = time.perf_counter() - started
    assert index is lab_index


# -- standalone smoke mode (CI perf gate) ------------------------------------------


def run_smoke(duration: float = 300.0, seed: int = 7) -> dict:
    """Small-capture smoke: columnar vs materialized decode contracts.

    Measures the tentpole legs — cold columnar ingest+index scan (the
    ``packets_per_second`` primary metric), raw columnar ingest
    (``columnar_packets_per_second``), full materialization of the cold
    capture's table, and a second ``index()`` call — and gates the
    invariants: the second call returns the identical index and is no
    slower than the cold build, and the columnar index is equivalent to
    the eager reference index.  Returns the measured numbers; raises
    ``SystemExit`` on regression.
    """
    from repro.devices.behaviors import build_testbed
    from repro.net.columnar import PacketTable
    from repro.net.decode import decode_records
    from repro.net.index import CaptureIndex

    testbed = build_testbed(seed=seed)
    testbed.run(duration)
    records = list(testbed.lan.capture.records)

    # Raw columnar ingest: one pass building every column + the arena.
    started = time.perf_counter()
    table = PacketTable.from_records(records)
    columnar_seconds = time.perf_counter() - started

    # The primary metric: cold ingest + zero-copy index build — what the
    # pipeline actually pays before the analyses start scanning.
    cold_capture = _feed(ApCapture(), records)
    started = time.perf_counter()
    cold_index = cold_capture.index()
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cold_capture.table().packets()
    materialize_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cached_index = cold_capture.index()
    cached_seconds = time.perf_counter() - started

    # Equivalence gate: the columnar fast path must agree with the eager
    # reference index over a per-record decode, bucket for bucket.
    eager_index = CaptureIndex(PacketTable.from_packets(decode_records(records)))
    equivalence_ok = (
        len(table) == len(records)
        and cold_index.protocol_counts() == eager_index.protocol_counts()
        and {mac: len(rids) for mac, rids in cold_index.by_src_mac.items()}
        == {mac: len(rids) for mac, rids in eager_index.by_src_mac.items()}
        and len(cold_index.arp) == len(eager_index.arp)
        and len(cold_index.udp) == len(eager_index.udp)
        and len(cold_index.tcp_payload) == len(eager_index.tcp_payload)
        and len(cold_index.transport_unicast) == len(eager_index.transport_unicast)
        and len(cold_index.transport_multicast) == len(eager_index.transport_multicast)
    )

    results = {
        "packets": len(records),
        "columnar_seconds": columnar_seconds,
        "cold_seconds": cold_seconds,
        "materialize_seconds": materialize_seconds,
        "cached_seconds": cached_seconds,
        "cold_pps": len(records) / cold_seconds if cold_seconds else None,
        "columnar_pps": (
            len(records) / columnar_seconds if columnar_seconds else None
        ),
        "cached_not_slower": cached_seconds <= cold_seconds,
        "equivalence_ok": equivalence_ok,
    }
    if cached_index is not cold_index:
        raise SystemExit("the capture rebuilt an index it had already built")
    if not results["equivalence_ok"]:
        raise SystemExit(
            "columnar index diverged from the eager per-packet decode")
    if not results["cached_not_slower"]:
        raise SystemExit(
            f"cached index slower than cold index build "
            f"({cached_seconds:.6f}s > {cold_seconds:.6f}s)"
        )
    return results


#: Allowed profiled-vs-plain decode slowdown (10%) — the overhead
#: contract of ``repro.obs.profile``.
PROFILE_OVERHEAD_MAX = 0.10


def run_profile_smoke(duration: float = 900.0, seed: int = 7,
                      repeats: int = 5) -> dict:
    """Profiler overhead gate: sampled decode vs plain decode.

    Ingests the same capture and materializes every row (so the
    layered decoder in ``repro/net/decode.py`` runs) under a recording
    :class:`~repro.obs.profile.SamplingProfiler` (with the
    :class:`~repro.obs.profile.SpanResourceProbe` installed, i.e. the
    full ``--profile-out`` configuration) and plain, **interleaved**
    plain/profiled ``repeats`` times so container noise (CI neighbours,
    thermal drift) hits both sides alike; compares best-of times and
    checks the sampled flamegraph contains decode frames.  Returns the
    numbers; raises ``SystemExit`` on a broken contract.
    """
    from repro.devices.behaviors import build_testbed
    from repro.obs import enable_observability, use_obs
    from repro.obs.profile import SamplingProfiler, SpanResourceProbe

    testbed = build_testbed(seed=seed)
    testbed.run(duration)
    records = list(testbed.lan.capture.records)

    def decode_once():
        return _materialize(records)

    profiler = SamplingProfiler()
    obs = enable_observability(profiler=profiler)
    obs.tracer.resource_probe = SpanResourceProbe()

    def profiled_once():
        with use_obs(obs), obs.tracer.span("decode"):
            return decode_once()

    decode_once()  # warm-up: caches and allocator state, untimed

    def timed(fn) -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    plain_seconds = profiled_seconds = float("inf")
    for _ in range(repeats):
        plain_seconds = min(plain_seconds, timed(decode_once))
        # The profiler records (and arms the timer) only while the
        # profiled side is timed; start/stop stay outside the clock (a
        # CLI run pays them once, not per decode).
        profiler.start()
        try:
            profiled_seconds = min(profiled_seconds, timed(profiled_once))
        finally:
            profiler.stop()

    flame = profiler.profile.to_collapsed()
    overhead = (profiled_seconds / plain_seconds - 1.0) if plain_seconds else 0.0
    results = {
        "packets": len(records),
        "plain_seconds": plain_seconds,
        "profiled_seconds": profiled_seconds,
        "overhead": overhead,
        "overhead_limit": PROFILE_OVERHEAD_MAX,
        "profile_samples": profiler.profile.total_samples,
        "decode_frames_sampled": "repro/net/decode.py" in flame,
    }
    if not results["decode_frames_sampled"]:
        raise SystemExit(
            "profiled decode produced no decode-path samples "
            f"({results['profile_samples']} samples total) — "
            "span attribution or the sampling timer is broken")
    if overhead > PROFILE_OVERHEAD_MAX:
        raise SystemExit(
            f"profiler overhead {overhead:.1%} exceeds the "
            f"{PROFILE_OVERHEAD_MAX:.0%} contract ({profiled_seconds:.4f}s "
            f"profiled vs {plain_seconds:.4f}s plain)")
    return results


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI perf smoke and print JSON")
    parser.add_argument("--profile", action="store_true",
                        help="also gate the sampling-profiler overhead "
                             "contract (<10% decode slowdown)")
    parser.add_argument("--duration", type=float, default=300.0,
                        help="simulated seconds of capture to decode")
    options = parser.parse_args()
    if not options.smoke:
        parser.error("standalone mode requires --smoke (benches run via pytest)")
    results = run_smoke(duration=options.duration)
    if options.profile:
        results["profile"] = run_profile_smoke(duration=options.duration)
    print(json.dumps(results, indent=2))
