"""The shard worker: generate + analyze one household range.

``run_shard`` is the unit of work the fleet dispatches to its
``ProcessPoolExecutor``.  It takes only plain data (the spec's dict
form and a household range) and returns only plain data (a JSON-able
shard result), so it pickles cheaply across the process boundary and
its output can land in the content-addressed cache verbatim.

The result carries everything the merge needs and nothing else: the
serialized :class:`~repro.inspector.entropy.EntropyAnalysis` partial
plus the per-household device counts and vendor/product tallies that
feed the report's context statistics — and, under the ``"obs"`` key,
the worker's own telemetry as an
:class:`~repro.obs.snapshot.ObsSnapshot` (metrics + spans), so a
multi-process fleet run loses nothing to the process boundary.  The
worker registry holds only deterministic counters/gauges (household,
device, vendor tallies); wall-clock timings live in span attrs and the
shard-level ``seconds`` field, keeping the parent's merged counter set
byte-identical at any worker count.

Two opt-in extras ride along, both off by default so an unprofiled
fleet's shard payloads stay byte-identical to earlier builds:

* ``profile_hz > 0`` samples the shard's own spans with a
  :class:`~repro.obs.profile.SamplingProfiler` (plus a
  :class:`~repro.obs.profile.SpanResourceProbe`) under a timer armed
  once per process, which keeps its phase from shard to shard; the
  sampled profile travels inside the ``"obs"`` snapshot and — because
  the cache stores the payload verbatim — cache hits replay the stored
  profile on later runs.
* ``events_path`` appends ``kind="worker"`` heartbeat records (shard
  index + pid + RSS/CPU) to the parent's NDJSON event stream, so a
  ``tail -f`` shows worker liveness, not just the parent's merge loop.
"""

from __future__ import annotations

import atexit
import functools
import time
from typing import Dict, List, Optional

from repro.fleet.supervisor import WorkerClaim
from repro.inspector.entropy import analyze_dataset
from repro.inspector.generate import GenerationContext, build_context, generate_households
from repro.inspector.schema import InspectorDataset
from repro.obs import MetricsRegistry, Observability, ObsSnapshot, Tracer, use_obs
from repro.obs.events import NULL_EVENT_BUS, open_event_stream
from repro.obs.logging import NullLogManager
from repro.obs.profile import NULL_PROFILER, SamplingProfiler, SpanResourceProbe, arm_timer


#: The payload keys :func:`~repro.fleet.merge.merge_shard_results` reads.
_MERGE_KEYS = ("start", "stop", "device_count", "household_device_counts",
               "vendor_counts", "product_counts", "analysis")


def is_shard_payload(payload: object, start: int, stop: int) -> bool:
    """True when ``payload`` has the shape of :func:`run_shard`'s result
    for households ``[start, stop)``: a dict holding every key the merge
    reads.  A cache entry that fails this check is corrupt."""
    return (isinstance(payload, dict)
            and all(key in payload for key in _MERGE_KEYS)
            and payload["start"] == start and payload["stop"] == stop)


@functools.lru_cache(maxsize=1)
def population_context(seed: int, households: int, target_devices: int,
                       vendor_count: int, product_count: int) -> GenerationContext:
    """:func:`build_context`, built once per process for the run's spec.

    Every shard of a run passes the same five values, so an inline run
    builds the context once and each pool worker builds it once.  The
    context is shared between shards, so nothing may mutate it.
    """
    return build_context(seed=seed, households=households,
                         target_devices=target_devices,
                         vendor_count=vendor_count, product_count=product_count)


def arm_worker_timer(hz: float) -> None:
    """Pool initializer: arm this fresh worker's profiling timer for its
    life (a forked worker inherits none); ``atexit`` disarms it before
    the interpreter restores ``SIGPROF``'s deadly default action."""
    atexit.register(arm_timer(hz))


class ShardFaultInjected(RuntimeError):
    """The deterministic worker crash the fault plan's ``shards`` section asks for."""


#: Sleep quantum for the hang/slow fault loops: hangs stay silent but
#: remain interruptible, slowdowns heartbeat once per chunk.
_FAULT_SLEEP_CHUNK = 0.2


def _hang(seconds: float) -> None:
    """Go silent for ``seconds``: no heartbeats, no claim touches."""
    deadline = time.perf_counter() + seconds
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(_FAULT_SLEEP_CHUNK, remaining))


def _drag(extra_seconds: float, claim: WorkerClaim) -> None:
    """Pad wall time by ``extra_seconds`` while *keeping* the heartbeat
    alive — a slow worker must never look hung to the watchdog."""
    deadline = time.perf_counter() + extra_seconds
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(_FAULT_SLEEP_CHUNK, remaining))
        claim.touch()


def run_shard(
    spec_dict: Dict[str, object],
    start: int,
    stop: int,
    inject_fault: Optional[Dict[str, object]] = None,
    profile_hz: float = 0.0,
    events_path: Optional[str] = None,
    shard_index: Optional[int] = None,
    claim_path: Optional[str] = None,
) -> Dict[str, object]:
    """Generate households ``[start, stop)`` and analyze them.

    ``claim_path`` is the supervisor's heartbeat channel: the worker
    writes its pid there on entry and touches the file at every phase
    boundary, so the parent's watchdog can tell slow from dead (and
    knows which pid to reap).

    ``inject_fault`` is the fleet's per-shard chaos hook, a dict with a
    ``"kind"`` key:

    * ``{"kind": "fail"}`` — raise before generating, so an injected
      crash never pollutes the cache with a partial result;
    * ``{"kind": "hang", "seconds": s}`` — go silent (no heartbeats)
      for ``s`` wall seconds before working, exercising the watchdog;
    * ``{"kind": "slow", "factor": f}`` — finish the work, then pad
      wall time to ``f``× while still heartbeating.

    The fault-free payload is byte-identical to earlier builds.
    """
    claim = WorkerClaim.acquire(claim_path)
    fault_kind = (inject_fault or {}).get("kind")
    if fault_kind == "fail":
        raise ShardFaultInjected(
            f"fault plan killed shard covering households [{start}, {stop})")
    if fault_kind == "hang":
        _hang(float((inject_fault or {}).get("seconds", 300.0)))
        claim.touch()
    started = time.perf_counter()
    profiler = SamplingProfiler(hz=profile_hz) if profile_hz > 0.0 else NULL_PROFILER
    tracer = Tracer()
    obs = Observability(metrics=MetricsRegistry(), tracer=tracer,
                        logs=NullLogManager(), enabled=True, profiler=profiler)
    events = (open_event_stream(events_path, append=True)
              if events_path else NULL_EVENT_BUS)
    if profiler.enabled:
        profiler.bind(tracer)
        tracer.resource_probe = SpanResourceProbe()
        profiler.start()
    try:
        with use_obs(obs), obs.tracer.span("fleet.worker", start=start, stop=stop):
            events.heartbeat(kind="worker", shard=shard_index,
                             start=start, stop=stop, phase="generate")
            claim.touch()
            with obs.tracer.span("worker.generate"):
                context = population_context(
                    int(spec_dict["seed"]),
                    int(spec_dict["households"]),
                    int(spec_dict["target_devices"]),
                    int(spec_dict["vendor_count"]),
                    int(spec_dict["product_count"]),
                )
                households = generate_households(context, start, stop)
                dataset = InspectorDataset(households=households)
            with obs.tracer.span("worker.analyze"):
                analysis = analyze_dataset(
                    dataset, validate_oui=bool(spec_dict["validate_oui"]))
            events.heartbeat(kind="worker", shard=shard_index,
                             start=start, stop=stop, phase="analyze")
            claim.touch()
            if fault_kind == "slow":
                factor = float((inject_fault or {}).get("factor", 4.0))
                _drag((factor - 1.0) * (time.perf_counter() - started), claim)

            vendor_counts: Dict[str, int] = {}
            product_counts: Dict[str, int] = {}
            device_counts: List[int] = []
            for household in households:
                device_counts.append(household.device_count)
                for device in household.devices:
                    vendor_counts[device.truth_vendor] = vendor_counts.get(device.truth_vendor, 0) + 1
                    product_counts[device.truth_product] = product_counts.get(device.truth_product, 0) + 1

            metrics = obs.metrics
            metrics.counter(
                "fleet_worker_households_total",
                "households generated and analyzed by fleet workers",
            ).inc(len(households))
            metrics.counter(
                "fleet_worker_devices_total",
                "devices generated and analyzed by fleet workers",
            ).inc(dataset.device_count)
    finally:
        if profiler.enabled:
            profiler.stop()
            tracer.resource_probe.close()
        events.close()

    return {
        "start": start,
        "stop": stop,
        "device_count": dataset.device_count,
        "household_device_counts": device_counts,
        "vendor_counts": vendor_counts,
        "product_counts": product_counts,
        "analysis": analysis.to_dict(),
        "seconds": time.perf_counter() - started,
        "obs": ObsSnapshot.capture(obs).to_dict(),
    }
