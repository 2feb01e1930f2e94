"""Continuous profiling: span-attributed sampling + per-span resources.

Two instruments, one question — *which frames burned the time and which
stage allocated the memory*:

* :class:`SamplingProfiler` — one ``ITIMER_PROF`` timer per process
  (:func:`arm_timer`) raises ``SIGPROF`` every ``1/hz`` CPU seconds
  (default :data:`DEFAULT_PROFILE_HZ`); the handler runs on the main
  thread, where every span opens, and bills the interrupted frame to
  the innermost open span of the profiler recording at that moment, so
  the profile is grouped by pipeline stage / analysis / shard out of
  the box (docs/observability.md lists what the timer cannot do).
  Samples accumulate into a :class:`Profile`, which exports as
  collapsed-stack flamegraph text (``flamegraph.pl`` / ``inferno``
  input) and as speedscope JSON (https://www.speedscope.app).

* :class:`SpanResourceProbe` — deterministic per-span resource
  accounting hooked into :meth:`Tracer.span`: thread CPU time
  (``time.thread_time``), GC collection counts, and — when tracemalloc
  accounting is enabled via ``REPRO_PROFILE_MALLOC=1`` — allocation
  delta and peak, all recorded as span attributes
  (``cpu_seconds``, ``gc_collections``, ``mem_alloc_bytes``,
  ``mem_peak_bytes``).

The overhead contract: with profiling **off** (the default) nothing in
this module runs — no probe on the tracer, no timer, no ``profile``
key in any snapshot — so every artifact stays byte-identical to an
unprofiled build.  With profiling **on**, the sampler costs one stack
walk per sample and the probe a few clock reads per span; tracemalloc
(the expensive part) stays opt-in.  ``benchmarks/bench_decode_throughput
--smoke --profile`` pins the slowdown bound in CI.

Fleet integration: a worker's :class:`Profile` rides home inside its
:class:`~repro.obs.snapshot.ObsSnapshot` and merges additively into the
parent's profiler in shard-index order, so a multi-process fleet run
produces one fleet-wide hot-path table — and cache hits replay their
stored profile exactly, the same way cached metrics replay.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Default sampling rate (samples/second).  Prime, so the sampler does
#: not phase-lock with second-aligned periodic work.
DEFAULT_PROFILE_HZ = 97.0

#: Bump when the serialized profile payload changes shape.
PROFILE_SCHEMA_VERSION = 1

#: Span bucket for samples taken while no span is open.
UNATTRIBUTED = "(no-span)"

#: Frames kept per sampled stack (leaf-most frames win on overflow).
MAX_STACK_DEPTH = 64


class ProfileError(ValueError):
    """A profile payload that cannot be interpreted (wrong schema)."""


_frame_labels: Dict[Tuple[str, str], str] = {}


def _frame_label(code) -> str:
    """``path/under/repro.py:function`` for one code object, cached."""
    key = (code.co_filename, code.co_name)
    label = _frame_labels.get(key)
    if label is None:
        parts = code.co_filename.replace("\\", "/").split("/")
        if "repro" in parts:
            short = "/".join(parts[parts.index("repro"):])
        else:
            short = parts[-1] if parts else code.co_filename
        label = f"{short}:{code.co_name}"
        _frame_labels[key] = label
    return label


def collect_stack(frame, max_depth: int = MAX_STACK_DEPTH) -> List[str]:
    """Root-first frame labels for ``frame`` and its callers."""
    leaf_first: List[str] = []
    while frame is not None and len(leaf_first) < max_depth:
        leaf_first.append(_frame_label(frame.f_code))
        frame = frame.f_back
    if frame is not None:
        leaf_first.append("(truncated)")
    leaf_first.reverse()
    return leaf_first


@dataclass
class Profile:
    """Accumulated samples: ``span -> collapsed stack -> count``.

    The merge is a plain per-key addition — exact, associative,
    commutative, with the empty profile as identity — so shard profiles
    folded in index order produce the same bytes at any worker count,
    and replaying a cached profile is indistinguishable from having
    computed it.
    """

    hz: float = 0.0
    samples: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(self, span: Optional[str], stack: List[str]) -> None:
        bucket = self.samples.setdefault(span or UNATTRIBUTED, {})
        key = ";".join(stack) if stack else "(idle)"
        bucket[key] = bucket.get(key, 0) + 1

    @property
    def total_samples(self) -> int:
        return sum(sum(stacks.values()) for stacks in self.samples.values())

    def span_sample_counts(self) -> Dict[str, int]:
        """``span -> sample count``, sorted by span name."""
        return {span: sum(stacks.values())
                for span, stacks in sorted(self.samples.items())}

    def merge(self, other: "Profile") -> "Profile":
        for span, stacks in other.samples.items():
            bucket = self.samples.setdefault(span, {})
            for stack, count in stacks.items():
                bucket[stack] = bucket.get(stack, 0) + count
        if not self.hz:
            self.hz = other.hz
        return self

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "hz": self.hz,
            "samples": {span: dict(sorted(stacks.items()))
                        for span, stacks in sorted(self.samples.items())},
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Profile":
        if not isinstance(raw, Mapping):
            raise ProfileError(f"profile must be a mapping, got {type(raw)!r}")
        schema = raw.get("schema")
        if schema != PROFILE_SCHEMA_VERSION:
            raise ProfileError(
                f"profile schema {schema!r} != supported {PROFILE_SCHEMA_VERSION}")
        samples = raw.get("samples", {})
        if not isinstance(samples, Mapping):
            raise ProfileError("profile 'samples' must be a mapping")
        return cls(
            hz=float(raw.get("hz", 0.0)),
            samples={str(span): {str(stack): int(count)
                                 for stack, count in dict(stacks).items()}
                     for span, stacks in samples.items()},
        )

    # -- exports ------------------------------------------------------------------

    def to_collapsed(self) -> str:
        """Collapsed-stack flamegraph text: ``span;root;...;leaf count``."""
        lines = []
        for span, stacks in sorted(self.samples.items()):
            for stack, count in sorted(stacks.items()):
                lines.append(f"{span};{stack} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro") -> Dict[str, object]:
        """The speedscope file format: one sampled profile per span."""
        frame_index: Dict[str, int] = {}

        def index_of(label: str) -> int:
            if label not in frame_index:
                frame_index[label] = len(frame_index)
            return frame_index[label]

        profiles: List[Dict[str, object]] = []
        for span, stacks in sorted(self.samples.items()):
            samples: List[List[int]] = []
            weights: List[int] = []
            for stack, count in sorted(stacks.items()):
                samples.append([index_of(label) for label in stack.split(";")])
                weights.append(count)
            profiles.append({
                "type": "sampled",
                "name": span,
                "unit": "none",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            })
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.obs.profile",
            "shared": {"frames": [{"name": label} for label in frame_index]},
            "profiles": profiles,
        }

    def top_frames(self, span: Optional[str] = None,
                   top: int = 10) -> List[Tuple[str, int, int]]:
        """Hottest frames as ``(frame, self_count, inclusive_count)``.

        *self* counts a frame when it is the sampled leaf; *inclusive*
        counts it when it appears anywhere on the stack (once per
        sample, recursion deduplicated).  ``span=None`` aggregates all
        spans.  Sorted by self count, then inclusive, then name.
        """
        self_counts: Dict[str, int] = {}
        incl_counts: Dict[str, int] = {}
        for name, stacks in self.samples.items():
            if span is not None and name != span:
                continue
            for stack, count in stacks.items():
                frames = stack.split(";")
                self_counts[frames[-1]] = self_counts.get(frames[-1], 0) + count
                for frame in set(frames):
                    incl_counts[frame] = incl_counts.get(frame, 0) + count
        ranked = sorted(
            ((frame, self_counts.get(frame, 0), incl)
             for frame, incl in incl_counts.items()),
            key=lambda row: (-row[1], -row[2], row[0]),
        )
        return ranked[:top]


#: The longest sampling period ``signal.setitimer`` accepts: it converts
#: seconds to signed 64-bit nanoseconds.
_MAX_PERIOD_S = 2 ** 63 / 1e9

#: The profiler the ``SIGPROF`` handler fills (the last one started and
#: not yet stopped); module state, as the process has one timer.
_recorder: Optional["SamplingProfiler"] = None


def _on_sigprof(signum, frame) -> None:
    """Bill the interrupted frame to the recorder's innermost open span."""
    recorder = _recorder
    if recorder is None:
        return
    span = recorder.tracer.current if recorder.tracer is not None else None
    recorder.profile.record(span.name if span is not None else None,
                            collect_stack(frame, recorder.max_depth))


def arm_timer(hz: float) -> Optional[Callable[[], None]]:
    """Arm this process's ``ITIMER_PROF`` at ``hz`` unless it is armed.

    Returns the function that disarms it and restores the previous
    ``SIGPROF`` handler, or ``None`` when the timer already runs.  No
    process may end with it armed: at shutdown Python restores
    ``SIGPROF``'s default action, which terminates the process.
    """
    previous = signal.signal(signal.SIGPROF, _on_sigprof)
    if signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0):
        return None
    period = 1.0 / hz
    signal.setitimer(signal.ITIMER_PROF, period, period)

    def disarm() -> None:
        # Disarm first: signal.signal runs a SIGPROF still pending
        # before it puts the previous handler back.
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)

    return disarm


class SamplingProfiler:
    """Samples the main thread's CPU time; one instance per profiled run.

    ``tracer`` (bindable later via :meth:`bind`) supplies the spans the
    samples are billed to; without one, every sample lands in the
    :data:`UNATTRIBUTED` bucket.  :meth:`start` makes this profiler the
    recorder, arming the timer if nothing has; :meth:`stop` ends the
    recording and disarms what :meth:`start` armed.  Merge into or
    iterate over :attr:`profile` only while it is not recording: a
    sample inside a dict iteration would change the dict's size.
    """

    enabled = True

    def __init__(self, hz: float = DEFAULT_PROFILE_HZ, tracer=None,
                 max_depth: int = MAX_STACK_DEPTH):
        if not (math.isfinite(hz) and hz > 0 and 1.0 / hz < _MAX_PERIOD_S):
            raise ValueError(f"profile hz must be finite and positive, with a "
                             f"period under {_MAX_PERIOD_S:.4g} s; got {hz}")
        self.hz = float(hz)
        self.tracer = tracer
        self.max_depth = max_depth
        self.profile = Profile(hz=self.hz)
        self._disarm: Optional[Callable[[], None]] = None

    def bind(self, tracer) -> None:
        """Late-bind the tracer whose spans attribute the samples."""
        self.tracer = tracer

    def start(self) -> None:
        global _recorder
        self._disarm = self._disarm or arm_timer(self.hz)
        _recorder = self

    def stop(self) -> None:
        global _recorder
        if _recorder is self:
            _recorder = None
        disarm, self._disarm = self._disarm, None
        if disarm is not None:
            disarm()

    def merge(self, raw: Mapping[str, object]) -> None:
        """Fold a serialized :class:`Profile` (e.g. a fleet worker's
        snapshot payload) into this profiler's accumulated profile."""
        self.profile.merge(Profile.from_dict(raw))

    def snapshot(self) -> Optional[Dict[str, object]]:
        """The profile as plain data, or ``None`` when empty — so an
        unprofiled (or zero-sample) run adds no key to its snapshot.
        Safe while recording: ``to_dict`` copies each dict in one
        ``sorted`` call, which no signal handler interrupts."""
        if not self.profile.samples:
            return None
        return self.profile.to_dict()


class NullProfiler:
    """API-compatible profiler that records nothing (profiling off)."""

    enabled = False
    hz = 0.0
    profile = Profile()

    def bind(self, tracer) -> None:
        return None

    def start(self) -> None:
        return None

    def stop(self) -> None:
        return None

    def merge(self, raw) -> None:
        return None

    def snapshot(self) -> None:
        return None


#: The do-nothing profiler installed on every default context.
NULL_PROFILER = NullProfiler()


def _env_malloc_enabled() -> bool:
    raw = os.environ.get("REPRO_PROFILE_MALLOC", "")
    return raw.strip().lower() in ("1", "true", "yes", "on")


class SpanResourceProbe:
    """Per-span resource accounting, installed as ``tracer.resource_probe``.

    On span entry/exit it records, as span attributes:

    * ``cpu_seconds`` — ``time.thread_time()`` delta (the opening
      thread's CPU time; spans open and close on one thread);
    * ``gc_collections`` — GC collections (all generations) observed
      during the span (process-global, so nested spans each see the
      collections that happened inside them);
    * ``mem_alloc_bytes`` / ``mem_peak_bytes`` — tracemalloc current
      delta and peak above the entry level.  Tracemalloc multiplies
      allocation cost, so it is **opt-in**: ``malloc=True`` or
      ``REPRO_PROFILE_MALLOC=1``.

    The probe that started tracemalloc stops it again on
    :meth:`close`.
    """

    def __init__(self, malloc: Optional[bool] = None):
        self.malloc = _env_malloc_enabled() if malloc is None else bool(malloc)
        self._started_tracemalloc = False
        if self.malloc:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    @staticmethod
    def _gc_collections() -> int:
        return sum(stat.get("collections", 0) for stat in gc.get_stats())

    def enter(self) -> Dict[str, float]:
        token: Dict[str, float] = {
            "cpu": time.thread_time(),
            "gc": self._gc_collections(),
        }
        if self.malloc:
            import tracemalloc

            token["mem"] = tracemalloc.get_traced_memory()[0]
        return token

    def exit(self, token: Dict[str, float], span) -> None:
        span.set_attr("cpu_seconds",
                      round(time.thread_time() - token["cpu"], 6))
        span.set_attr("gc_collections",
                      int(self._gc_collections() - token["gc"]))
        if self.malloc:
            import tracemalloc

            current, peak = tracemalloc.get_traced_memory()
            span.set_attr("mem_alloc_bytes", int(current - token["mem"]))
            span.set_attr("mem_peak_bytes", int(max(0, peak - token["mem"])))

    def close(self) -> None:
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False


#: Span attributes the probe writes — the byte-equivalence tests assert
#: these are absent when profiling is off.
RESOURCE_ATTRS = ("cpu_seconds", "gc_collections",
                  "mem_alloc_bytes", "mem_peak_bytes")


def span_resource_table(tracer) -> Dict[str, Dict[str, float]]:
    """Aggregate probe attributes per span name over a tracer's forest.

    Returns ``{span_name: {count, wall_seconds, cpu_seconds,
    gc_collections, mem_alloc_bytes, mem_peak_bytes}}`` — sums except
    ``mem_peak_bytes``, which is the max.  Spans without probe attrs
    still contribute count/wall so the table covers the whole run.
    """
    table: Dict[str, Dict[str, float]] = {}
    for span in tracer.iter_spans():
        row = table.setdefault(span.name, {
            "count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0,
            "gc_collections": 0, "mem_alloc_bytes": 0, "mem_peak_bytes": 0,
        })
        row["count"] += 1
        if span.wall_duration is not None:
            row["wall_seconds"] += span.wall_duration
        row["cpu_seconds"] += float(span.attrs.get("cpu_seconds", 0.0))
        row["gc_collections"] += int(span.attrs.get("gc_collections", 0))
        row["mem_alloc_bytes"] += int(span.attrs.get("mem_alloc_bytes", 0))
        row["mem_peak_bytes"] = max(row["mem_peak_bytes"],
                                    int(span.attrs.get("mem_peak_bytes", 0)))
    return dict(sorted(table.items()))


#: File names ``write_profile_outputs`` produces inside ``--profile-out``.
FLAMEGRAPH_NAME = "flame.txt"
SPEEDSCOPE_NAME = "profile.speedscope.json"
RESOURCES_NAME = "span_resources.json"


def write_profile_outputs(profile: Profile, out_dir,
                          tracer=None) -> List[Path]:
    """Write the per-run profile artifacts into ``out_dir``.

    * ``flame.txt`` — collapsed stacks (``flamegraph.pl`` input, and
      what ``tools/profile_top.py`` summarizes);
    * ``profile.speedscope.json`` — load at https://www.speedscope.app;
    * ``span_resources.json`` — the per-span resource table (only when
      a tracer is supplied).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    flame = out / FLAMEGRAPH_NAME
    flame.write_text(profile.to_collapsed(), encoding="utf-8")
    written.append(flame)

    speedscope = out / SPEEDSCOPE_NAME
    with open(speedscope, "w", encoding="utf-8") as handle:
        json.dump(profile.to_speedscope(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(speedscope)

    if tracer is not None:
        resources = out / RESOURCES_NAME
        with open(resources, "w", encoding="utf-8") as handle:
            json.dump(span_resource_table(tracer), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        written.append(resources)
    return written
