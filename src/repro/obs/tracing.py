"""Span-based tracing over the simulated *and* the wall clock.

Every span records two time axes:

* **sim time** — ``Simulator.now`` at entry/exit, so a trace shows where
  the virtual campaign spent its simulated hours, and
* **wall time** — ``time.perf_counter()`` at entry/exit, so the same
  trace shows where the host CPU actually went.

Spans nest via a context-manager API::

    with tracer.span("passive_capture", device="echo-1"):
        ...

and export either as a JSON tree (deterministic when wall fields are
excluded) or as a Chrome ``trace_event`` file loadable in
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    """One timed operation; forms a tree through ``parent``/``children``."""

    __slots__ = (
        "name", "attrs", "parent", "children",
        "sim_start", "sim_end", "wall_start", "wall_end", "status",
    )

    def __init__(self, name: str, attrs: Dict[str, object], parent: Optional["Span"],
                 sim_start: Optional[float], wall_start: float):
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.children: List["Span"] = []
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.status = "ok"

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> Optional[float]:
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def to_dict(self, include_wall: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "attrs": dict(self.attrs),
            "status": self.status,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_duration": self.sim_duration,
            "children": [child.to_dict(include_wall) for child in self.children],
        }
        if include_wall:
            out["wall_start"] = self.wall_start
            out["wall_end"] = self.wall_end
            out["wall_duration"] = self.wall_duration
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  parent: Optional["Span"] = None) -> "Span":
        """Rebuild a span (sub)tree from :meth:`to_dict` output."""
        span = cls(
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),
            parent=parent,
            sim_start=data.get("sim_start"),
            wall_start=float(data.get("wall_start") or 0.0),
        )
        span.sim_end = data.get("sim_end")
        span.wall_end = data.get("wall_end")
        span.status = str(data.get("status", "ok"))
        span.children = [
            cls.from_dict(child, parent=span)
            for child in data.get("children", [])
        ]
        return span


class Tracer:
    """Records a forest of spans; one instance per observed run.

    Spans open and close on the main thread, so one open-span list
    serves the run; the profiler's ``SIGPROF`` handler, which runs there
    too, reads its innermost span.  A span nests under one that is not
    the innermost open span — the fleet's per-shard spans under
    ``fleet.run`` — by passing that span explicitly as ``_parent``.
    """

    enabled = True

    def __init__(self, sim_clock: Optional[Callable[[], float]] = None,
                 wall_clock: Callable[[], float] = time.perf_counter):
        self._sim_clock = sim_clock
        self._wall_clock = wall_clock
        self._wall_epoch = wall_clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: Optional per-span resource accounting hook (see
        #: :class:`repro.obs.profile.SpanResourceProbe`); ``None`` — the
        #: default — leaves span entry/exit byte-identical to an
        #: unprofiled build.
        self.resource_probe = None

    def set_sim_clock(self, sim_clock: Optional[Callable[[], float]]) -> None:
        """Late-bind the simulated clock (the Simulator is often built
        after the tracer, e.g. inside ``StudyPipeline.build``)."""
        self._sim_clock = sim_clock

    def _sim_now(self) -> Optional[float]:
        return self._sim_clock() if self._sim_clock is not None else None

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, _parent: Optional[Span] = None,
             **attrs: object) -> Iterator[Span]:
        """Open a span nested under the current span.

        ``_parent`` overrides the implicit nesting, attaching the span
        under a given span instead of the innermost open one.
        """
        parent = _parent if _parent is not None else self.current
        record = Span(name, dict(attrs), parent, self._sim_now(), self._wall_clock())
        if parent is None:
            self.roots.append(record)
        else:
            parent.children.append(record)
        self._stack.append(record)
        probe = self.resource_probe
        token = probe.enter() if probe is not None else None
        try:
            yield record
        except BaseException:
            record.status = "error"
            raise
        finally:
            record.sim_end = self._sim_now()
            # A span opened before the sim clock was installed (e.g. the
            # pipeline's build stage, which creates the Simulator that
            # *becomes* the clock) is attributed zero sim time up to the
            # clock's appearance rather than staying clockless.
            if record.sim_start is None and record.sim_end is not None:
                record.sim_start = record.sim_end
            record.wall_end = self._wall_clock()
            if token is not None:
                try:
                    probe.exit(token, record)
                except Exception:  # noqa: BLE001 - accounting never kills work
                    pass
            self._stack.pop()

    # -- queries ------------------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """All finished-or-open spans, depth-first in start order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> List[Span]:
        return [span for span in self.iter_spans() if span.name == name]

    # -- export / absorb ----------------------------------------------------------

    def to_tree(self, include_wall: bool = True) -> List[Dict[str, object]]:
        return [root.to_dict(include_wall) for root in self.roots]

    def export_spans(self, include_wall: bool = True) -> List[Dict[str, object]]:
        """The span forest as plain dicts — the ``ObsSnapshot`` payload
        a fleet worker ships back across the process boundary."""
        return self.to_tree(include_wall)

    def absorb(self, spans: List[Dict[str, object]],
               parent: Optional[Span] = None,
               extra_attrs: Optional[Dict[str, object]] = None) -> List[Span]:
        """Graft exported span trees into this tracer.

        Rebuilt roots attach under ``parent`` when given (the fleet
        nests worker spans under its ``fleet.run`` span), else become
        new roots.  ``extra_attrs`` are stamped onto each absorbed root
        (e.g. ``shard`` index, ``from_cache``).  Wall timestamps keep
        the exporting process's ``perf_counter`` epoch; compare
        durations, not absolute wall positions, across processes.
        """
        absorbed: List[Span] = []
        for data in spans:
            span = Span.from_dict(data, parent=parent)
            if extra_attrs:
                span.attrs.update(extra_attrs)
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            absorbed.append(span)
        return absorbed

    def to_json(self, include_wall: bool = True, indent: int = 2) -> str:
        return json.dumps(self.to_tree(include_wall), indent=indent, sort_keys=True)

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome ``trace_event`` "complete" (ph=X) events, wall-clock
        timeline, with sim-time bounds attached as event args."""
        events: List[Dict[str, object]] = []
        for span in self.iter_spans():
            wall_end = span.wall_end if span.wall_end is not None else self._wall_clock()
            args = dict(span.attrs)
            args["sim_start"] = span.sim_start
            args["sim_end"] = span.sim_end
            args["status"] = span.status
            events.append({
                "name": span.name,
                "ph": "X",
                "cat": "repro",
                "pid": 1,
                "tid": 1,
                "ts": (span.wall_start - self._wall_epoch) * 1e6,
                "dur": (wall_end - span.wall_start) * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)

    def write_json(self, path, include_wall: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(include_wall))


class NullSpan:
    """The do-nothing span the null tracer hands out."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, object] = {}
    children: List[Span] = []
    status = "ok"
    sim_duration = None
    wall_duration = None

    def set_attr(self, key: str, value: object) -> None:
        return None


_NULL_SPAN = NullSpan()


class NullTracer:
    """API-compatible tracer that records nothing (observability off)."""

    enabled = False
    roots: List[Span] = []
    resource_probe = None

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[NullSpan]:
        yield _NULL_SPAN

    def set_sim_clock(self, sim_clock) -> None:
        return None

    @property
    def current(self) -> None:
        return None

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []

    def to_tree(self, include_wall: bool = True) -> List[Dict[str, object]]:
        return []

    def export_spans(self, include_wall: bool = True) -> List[Dict[str, object]]:
        return []

    def absorb(self, spans, parent=None, extra_attrs=None) -> List[Span]:
        return []

    def to_chrome_trace(self) -> Dict[str, object]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
