"""The declarative chaos schedule: :class:`FaultPlan` and its parts.

A plan is plain data — JSON-loadable, strictly validated, hashable into
the injector's PRNG seed — describing *what* should misbehave.  The
:class:`~repro.faults.injector.FaultInjector` decides *when*, using a
PRNG derived from the study seed, so a (seed, plan) pair fully
determines the fault schedule.

Schema (all sections optional; unknown keys are rejected)::

    {
      "name": "lossy-lan",
      "seed_salt": 0,
      "links": [
        {"src": "*", "dst": "*", "loss": 0.02, "duplicate": 0.01,
         "reorder": 0.01, "truncate": 0.005, "corrupt": 0.005,
         "delay": {"probability": 0.05, "min_seconds": 0.001,
                   "max_seconds": 0.02}}
      ],
      "discovery": {"probability": 0.05,
                     "protocols": ["mdns", "ssdp", "tuyalp"]},
      "flaps": [
        {"device": "Amazon Echo Dot", "start": 120.0, "duration": 30.0,
         "period": 600.0}
      ],
      "unresponsive_ports": [
        {"device": "*", "transport": "tcp", "port": 80,
         "start": 0.0, "duration": null}
      ],
      "shards": {"fail": [1, 3], "fail_rate": 0.0,
                 "hang": [2], "hang_rate": 0.0, "hang_seconds": 300.0,
                 "slow": [], "slow_rate": 0.0, "slow_factor": 4.0}
    }

The ``shards`` section is read by :mod:`repro.fleet` (worker-process
crash/hang/slowdown injection), not by the LAN injector; a shards-only
plan leaves a ``repro study`` run byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: UDP ports the discovery-mutation fault targets, by protocol name.
DISCOVERY_PORTS: Dict[str, Tuple[int, ...]] = {
    "mdns": (5353,),
    "ssdp": (1900,),
    "tuyalp": (6666, 6667),
}


class FaultPlanError(ValueError):
    """Raised when a plan document fails validation."""


def _require_probability(section: str, key: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FaultPlanError(f"{section}.{key}: expected a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{section}.{key}: probability out of [0, 1]: {value}")
    return float(value)


def _require_nonnegative(section: str, key: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FaultPlanError(f"{section}.{key}: expected a number, got {value!r}")
    if value < 0:
        raise FaultPlanError(f"{section}.{key}: must be >= 0, got {value}")
    return float(value)


def _reject_unknown(section: str, given: dict, allowed: Sequence[str]) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise FaultPlanError(
            f"{section}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class DelaySpec:
    """Probabilistic per-frame delivery delay (uniform in [min, max])."""

    probability: float = 0.0
    min_seconds: float = 0.0005
    max_seconds: float = 0.005

    @classmethod
    def from_dict(cls, raw: dict, section: str = "delay") -> "DelaySpec":
        _reject_unknown(section, raw, ("probability", "min_seconds", "max_seconds"))
        spec = cls(
            probability=_require_probability(section, "probability", raw.get("probability", 0.0)),
            min_seconds=_require_nonnegative(section, "min_seconds", raw.get("min_seconds", 0.0005)),
            max_seconds=_require_nonnegative(section, "max_seconds", raw.get("max_seconds", 0.005)),
        )
        if spec.min_seconds > spec.max_seconds:
            raise FaultPlanError(f"{section}: min_seconds > max_seconds")
        return spec


@dataclass(frozen=True)
class LinkFaults:
    """Fault probabilities for frames matching a (src, dst) pattern.

    ``src``/``dst`` match a node name, a MAC address string, or ``"*"``
    (any).  ``dst`` matches the destination MAC's owner; broadcast and
    multicast frames only match ``dst == "*"``.
    """

    src: str = "*"
    dst: str = "*"
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_gap: float = 0.004
    truncate: float = 0.0
    corrupt: float = 0.0
    corrupt_bits: int = 8
    delay: Optional[DelaySpec] = None

    _KEYS = ("src", "dst", "loss", "duplicate", "reorder", "reorder_gap",
             "truncate", "corrupt", "corrupt_bits", "delay")

    @property
    def is_noop(self) -> bool:
        return (
            self.loss == 0.0 and self.duplicate == 0.0 and self.reorder == 0.0
            and self.truncate == 0.0 and self.corrupt == 0.0
            and (self.delay is None or self.delay.probability == 0.0)
        )

    @classmethod
    def from_dict(cls, raw: dict, section: str = "links[]") -> "LinkFaults":
        _reject_unknown(section, raw, cls._KEYS)
        delay = raw.get("delay")
        if delay is not None:
            delay = DelaySpec.from_dict(delay, f"{section}.delay")
        corrupt_bits = raw.get("corrupt_bits", 8)
        if not isinstance(corrupt_bits, int) or corrupt_bits < 1:
            raise FaultPlanError(f"{section}.corrupt_bits: expected int >= 1")
        return cls(
            src=str(raw.get("src", "*")),
            dst=str(raw.get("dst", "*")),
            loss=_require_probability(section, "loss", raw.get("loss", 0.0)),
            duplicate=_require_probability(section, "duplicate", raw.get("duplicate", 0.0)),
            reorder=_require_probability(section, "reorder", raw.get("reorder", 0.0)),
            reorder_gap=_require_nonnegative(section, "reorder_gap", raw.get("reorder_gap", 0.004)),
            truncate=_require_probability(section, "truncate", raw.get("truncate", 0.0)),
            corrupt=_require_probability(section, "corrupt", raw.get("corrupt", 0.0)),
            corrupt_bits=corrupt_bits,
            delay=delay,
        )


@dataclass(frozen=True)
class DiscoveryMutation:
    """Mutate discovery responses/queries on the protocols' known ports."""

    probability: float = 0.0
    protocols: Tuple[str, ...] = ("mdns", "ssdp", "tuyalp")

    @classmethod
    def from_dict(cls, raw: dict, section: str = "discovery") -> "DiscoveryMutation":
        _reject_unknown(section, raw, ("probability", "protocols"))
        protocols = tuple(raw.get("protocols", ("mdns", "ssdp", "tuyalp")))
        for protocol in protocols:
            if protocol not in DISCOVERY_PORTS:
                raise FaultPlanError(
                    f"{section}.protocols: unknown protocol {protocol!r}; "
                    f"known: {sorted(DISCOVERY_PORTS)}")
        return cls(
            probability=_require_probability(section, "probability", raw.get("probability", 0.0)),
            protocols=protocols,
        )

    def ports(self) -> Tuple[int, ...]:
        out: List[int] = []
        for protocol in self.protocols:
            out.extend(DISCOVERY_PORTS[protocol])
        return tuple(out)


@dataclass(frozen=True)
class FlapWindow:
    """A crash/restart window: the device is down in [start, start+duration).

    With ``period`` set, the window repeats every ``period`` sim-seconds
    (a chronically unstable device).
    """

    device: str
    start: float
    duration: float
    period: Optional[float] = None

    @classmethod
    def from_dict(cls, raw: dict, section: str = "flaps[]") -> "FlapWindow":
        _reject_unknown(section, raw, ("device", "start", "duration", "period"))
        if "device" not in raw:
            raise FaultPlanError(f"{section}: 'device' is required")
        period = raw.get("period")
        if period is not None:
            period = _require_nonnegative(section, "period", period)
            if period <= 0:
                raise FaultPlanError(f"{section}.period: must be > 0 when set")
        window = cls(
            device=str(raw["device"]),
            start=_require_nonnegative(section, "start", raw.get("start", 0.0)),
            duration=_require_nonnegative(section, "duration", raw.get("duration", 0.0)),
            period=period,
        )
        if window.period is not None and window.duration >= window.period:
            raise FaultPlanError(f"{section}: duration must be < period")
        return window

    def covers(self, now: float) -> bool:
        if self.duration <= 0:
            return False
        offset = now - self.start
        if offset < 0:
            return False
        if self.period is not None:
            offset %= self.period
        return offset < self.duration


@dataclass(frozen=True)
class UnresponsivePort:
    """A service that silently eats probes (filtered port semantics)."""

    device: str
    transport: str
    port: int
    start: float = 0.0
    duration: Optional[float] = None  # None: unresponsive forever

    @classmethod
    def from_dict(cls, raw: dict, section: str = "unresponsive_ports[]") -> "UnresponsivePort":
        _reject_unknown(section, raw, ("device", "transport", "port", "start", "duration"))
        transport = raw.get("transport", "tcp")
        if transport not in ("tcp", "udp"):
            raise FaultPlanError(f"{section}.transport: expected 'tcp' or 'udp'")
        port = raw.get("port")
        if not isinstance(port, int) or not 0 < port <= 65535:
            raise FaultPlanError(f"{section}.port: expected int in 1..65535")
        duration = raw.get("duration")
        if duration is not None:
            duration = _require_nonnegative(section, "duration", duration)
        return cls(
            device=str(raw.get("device", "*")),
            transport=transport,
            port=port,
            start=_require_nonnegative(section, "start", raw.get("start", 0.0)),
            duration=duration,
        )

    def covers(self, now: float) -> bool:
        if now < self.start:
            return False
        return self.duration is None or now < self.start + self.duration


def _require_shard_indices(section: str, key: str, raw: dict) -> Tuple[int, ...]:
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise FaultPlanError(f"{section}.{key}: expected a list of shard indices")
    for index in value:
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise FaultPlanError(
                f"{section}.{key}: expected ints >= 0, got {index!r}")
    return tuple(value)


@dataclass(frozen=True)
class ShardFaults:
    """Deterministic fleet-shard worker faults (read by ``repro.fleet``).

    Three kinds, in order of precedence when a shard is named by more
    than one:

    * ``fail`` / ``fail_rate`` — the worker raises (a crash);
    * ``hang`` / ``hang_rate`` — the worker goes silent for
      ``hang_seconds`` wall seconds (no heartbeats), exercising the
      watchdog deadline;
    * ``slow`` / ``slow_rate`` — the worker takes ``slow_factor``×
      its normal wall time but keeps heartbeating (must *not* trip the
      watchdog).

    Explicit indices always apply; each ``*_rate`` dooms each shard
    with that probability, drawn from a PRNG derived from the study
    seed + ``seed_salt`` so the same (seed, plan) pair schedules the
    same faults every run.
    """

    fail: Tuple[int, ...] = ()
    fail_rate: float = 0.0
    hang: Tuple[int, ...] = ()
    hang_rate: float = 0.0
    #: How long a hung worker stays silent before resuming (a watchdog
    #: deadline shorter than this declares it dead first).
    hang_seconds: float = 300.0
    slow: Tuple[int, ...] = ()
    slow_rate: float = 0.0
    #: Wall-time multiplier for slowed shards (1.0 = no slowdown).
    slow_factor: float = 4.0

    _KEYS = ("fail", "fail_rate", "hang", "hang_rate", "hang_seconds",
             "slow", "slow_rate", "slow_factor")

    @property
    def is_noop(self) -> bool:
        return (not self.fail and self.fail_rate == 0.0
                and not self.hang and self.hang_rate == 0.0
                and not self.slow and self.slow_rate == 0.0)

    @property
    def has_hangs(self) -> bool:
        return bool(self.hang) or self.hang_rate > 0.0

    @classmethod
    def from_dict(cls, raw: dict, section: str = "shards") -> "ShardFaults":
        _reject_unknown(section, raw, cls._KEYS)
        hang_seconds = _require_nonnegative(section, "hang_seconds",
                                            raw.get("hang_seconds", 300.0))
        if hang_seconds <= 0:
            raise FaultPlanError(f"{section}.hang_seconds: must be > 0")
        slow_factor = _require_nonnegative(section, "slow_factor",
                                           raw.get("slow_factor", 4.0))
        if slow_factor < 1.0:
            raise FaultPlanError(f"{section}.slow_factor: must be >= 1")
        return cls(
            fail=_require_shard_indices(section, "fail", raw),
            fail_rate=_require_probability(section, "fail_rate",
                                           raw.get("fail_rate", 0.0)),
            hang=_require_shard_indices(section, "hang", raw),
            hang_rate=_require_probability(section, "hang_rate",
                                           raw.get("hang_rate", 0.0)),
            hang_seconds=hang_seconds,
            slow=_require_shard_indices(section, "slow", raw),
            slow_rate=_require_probability(section, "slow_rate",
                                           raw.get("slow_rate", 0.0)),
            slow_factor=slow_factor,
        )


@dataclass(frozen=True)
class FaultPlan:
    """The full validated chaos schedule."""

    name: str = "unnamed"
    seed_salt: int = 0
    links: Tuple[LinkFaults, ...] = ()
    discovery: Optional[DiscoveryMutation] = None
    flaps: Tuple[FlapWindow, ...] = ()
    unresponsive_ports: Tuple[UnresponsivePort, ...] = ()
    #: Fleet-shard crash injection; not consulted by the LAN injector.
    shards: Optional[ShardFaults] = None

    @property
    def is_empty(self) -> bool:
        """True when *installing* this plan (on a Lan) can never change
        behaviour.  Shard faults live outside the Lan, so a shards-only
        plan is still "empty" here — ``repro study`` stays
        byte-identical — and :attr:`has_shard_faults` reports the fleet
        side separately."""
        return (
            all(link.is_noop for link in self.links)
            and (self.discovery is None or self.discovery.probability == 0.0)
            and not any(flap.duration > 0 for flap in self.flaps)
            and not self.unresponsive_ports
        )

    @property
    def has_shard_faults(self) -> bool:
        """True when the fleet runner would inject worker faults."""
        return self.shards is not None and not self.shards.is_noop

    @property
    def has_hang_faults(self) -> bool:
        """True when the fleet runner must force a pool (hangs need a
        reapable worker process — an inline hang would stall the
        parent)."""
        return self.shards is not None and self.shards.has_hangs

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        if not isinstance(raw, dict):
            raise FaultPlanError(f"plan: expected a JSON object, got {type(raw).__name__}")
        _reject_unknown("plan", raw, ("name", "seed_salt", "links", "discovery",
                                      "flaps", "unresponsive_ports", "shards"))
        seed_salt = raw.get("seed_salt", 0)
        if not isinstance(seed_salt, int) or isinstance(seed_salt, bool):
            raise FaultPlanError("plan.seed_salt: expected an integer")
        for key in ("links", "flaps", "unresponsive_ports"):
            if key in raw and not isinstance(raw[key], list):
                raise FaultPlanError(f"plan.{key}: expected a list")
        return cls(
            name=str(raw.get("name", "unnamed")),
            seed_salt=seed_salt,
            links=tuple(LinkFaults.from_dict(entry, f"links[{i}]")
                        for i, entry in enumerate(raw.get("links", ()))),
            discovery=(DiscoveryMutation.from_dict(raw["discovery"])
                       if raw.get("discovery") is not None else None),
            flaps=tuple(FlapWindow.from_dict(entry, f"flaps[{i}]")
                        for i, entry in enumerate(raw.get("flaps", ()))),
            unresponsive_ports=tuple(
                UnresponsivePort.from_dict(entry, f"unresponsive_ports[{i}]")
                for i, entry in enumerate(raw.get("unresponsive_ports", ()))),
            shards=(ShardFaults.from_dict(raw["shards"])
                    if raw.get("shards") is not None else None),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"plan: invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


#: The canonical do-nothing plan (zero-fault equivalence baseline).
EMPTY_PLAN = FaultPlan(name="empty")
