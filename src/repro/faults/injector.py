"""The :class:`FaultInjector`: applies a :class:`FaultPlan` to a live LAN.

The injector sits inside ``Lan.transmit``: every frame a node puts on
the air passes through :meth:`transmit`, which rolls the plan's
per-link probabilities on a PRNG derived from ``(study seed, plan
seed_salt)`` and drops, damages, delays, duplicates, or mutates the
frame accordingly.  Receiver-side effects (crashed devices,
unresponsive ports) are applied per delivery via
:meth:`allow_delivery`.  Because the simulator is deterministic and all
randomness flows from the one seeded PRNG in frame order, the same
(seed, plan) pair reproduces the identical fault schedule run after
run.

Every injected fault increments ``faults_injected_total`` (labelled by
kind) in the active observability context and the injector's local
``counts`` — a chaos run's telemetry quantifies exactly what was lost.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, TYPE_CHECKING

from repro.faults.mutators import (
    corrupt_bits,
    mutate_udp_payload,
    truncate_bytes,
    udp_ports_of,
)
from repro.faults.plan import EMPTY_PLAN, FaultPlan, LinkFaults
from repro.net.decode import DecodedPacket
from repro.obs import get_obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simnet.lan import Lan
    from repro.simnet.node import Node

#: Help text for ``faults_injected_total`` — one string, shared by the
#: LAN injector, the snapshot merge, and the fleet runner, so the
#: registry never sees the same metric described two ways.
FAULTS_INJECTED_HELP = "faults injected into the LAN, per kind"


def faults_injected_counter(obs):
    """The shared ``faults_injected_total{kind}`` counter in ``obs``.

    The fleet runner counts its worker faults here too
    (``kind="shard_fail" | "shard_hang" | "shard_slow"``), so one chaos
    run's injections — LAN-side and fleet-side — land in one series.
    Caller must check ``obs.enabled`` first.
    """
    return obs.metrics.scoped("faults").counter(
        "injected_total", FAULTS_INJECTED_HELP)


class FaultInjector:
    """Applies one validated :class:`FaultPlan` deterministically."""

    def __init__(self, plan: Optional[FaultPlan] = None, seed: int = 0):
        self.plan = plan if plan is not None else EMPTY_PLAN
        self.seed = seed
        # str seeds hash through SHA-512 (CPython seeding version 2), so
        # this is stable across processes and platforms.
        self.rng = random.Random(f"repro-faults:{seed}:{self.plan.seed_salt}")
        self.lan: Optional["Lan"] = None
        self.counts: Dict[str, int] = {}
        self._discovery_ports = (
            frozenset(self.plan.discovery.ports()) if self.plan.discovery else frozenset()
        )
        obs = get_obs()
        self._obs = obs
        if obs.enabled:
            self._faults_total = faults_injected_counter(obs)

    @property
    def active(self) -> bool:
        """False for an empty plan: the injector is a pure passthrough."""
        return not self.plan.is_empty

    # -- wiring -------------------------------------------------------------------

    def install(self, lan: "Lan") -> "FaultInjector":
        """Hook into the LAN (and its simulator, for flap telemetry)."""
        self.lan = lan
        lan.install_injector(self)
        if self.active:
            for flap in self.plan.flaps:
                if flap.duration > 0:
                    self._schedule_flap_telemetry(lan, flap, flap.start)
            if self._obs.enabled:
                self._obs.logger("faults").info(
                    "injector_installed", plan=self.plan.name, seed=self.seed)
        return self

    def _schedule_flap_telemetry(self, lan: "Lan", flap, start: float) -> None:
        """Emit down/up log events at each window boundary (sim-hooked)."""
        simulator = lan.simulator

        def down():
            self._count("flap_window")
            if self._obs.enabled:
                self._obs.logger("faults").info(
                    "device_down", device=flap.device, until=start + flap.duration)
            simulator.schedule(flap.duration, up)

        def up():
            if self._obs.enabled:
                self._obs.logger("faults").info("device_up", device=flap.device)
            if flap.period is not None:
                self._schedule_flap_telemetry(lan, flap, start + flap.period)

        simulator.schedule(max(0.0, start - simulator.now), down)

    # -- bookkeeping ---------------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._obs.enabled:
            self._faults_total.inc(kind=kind)
        if self._obs.events.enabled:
            sim_now = self.lan.simulator.now if self.lan is not None else None
            self._obs.events.emit("fault_injected", kind=kind,
                                  total=self.counts[kind], sim_now=sim_now)

    def summary(self) -> Dict[str, object]:
        """What this run injected — attached to ``StudyReport.fault_summary``."""
        return {
            "plan": self.plan.name,
            "seed": self.seed,
            "counts": dict(self.counts),
            "total": sum(self.counts.values()),
        }

    # -- plan queries ---------------------------------------------------------------

    @staticmethod
    def _matches(pattern: str, node: Optional["Node"]) -> bool:
        if pattern == "*":
            return True
        if node is None:
            return False
        return node.name == pattern or str(node.mac).lower() == pattern.lower()

    def _link_for(self, sender: "Node", dst_owner: Optional["Node"]) -> Optional[LinkFaults]:
        """First matching link spec (declaration order wins)."""
        for link in self.plan.links:
            if self._matches(link.src, sender) and self._matches(link.dst, dst_owner):
                return link
        return None

    def is_down(self, node: "Node", now: float) -> bool:
        for flap in self.plan.flaps:
            if flap.covers(now) and self._matches(flap.device, node):
                return True
        return False

    def port_unresponsive(self, node: "Node", transport: str, port: int, now: float) -> bool:
        for spec in self.plan.unresponsive_ports:
            if (spec.transport == transport and spec.port == port
                    and spec.covers(now) and self._matches(spec.device, node)):
                return True
        return False

    # -- the transmit hook ------------------------------------------------------------

    def transmit(self, sender: "Node", frame_bytes: bytes, layers: Optional[dict] = None) -> None:
        """Roll the plan for one frame; deliver whatever survives.

        A dropped frame never reaches the capture or any receiver, and
        nothing decodes it.  The sender's ``layers`` go along only while
        the bytes are the ones it encoded; a truncated, corrupted or
        mutated frame is decoded on delivery.
        """
        lan = self.lan
        now = lan.simulator.now
        if self.is_down(sender, now):
            # A crashed device emits nothing: the frame never airs.
            self._count("flap_drop_tx")
            return

        data = frame_bytes
        rng = self.rng
        dst_owner = lan.node_by_mac(data[0:6])
        link = self._link_for(sender, dst_owner)
        delay = 0.0
        duplicate = False
        if link is not None and not link.is_noop:
            if link.loss and rng.random() < link.loss:
                self._count("loss")
                return
            if link.truncate and rng.random() < link.truncate:
                data = truncate_bytes(rng, data)
                self._count("truncate")
            if link.corrupt and rng.random() < link.corrupt:
                data = corrupt_bits(rng, data, link.corrupt_bits)
                self._count("corrupt")
            if link.delay is not None and link.delay.probability and \
                    rng.random() < link.delay.probability:
                delay = rng.uniform(link.delay.min_seconds, link.delay.max_seconds)
                self._count("delay")
            elif link.reorder and rng.random() < link.reorder:
                # Delay-based reordering: the held frame lands after
                # whatever the lab transmits inside the gap.
                delay = link.reorder_gap
                self._count("reorder")
            if link.duplicate and rng.random() < link.duplicate:
                duplicate = True
                self._count("duplicate")

        discovery = self.plan.discovery
        if discovery is not None and discovery.probability and self._discovery_ports:
            ports = udp_ports_of(data)
            if ports is not None and (
                    ports[0] in self._discovery_ports or ports[1] in self._discovery_ports):
                if rng.random() < discovery.probability:
                    data = mutate_udp_payload(rng, data)
                    self._count("mutate_discovery")

        if data is not frame_bytes:
            layers = None
        if delay > 0.0:
            lan.simulator.schedule(delay, lambda: lan._deliver(sender, data, layers))
            if duplicate:
                lan.simulator.schedule(delay, lambda: lan._deliver(sender, data, layers))
            return
        lan._deliver(sender, data, layers)
        if duplicate:
            lan._deliver(sender, data, layers)

    # -- the delivery hook ------------------------------------------------------------

    def allow_delivery(self, receiver: "Node", packet: DecodedPacket, now: float) -> bool:
        """Receiver-side faults: crashed devices and unresponsive ports."""
        if self.is_down(receiver, now):
            self._count("flap_drop_rx")
            return False
        if packet.tcp is not None and self.port_unresponsive(
                receiver, "tcp", packet.tcp.dst_port, now):
            self._count("port_unresponsive")
            return False
        if packet.udp is not None and self.port_unresponsive(
                receiver, "udp", packet.udp.dst_port, now):
            self._count("port_unresponsive")
            return False
        return True
