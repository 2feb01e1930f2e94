"""Honeypot base machinery: contact logging and marker tokens."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.decode import DecodedPacket
from repro.obs import get_obs
from repro.simnet.node import Node


@dataclass
class HoneypotEvent:
    """One inbound contact observed by a honeypot."""

    timestamp: float
    honeypot: str
    protocol: str
    src_ip: str
    src_mac: str
    src_port: Optional[int]
    summary: str
    marker: Optional[str] = None  # token planted in our response, if any
    #: True when the payload failed to parse (garbage/corrupted input);
    #: the honeypot still logs the contact instead of crashing.
    malformed: bool = False


class HoneypotLog:
    """Shared event log across a honeypot deployment."""

    def __init__(self):
        self.events: List[HoneypotEvent] = []
        self._obs = get_obs()

    def record(self, event: HoneypotEvent) -> None:
        self.events.append(event)
        if self._obs.enabled:
            self._obs.metrics.counter(
                "honeypot_contacts_total",
                "inbound contacts per honeypot protocol",
            ).inc(protocol=event.protocol, honeypot=event.honeypot)
            if event.malformed:
                self._obs.metrics.counter(
                    "honeypot_malformed_total",
                    "garbage payloads tolerated per honeypot protocol",
                ).inc(protocol=event.protocol, honeypot=event.honeypot)

    def contacts_by_source(self) -> Dict[str, List[HoneypotEvent]]:
        by_source: Dict[str, List[HoneypotEvent]] = {}
        for event in self.events:
            by_source.setdefault(event.src_mac, []).append(event)
        return by_source

    def markers(self) -> List[str]:
        return [event.marker for event in self.events if event.marker]

    def __len__(self) -> int:
        return len(self.events)


class Honeypot(Node):
    """A honeypot node: a Node that logs contacts and plants markers.

    Markers are unique tokens embedded in honeypot responses; if a
    marker later shows up in other traffic (e.g. uploaded to a cloud
    endpoint by a companion app), information propagated through the
    device that queried us — the tracking §3.1 describes.
    """

    protocol = "generic"

    def __init__(self, name: str, mac, log: Optional[HoneypotLog] = None):
        super().__init__(name=name, mac=mac, ip="0.0.0.0", vendor="honeypot")
        self.log = log if log is not None else HoneypotLog()
        self._marker_counter = itertools.count(1)
        self.responds_to_broadcast_arp = True

    def next_marker(self) -> str:
        return f"hp-{self.name}-{next(self._marker_counter):06d}"

    def record_contact(
        self,
        packet: DecodedPacket,
        summary: str,
        marker: Optional[str] = None,
        malformed: bool = False,
    ) -> HoneypotEvent:
        event = HoneypotEvent(
            timestamp=packet.timestamp,
            honeypot=self.name,
            protocol=self.protocol,
            src_ip=packet.src_ip or "",
            src_mac=str(packet.frame.src),
            src_port=packet.src_port,
            summary=summary,
            marker=marker,
            malformed=malformed,
        )
        self.log.record(event)
        return event
