"""Deploy the full honeypot complement into a testbed LAN."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.honeypot.base import Honeypot, HoneypotLog
from repro.honeypot.http import HttpHoneypot
from repro.honeypot.mdns import MdnsHoneypot
from repro.honeypot.ssdp import SsdpHoneypot
from repro.honeypot.telnet import TelnetHoneypot
from repro.obs import get_obs
from repro.simnet.lan import Lan


@dataclass
class HoneypotFarm:
    """The §3.1 deployment: SSDP + mDNS + HTTP + telnet, shared log."""

    log: HoneypotLog = field(default_factory=HoneypotLog)
    honeypots: List[Honeypot] = field(default_factory=list)

    @classmethod
    def deploy(cls, lan: Lan) -> "HoneypotFarm":
        farm = cls()
        farm.honeypots = [
            SsdpHoneypot(log=farm.log).attach_to(lan),
            MdnsHoneypot(log=farm.log).attach_to(lan),
            HttpHoneypot(log=farm.log).attach_to(lan),
            TelnetHoneypot(log=farm.log).attach_to(lan),
        ]
        obs = get_obs()
        if obs.enabled:
            obs.logger("honeypot").info(
                "farm_deployed", honeypots=len(farm.honeypots))
        return farm

    def scanners_observed(self) -> Dict[str, List[str]]:
        """Which sources contacted which honeypot protocols."""
        observed: Dict[str, List[str]] = {}
        for mac, events in self.log.contacts_by_source().items():
            observed[mac] = sorted({event.protocol for event in events})
        return observed

    def contact_count(self) -> int:
        return len(self.log)
