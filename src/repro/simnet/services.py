"""Per-node open-service tables.

Active scans (§4.2) found 178 unique open TCP ports and 115 unique UDP
ports across 61 devices.  Each node carries a :class:`ServiceTable`
describing what listens where; the port scanner and the vulnerability
scanner interrogate it exactly as nmap/Nessus interrogate real stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class ServiceInfo:
    """One open service on a device.

    ``protocol`` is the ground-truth service name ("http", "telnet",
    "dns", ...); scanners must *infer* it (and sometimes get it wrong,
    §3.5).  ``banner`` is what a probe elicits; ``software``/``version``
    feed the vulnerability scanner.
    """

    port: int
    transport: str  # "tcp" or "udp"
    protocol: str
    banner: str = ""
    software: str = ""
    version: str = ""
    notes: str = ""

    @property
    def key(self) -> Tuple[str, int]:
        return (self.transport, self.port)


class ServiceTable:
    """The set of services a node exposes, indexed by (transport, port)."""

    def __init__(self, services: Iterable[ServiceInfo] = ()):
        self._services: Dict[Tuple[str, int], ServiceInfo] = {}
        for service in services:
            self.add(service)

    def add(self, service: ServiceInfo) -> None:
        self._services[service.key] = service

    def get(self, transport: str, port: int) -> Optional[ServiceInfo]:
        return self._services.get((transport, port))

    def is_open(self, transport: str, port: int) -> bool:
        return (transport, port) in self._services

    def open_ports(self, transport: str) -> List[int]:
        return sorted(port for (kind, port) in self._services if kind == transport)

    def __iter__(self):
        return iter(self._services.values())

    def __len__(self) -> int:
        return len(self._services)

    @property
    def services(self) -> List[ServiceInfo]:
        return sorted(self._services.values(), key=lambda service: (service.transport, service.port))
