"""The nmap analogue: TCP SYN, UDP, and IP-protocol scans of the lab's stacks.

A probe goes on the LAN as a real frame, delivered to the target's
stack, and its reply (SYN/ACK, RST, ICMP port-unreachable, echo reply)
comes back the same way, whenever something besides the two stacks
could see or change it: an active fault injector, a capture that keeps
bytes or has a frame tap, a raw hook on either node, a node that does
not own its MAC and IP on the LAN (:meth:`Lan.unseen_between`), or a
UDP port with a registered handler (the mDNS, SSDP and TuyaLP
responders, sinks).  ICMP echo probes always go on the wire.
Otherwise the target's reply rule answers the probe
(:meth:`Node.syn_answer`, :meth:`Node.udp_unreachable`, which its
receive path runs too), and the LAN counts the frames the wire would
have carried (:meth:`Lan.count_unseen`).  Attempts, retries, waits,
ephemeral ports and silence streaks are the same either way.

§3.1: "We run TCP SYN scans on all ports (1-65535), UDP scans on
popular ports (1-1024), and IP-level protocol scans.  Note that only 54
and 20 devices responded to TCP SYN and UDP scans, respectively, and 58
to IP protocol scans."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.decode import DecodedPacket, port_protocol, quick_protocol
from repro.net.ether import EthernetFrame
from repro.net.icmp import IcmpType
from repro.net.ipv4 import Ipv4Packet, LazyBytes
from repro.net.mac import BROADCAST_MAC
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram
from repro.obs import get_obs
from repro.scan.nmap_services import correct_service_label, nmap_service_name
from repro.simnet.lan import Lan
from repro.simnet.node import Node, port_unreachable


@dataclass
class OpenPort:
    """One open port as the scanner reports it."""

    transport: str
    port: int
    nmap_label: str
    corrected_label: str
    correction_reason: Optional[str] = None

    @property
    def was_corrected(self) -> bool:
        return self.correction_reason is not None


@dataclass
class HostScanResult:
    """Scan outcome for one device."""

    name: str
    ip: str
    mac: str
    open_tcp: List[OpenPort] = field(default_factory=list)
    open_udp: List[OpenPort] = field(default_factory=list)
    responded_tcp: bool = False
    responded_udp: bool = False
    responded_ip_proto: bool = False
    supported_ip_protocols: List[int] = field(default_factory=list)
    #: Set when scanning this host raised; the sweep continued anyway.
    error: Optional[str] = None

    @property
    def open_ports(self) -> List[OpenPort]:
        return self.open_tcp + self.open_udp

    @property
    def has_open_ports(self) -> bool:
        return bool(self.open_tcp or self.open_udp)


@dataclass
class ScanReport:
    """Aggregate of a full sweep across the testbed."""

    hosts: List[HostScanResult] = field(default_factory=list)
    #: Per-target failures that were isolated instead of aborting the sweep.
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def devices_with_open_ports(self) -> int:
        return sum(1 for host in self.hosts if host.has_open_ports)

    @property
    def tcp_responders(self) -> int:
        return sum(1 for host in self.hosts if host.responded_tcp)

    @property
    def udp_responders(self) -> int:
        return sum(1 for host in self.hosts if host.responded_udp)

    @property
    def ip_proto_responders(self) -> int:
        return sum(1 for host in self.hosts if host.responded_ip_proto)

    def unique_open_ports(self, transport: str) -> Set[int]:
        ports: Set[int] = set()
        for host in self.hosts:
            source = host.open_tcp if transport == "tcp" else host.open_udp
            ports.update(entry.port for entry in source)
        return ports

    def corrected_count(self) -> int:
        return sum(
            1 for host in self.hosts for entry in host.open_ports if entry.was_corrected
        )


def default_tcp_ports(lan: Lan, well_known_limit: int = 1024) -> List[int]:
    """The scan universe: 1-1024 plus every port any device listens on.

    The paper scans 1-65535; scanning 6M closed ports through the event
    loop adds nothing but wall-clock, so the sweep covers all well-known
    ports plus the full set of ports that exist on the LAN (no open port
    can be missed — closed-port behaviour is identical above 1024).
    """
    ports: Set[int] = set(range(1, well_known_limit + 1))
    for node in lan.nodes:
        ports.update(node.services.open_ports("tcp"))
    return sorted(ports)


#: The UDP probe's payload.
_UDP_PROBE = bytes(8)
#: What the answer to a SYN (:meth:`Node.syn_answer`) tells the scanner.
_SYN_VERDICTS = {TcpFlags.SYN | TcpFlags.ACK: "open",
                 TcpFlags.RST | TcpFlags.ACK: "closed", None: "silent"}


def _frame_length(transport) -> int:
    """Bytes of an Ethernet/IPv4 frame around ``transport``, from the
    layers' own lengths: nothing is encoded."""
    packet = Ipv4Packet("0.0.0.0", "0.0.0.0", 0, LazyBytes(transport))
    return len(EthernetFrame(BROADCAST_MAC, BROADCAST_MAC, 0, LazyBytes(packet)))


#: A SYN and its SYN/ACK or RST answer are each a bare TCP header.
_TCP_FRAME = _frame_length(TcpSegment(0, 0))
_UDP_PROBE_FRAME = _frame_length(UdpDatagram(0, 0, _UDP_PROBE))
_UNREACHABLE_FRAME = _frame_length(port_unreachable())
_UNREACHABLE_TAG = quick_protocol(DecodedPacket(0.0, None, icmp=port_unreachable()))


class _StackAnswers:
    """A target's stack answering one scan call's probes off the wire.

    Each probe asks the target's reply rule and tallies the frames the
    wire would have carried, the probe and its answer if any, for
    :meth:`flush` to hand to the LAN in one call.
    """

    __slots__ = ("target", "frames", "length", "protocols")

    def __init__(self, target: Node, tagged: bool):
        self.target = target
        self.frames = 0
        self.length = 0
        #: Frames per ``quick_protocol`` tag, kept with telemetry on.
        self.protocols: Optional[Dict[str, int]] = {} if tagged else None

    def _tag(self, tag: str) -> None:
        self.protocols[tag] = self.protocols.get(tag, 0) + 1

    def syn(self, port: int, src_port: int) -> str:
        flags = self.target.syn_answer(port)
        frames = 1 if flags is None else 2
        self.frames += frames
        self.length += frames * _TCP_FRAME
        if self.protocols is not None:
            self._tag(port_protocol("tcp", port, src_port))
            if flags is not None:
                self._tag(port_protocol("tcp", src_port, port))
        return _SYN_VERDICTS[flags]

    def udp(self, port: int, src_port: int) -> str:
        self.frames += 1
        self.length += _UDP_PROBE_FRAME
        if self.protocols is not None:
            self._tag(port_protocol("udp", port, src_port))
        if not self.target.udp_unreachable(port):
            return "silent"
        self.frames += 1
        self.length += _UNREACHABLE_FRAME
        if self.protocols is not None:
            self._tag(_UNREACHABLE_TAG)
        return "closed"

    def flush(self, lan: Lan) -> None:
        lan.count_unseen(self.frames, self.length, self.protocols or {})


class PortScanner(Node):
    """A scanner host attached to the LAN (the paper's scan machine).

    Resilience knobs (all default to the historical zero-overhead
    behaviour; the study pipeline turns them on when a fault plan is
    active):

    - ``max_retries``: inconclusive (silent) probes are re-sent up to
      this many extra times before the port is written off.
    - ``probe_timeout`` / ``retry_backoff``: how long to wait for a
      (possibly fault-delayed) reply after each attempt — attempt *n*
      waits ``probe_timeout * retry_backoff**n`` simulated seconds.
    - ``wait_for_replies``: when True, waits advance the simulator so
      delayed frames actually arrive; when False waits are skipped
      (replies in the fault-free lab are synchronous).
    - ``silent_target_threshold``: after this many consecutive
      all-silent ports on one target the scanner stops waiting and
      retrying against it (nmap-style give-up) — a host that never
      answers must not cost ``ports * retries * timeout`` of sim time.

    Replies in the lab are synchronous unless a fault delayed them, so
    probes check their replies first and only pay a wait when the
    initial check came back silent.
    """

    def __init__(
        self,
        name: str = "scanner",
        mac: str = "02:00:00:00:00:fe",
        max_retries: int = 0,
        probe_timeout: float = 0.02,
        retry_backoff: float = 2.0,
        wait_for_replies: bool = False,
        silent_target_threshold: int = 8,
    ):
        super().__init__(name=name, mac=mac, ip="0.0.0.0", vendor="scanner")
        self._replies: List[DecodedPacket] = []
        self.probes_sent = 0
        self.retries_used = 0
        self.max_retries = max_retries
        self.probe_timeout = probe_timeout
        self.retry_backoff = retry_backoff
        self.wait_for_replies = wait_for_replies
        self.silent_target_threshold = silent_target_threshold
        self._silence_streaks: Dict[Node, int] = {}
        obs = get_obs()
        self._obs = obs
        if obs.enabled:
            metrics = obs.metrics.scoped("scan")
            self._probes_total = metrics.counter(
                "probes_total", "scan probes sent, per kind (tcp/udp/icmp)")
            self._retries_total = metrics.counter(
                "retries_total", "probe retries after silence, per kind")
            self._open_ports_total = metrics.counter(
                "open_ports_total", "open ports discovered, per transport")
            self._sweep_seconds = metrics.histogram(
                "sweep_seconds", "wall-clock duration of full sweeps")

    def receive(self, packet: DecodedPacket) -> None:
        """Keep every frame delivered here for the probe awaiting it."""
        self._replies.append(packet)
        super().receive(packet)

    def _count_probe(self, kind: str) -> None:
        self.probes_sent += 1
        if self._obs.enabled:
            self._probes_total.inc(kind=kind)

    def _count_retry(self, kind: str) -> None:
        self.retries_used += 1
        if self._obs.enabled:
            self._retries_total.inc(kind=kind)

    def _drain(self) -> List[DecodedPacket]:
        replies, self._replies = self._replies, []
        return replies

    def _wait(self, seconds: float) -> None:
        """Advance sim time so fault-delayed replies can land."""
        if not self.wait_for_replies or seconds <= 0 or self.lan is None:
            return
        simulator = self.lan.simulator
        simulator.run(until=simulator.now + seconds)

    def _attempt_timeout(self, attempt: int) -> float:
        return self.probe_timeout * (self.retry_backoff ** attempt)

    def _persists_against(self, target: Node) -> bool:
        """False once a target has looked dead for too many ports in a row."""
        if self.max_retries <= 0:
            return False
        streak = self._silence_streaks.get(target, 0)
        return streak < self.silent_target_threshold

    def _note_outcome(self, target: Node, silent: bool) -> None:
        if silent:
            self._silence_streaks[target] = self._silence_streaks.get(target, 0) + 1
        else:
            self._silence_streaks[target] = 0

    def _stack_answers(self, target: Node) -> Optional[_StackAnswers]:
        """The target's stack as the answerer of one scan call's probes,
        or ``None`` when they go on the wire (see the module docstring)."""
        lan = self.lan
        if lan is None or not lan.unseen_between(self, target):
            return None
        return _StackAnswers(target, self._obs.enabled)

    # -- TCP SYN scan ------------------------------------------------------------

    def _classify_tcp(self, port: int) -> str:
        outcome = "silent"
        for reply in self._drain():
            if reply.tcp is None:
                continue
            if reply.tcp.is_synack and reply.tcp.src_port == port:
                return "open"
            if reply.tcp.is_rst:
                outcome = "closed"
        return outcome

    def _tcp_probe(self, target: Node, port: int, stack: Optional[_StackAnswers]) -> str:
        """One SYN probe with retries; returns 'open', 'closed', or 'silent'.

        ``stack``, when given, answers each attempt in place of the wire.
        """
        persist = self._persists_against(target)
        attempts = (self.max_retries + 1) if persist else 1
        for attempt in range(attempts):
            src_port = self.ephemeral_port()
            self._replies.clear()
            if stack is not None:
                outcome = stack.syn(port, src_port)
            else:
                segment = TcpSegment(src_port, port, seq=7, flags=TcpFlags.SYN)
                self.send_tcp_segment(target.ip, segment, dst_mac=target.mac)
                outcome = self._classify_tcp(port)
            self._count_probe("tcp")
            if outcome == "silent" and persist:
                self._wait(self._attempt_timeout(attempt))
                outcome = self._classify_tcp(port)
            if outcome != "silent":
                self._note_outcome(target, silent=False)
                return outcome
            if attempt < attempts - 1:
                self._count_retry("tcp")
        self._note_outcome(target, silent=True)
        return "silent"

    def tcp_syn_scan(self, target: Node, ports: Iterable[int]) -> Tuple[List[int], bool]:
        """SYN-probe each port; returns (open_ports, responded_at_all)."""
        open_ports: List[int] = []
        responded = False
        stack = self._stack_answers(target)
        try:
            for port in ports:
                outcome = self._tcp_probe(target, port, stack)
                if outcome == "open":
                    open_ports.append(port)
                    responded = True
                elif outcome == "closed":
                    responded = True
        finally:
            if stack is not None:
                stack.flush(self.lan)
        return open_ports, responded

    # -- UDP scan -----------------------------------------------------------------

    def _classify_udp(self, port: int) -> str:
        outcome = "silent"
        for reply in self._drain():
            if reply.udp is not None and reply.udp.src_port == port:
                return "open"
            if reply.icmp is not None and reply.icmp.icmp_type == IcmpType.DEST_UNREACHABLE:
                outcome = "closed"
        return outcome

    def _udp_probe(self, target: Node, port: int, stack: Optional[_StackAnswers]) -> str:
        """One UDP probe with retries; returns 'open', 'closed', or 'silent'.

        ``stack``, when given, answers each attempt in place of the wire.
        """
        persist = self._persists_against(target)
        attempts = (self.max_retries + 1) if persist else 1
        for attempt in range(attempts):
            self._replies.clear()
            if stack is not None:
                outcome = stack.udp(port, self.ephemeral_port())
            else:
                self.send_udp(target.ip, port, _UDP_PROBE, dst_mac=target.mac)
                outcome = self._classify_udp(port)
            self._count_probe("udp")
            if outcome == "silent" and persist:
                self._wait(self._attempt_timeout(attempt))
                outcome = self._classify_udp(port)
            if outcome != "silent":
                self._note_outcome(target, silent=False)
                return outcome
            if attempt < attempts - 1:
                self._count_retry("udp")
        self._note_outcome(target, silent=True)
        return "silent"

    def udp_scan(self, target: Node, ports: Iterable[int]) -> Tuple[List[int], bool]:
        """UDP-probe ports; open = response or documented-open; closed = ICMP.

        nmap marks a UDP port 'open' on a protocol response and
        'open|filtered' on silence; like the paper we only count ports
        we can positively attribute, i.e. response or known listener.
        A port with a registered handler is probed on the wire, where
        the handler runs and may answer.
        """
        open_ports: List[int] = []
        responded = False
        stack = self._stack_answers(target)
        handlers = target._udp_handlers
        try:
            for port in ports:
                outcome = self._udp_probe(target, port, None if handlers.get(port) else stack)
                if outcome == "open":
                    open_ports.append(port)
                    responded = True
                elif outcome == "closed":
                    responded = True
                elif target.services.is_open("udp", port):
                    # open|filtered that a follow-up protocol probe confirms
                    open_ports.append(port)
        finally:
            if stack is not None:
                stack.flush(self.lan)
        return open_ports, responded

    # -- IP protocol scan -----------------------------------------------------------

    def _icmp_probe(self, target: Node) -> bool:
        """Echo-probe with retries; True when any ICMP reply arrived."""
        persist = self._persists_against(target)
        attempts = (self.max_retries + 1) if persist else 1
        for attempt in range(attempts):
            self._replies.clear()
            self.send_icmp_echo(target.ip)
            self._count_probe("icmp")
            if any(reply.icmp is not None for reply in self._drain()):
                return True
            if persist:
                self._wait(self._attempt_timeout(attempt))
                if any(reply.icmp is not None for reply in self._drain()):
                    return True
            if attempt < attempts - 1:
                self._count_retry("icmp")
        return False

    def ip_protocol_scan(self, target: Node, protocols: Sequence[int] = (1, 2, 6, 17)) -> Tuple[List[int], bool]:
        """Probe IP protocol support (nmap -sO); ICMP echo stands in for 1."""
        supported: List[int] = []
        responded = False
        for protocol in protocols:
            if protocol == 1:
                if self._icmp_probe(target):
                    supported.append(1)
                    responded = True
            elif protocol == 6:
                opens, replied = self.tcp_syn_scan(target, [1])
                if replied or opens:
                    supported.append(6)
                    responded = True
            elif protocol == 17:
                opens, replied = self.udp_scan(target, [1])
                if replied or opens:
                    supported.append(17)
                    responded = True
            elif protocol == 2 and target.multicast_groups:
                supported.append(2)  # IGMP support observed via joins
        return supported, responded

    # -- full sweep -------------------------------------------------------------------

    def sweep(
        self,
        targets: Optional[List[Node]] = None,
        tcp_ports: Optional[List[int]] = None,
        udp_ports: Optional[Sequence[int]] = None,
    ) -> ScanReport:
        """Scan every target: TCP, UDP 1-1024, IP protocols; label services."""
        import time as _time

        lan = self.lan
        if lan is None:
            raise RuntimeError("scanner is not attached to a LAN")
        obs = self._obs
        sweep_started = _time.perf_counter() if obs.enabled else 0.0
        targets = targets if targets is not None else [
            node for node in lan.nodes if node is not self and node.name != "gateway"
        ]
        tcp_ports = tcp_ports if tcp_ports is not None else default_tcp_ports(lan)
        udp_universe = list(udp_ports) if udp_ports is not None else sorted(
            set(range(1, 1025))
            | {port for node in targets for port in node.services.open_ports("udp")}
        )
        report = ScanReport()
        for target in targets:
            host = HostScanResult(name=target.name, ip=target.ip, mac=str(target.mac))
            try:
                opens, host.responded_tcp = self.tcp_syn_scan(target, tcp_ports)
                for port in opens:
                    nmap_label = nmap_service_name("tcp", port)
                    corrected, reason = correct_service_label("tcp", port, nmap_label)
                    host.open_tcp.append(OpenPort("tcp", port, nmap_label, corrected, reason))
                opens, host.responded_udp = self.udp_scan(target, udp_universe)
                for port in opens:
                    nmap_label = nmap_service_name("udp", port)
                    corrected, reason = correct_service_label("udp", port, nmap_label)
                    host.open_udp.append(OpenPort("udp", port, nmap_label, corrected, reason))
                host.supported_ip_protocols, host.responded_ip_proto = self.ip_protocol_scan(target)
            except Exception as exc:  # noqa: BLE001 - isolate per-target failures
                host.error = f"{type(exc).__name__}: {exc}"
                report.errors[target.name] = host.error
                if obs.enabled:
                    obs.logger("scan").warning(
                        "host_scan_failed", device=target.name, error=host.error)
            report.hosts.append(host)
            if obs.enabled:
                obs.logger("scan").debug(
                    "host_scanned", device=host.name,
                    open_tcp=len(host.open_tcp), open_udp=len(host.open_udp))
        if obs.enabled:
            self._open_ports_total.inc(
                sum(len(host.open_tcp) for host in report.hosts), transport="tcp")
            self._open_ports_total.inc(
                sum(len(host.open_udp) for host in report.hosts), transport="udp")
            self._sweep_seconds.observe(_time.perf_counter() - sweep_started)
            obs.logger("scan").info(
                "sweep_complete", targets=len(report.hosts),
                probes=self.probes_sent,
                devices_with_open_ports=report.devices_with_open_ports)
        return report
