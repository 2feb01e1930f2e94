"""The simulated home LAN: an AP/switch delivering frames among nodes.

Delivery semantics mirror a Wi-Fi network in infrastructure mode as
seen from the AP (where the paper runs tcpdump, §3.1): the capture
observes *every* frame; broadcast reaches all nodes, IPv4/IPv6
multicast reaches group members (non-members' NICs filter it), unicast
reaches the owner of the destination MAC.  That is what the NICs take
and what the telemetry counts.  Of a broadcast or multicast frame, the
LAN then calls only the stacks that act on it
(:func:`~repro.simnet.node.stacks_acting_on`), such as the node an ARP
request asks for or the nodes with a handler on a datagram's port.
Under an active fault injector every NIC's stack is called.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, List, Optional

from repro.net.decode import DecodedPacket, decode_frame, quick_protocol
from repro.net.mac import MacAddress
from repro.net.tcp import TcpFlags, TcpSegment
from repro.obs import get_obs
from repro.simnet.capture import ApCapture
from repro.simnet.node import Node, stacks_acting_on
from repro.simnet.simulator import Simulator


class Lan:
    """A single /24 home network with an AP-side capture."""

    def __init__(
        self,
        simulator: Simulator,
        subnet: str = "192.168.10.0/24",
        ap_mac: str = "02:00:00:00:00:01",
        capture: Optional[ApCapture] = None,
    ):
        self.simulator = simulator
        self.subnet = ipaddress.ip_network(subnet)
        self.ap_mac = MacAddress(ap_mac)
        self.capture = capture if capture is not None else ApCapture()
        self.gateway_ip = str(next(self.subnet.hosts()))
        self.broadcast_address = str(self.subnet.broadcast_address)
        self._nodes_by_mac: Dict[MacAddress, Node] = {}
        self._nodes_by_ip: Dict[str, Node] = {}
        self._next_host = 10
        #: Set via :meth:`install_injector`; when present and active,
        #: every transmit is routed through the fault layer.
        self.injector = None
        obs = get_obs()
        self._obs = obs
        if obs.enabled:
            metrics = obs.metrics.scoped("lan")
            self._frames_delivered_total = metrics.counter(
                "frames_delivered_total",
                "frames that reached at least one receiver, per protocol")
            self._frames_dropped_total = metrics.counter(
                "frames_dropped_total",
                "frames with no receiver (unknown MAC / empty group), per protocol")
            self._capture_packets_total = obs.metrics.counter(
                "capture_packets_total",
                "frames retained by the AP capture, per protocol")

    # -- membership -------------------------------------------------------------

    def attach(self, node: Node, ip: Optional[str] = None) -> Node:
        """Attach a node; allocates the next free host IP when none given."""
        if ip is not None:
            node.ip = str(ipaddress.IPv4Address(ip))
        elif node.ip in (None, "", "0.0.0.0") or node.ip in self._nodes_by_ip:
            node.ip = self.allocate_ip()
        if node.mac in self._nodes_by_mac:
            raise ValueError(f"duplicate MAC on LAN: {node.mac}")
        if node.ip in self._nodes_by_ip:
            raise ValueError(f"duplicate IP on LAN: {node.ip}")
        node.lan = self
        self._nodes_by_mac[node.mac] = node
        self._nodes_by_ip[node.ip] = node
        return node

    def detach(self, node: Node) -> None:
        self._nodes_by_mac.pop(node.mac, None)
        self._nodes_by_ip.pop(node.ip, None)
        node.lan = None

    def allocate_ip(self) -> str:
        """The next free host address of the subnet: ``.10`` upwards, then
        round from its first host.  Never the network or broadcast
        address; ``ValueError`` once every host is taken."""
        base = int(self.subnet.network_address)
        last_host = self.subnet.num_addresses - 2
        for _ in range(last_host):
            if self._next_host > last_host:
                self._next_host = 1
            candidate = str(ipaddress.IPv4Address(base + self._next_host))
            self._next_host += 1
            if candidate not in self._nodes_by_ip and candidate != self.gateway_ip:
                return candidate
        raise ValueError(f"no free host address left in {self.subnet}")

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes_by_mac.values())

    def node_by_name(self, name: str) -> Optional[Node]:
        for node in self._nodes_by_mac.values():
            if node.name == name:
                return node
        return None

    def mac_of(self, ip: str) -> Optional[MacAddress]:
        node = self._nodes_by_ip.get(ip)
        return node.mac if node else None

    def mac_of_v6(self, ip6: str) -> Optional[MacAddress]:
        for node in self._nodes_by_mac.values():
            if node.ipv6_link_local == ip6:
                return node.mac
        return None

    def node_by_ip(self, ip: str) -> Optional[Node]:
        return self._nodes_by_ip.get(ip)

    def node_by_mac(self, mac) -> Optional[Node]:
        try:
            return self._nodes_by_mac.get(MacAddress(mac))
        except ValueError:
            return None

    # -- fault injection -----------------------------------------------------------

    def install_injector(self, injector) -> None:
        """Route every transmit through a :class:`~repro.faults.FaultInjector`.

        An injector whose plan is empty stays installed but inert: the
        delivery path is byte-identical to an un-injected LAN (the
        zero-fault equivalence invariant pinned by
        ``tests/integration/test_chaos.py``).  Pass ``None`` to remove.
        """
        self.injector = injector

    # -- delivery ----------------------------------------------------------------

    def transmit(self, sender: Node, frame, layers: Optional[dict] = None) -> None:
        """Put a frame on the air; the fault layer may drop or damage it.

        ``frame`` is raw bytes with ``layers`` ``None``, or the
        :class:`EthernetFrame` ``layers["frame"]``, where ``layers`` are
        the :class:`DecodedPacket` fields the sender built it from (see
        :meth:`Node.send_frame`).  A typed frame's bytes are built before
        any receiver runs, and only for the three readers of bytes: an
        active fault injector, which gets the frame's bytes here, and a
        capture that keeps bytes or has a frame tap
        (:meth:`ApCapture.observe`).
        """
        injector = self.injector
        if injector is not None and injector.active:
            if layers is not None:
                frame = frame.encode()
            injector.transmit(sender, frame, layers)
        else:
            self._deliver(sender, frame, layers)

    def _deliver(self, sender: Node, frame, layers: Optional[dict] = None) -> None:
        """Deliver a frame: capture it at the AP, then fan out to receivers.

        ``frame`` is bytes, or, with ``layers``, the unencoded
        :class:`EthernetFrame`.  The capture counts every frame.
        Receivers get a fresh packet of the sender's ``layers`` stamped
        with this delivery's time, or, for a frame without them (raw
        bytes, or bytes the fault layer changed), the decode of the
        bytes.  The NICs that take the frame decide its telemetry; of a
        broadcast or multicast frame only the stacks that act on it are
        called (:func:`stacks_acting_on`), unless a fault injector is
        active, which decides for each NIC's stack.  Stacks are called
        in attach order, and each answers inside this loop, so that is
        the order of their replies in the capture.
        """
        timestamp = self.simulator.now
        self.capture.observe(timestamp, frame)
        if layers is None:
            # Total: damaged bytes reach receivers as a stub packet
            # rather than raising here.
            packet = decode_frame(frame, timestamp)
        else:
            packet = DecodedPacket(timestamp, **layers)
        receivers = self._receivers_of(sender, packet)
        stacks = receivers
        injector = self.injector
        if injector is not None and injector.active:
            receivers = stacks = [
                receiver for receiver in receivers
                if injector.allow_delivery(receiver, packet, timestamp)
            ]
        elif packet.frame.dst.is_multicast:
            stacks = stacks_acting_on(receivers, packet)
        for receiver in stacks:
            receiver.receive(packet)
        if self._obs.enabled:
            protocol = quick_protocol(packet)
            if self.capture.keep_bytes:
                self._capture_packets_total.inc(protocol=protocol)
            if receivers:
                self._frames_delivered_total.inc(protocol=protocol)
            else:
                self._frames_dropped_total.inc(protocol=protocol)

    def unseen_between(self, a: Node, b: Node) -> bool:
        """True when nothing but the stacks of ``a`` and ``b`` can see or
        change a unicast frame between them.

        That takes no active fault injector, a capture that keeps no bytes
        and has no frame tap, two distinct nodes without a raw hook, and
        each owning its MAC and IP here, so that a frame to it reaches it
        alone.  The capture only counts such a frame: a sender that knows
        the answer it would get may count the exchange with
        :meth:`count_unseen` instead of transmitting it.
        """
        injector = self.injector
        capture = self.capture
        if ((injector is not None and injector.active) or capture.keep_bytes
                or capture.frame_taps or a._raw_hooks or b._raw_hooks):
            return False
        return a is not b and self._owns(a) and self._owns(b)

    def _owns(self, node: Node) -> bool:
        return (node.mac.is_unicast and self._nodes_by_mac.get(node.mac) is node
                and self._nodes_by_ip.get(node.ip) is node)

    def count_unseen(self, frames: int, length: int, protocols: Dict[str, int]) -> None:
        """Count unicast frames that two stacks exchanged off the wire
        (see :meth:`unseen_between`) as their delivery would have.

        ``frames`` frames of ``length`` bytes in all go to the capture's
        counts; with telemetry on, ``protocols`` holds how many of them
        carry each :func:`quick_protocol` tag, for the delivered family.
        """
        if not frames:
            return
        self.capture.count(frames, length)
        if self._obs.enabled:
            for protocol, count in protocols.items():
                self._frames_delivered_total.inc(count, protocol=protocol)

    def _receivers_of(self, sender: Node, packet: DecodedPacket) -> List[Node]:
        dst = packet.frame.dst
        if dst.is_broadcast:
            return [node for node in self._nodes_by_mac.values() if node is not sender]
        if dst.is_multicast:
            group = packet.dst_ip
            # Link-local multicast (224.0.0.x / ff02::1 "all nodes",
            # ICMPv6 ND) is processed by every stack; other groups
            # only by subscribed members.
            everyone = group is None or self._is_link_local_group(group)
            return [node for node in self._nodes_by_mac.values()
                    if node is not sender and (everyone or group in node.multicast_groups)]
        owner = self._nodes_by_mac.get(dst)
        if owner is not None and owner is not sender:
            return [owner]
        return []

    @staticmethod
    def _is_link_local_group(group: str) -> bool:
        if group.startswith("224.0.0."):
            return True
        return group.lower() in ("ff02::1", "ff02::fb", "ff02::2")

    # -- composite behaviours ------------------------------------------------------

    def tcp_exchange(
        self,
        client: Node,
        server: Node,
        dst_port: int,
        client_payloads: List[bytes],
        server_payloads: List[bytes],
        src_port: Optional[int] = None,
        packet_gap: float = 0.002,
    ) -> Optional[int]:
        """Emit a full TCP conversation (handshake, data, FIN) on the wire.

        Returns the client source port, or None when the server port is
        closed (the exchange then ends with the server's RST).
        """
        sport = src_port if src_port is not None else client.ephemeral_port()
        syn = TcpSegment(sport, dst_port, seq=100, flags=TcpFlags.SYN)
        client.send_tcp_segment(server.ip, syn)
        if not server.services.is_open("tcp", dst_port):
            return None
        injector = self.injector
        if injector is not None and injector.active:
            now = self.simulator.now
            # A crashed or filtered server never completes the
            # handshake; the client gives up after its SYN (the capture
            # shows the half-open attempt, like a real timeout).
            if injector.is_down(server, now) or injector.port_unresponsive(
                    server, "tcp", dst_port, now):
                return None

        sim = self.simulator
        delay = packet_gap
        ack = TcpSegment(sport, dst_port, seq=101, ack=1001, flags=TcpFlags.ACK)
        sim.schedule(delay, lambda: client.send_tcp_segment(server.ip, ack))
        delay += packet_gap
        seq_client = 101
        seq_server = 1001
        turns = max(len(client_payloads), len(server_payloads))
        for index in range(turns):
            if index < len(client_payloads):
                payload = client_payloads[index]
                segment = TcpSegment(
                    sport, dst_port, seq=seq_client, ack=seq_server,
                    flags=TcpFlags.ACK | TcpFlags.PSH, payload=payload,
                )
                sim.schedule(delay, lambda seg=segment: client.send_tcp_segment(server.ip, seg))
                seq_client += len(payload)
                delay += packet_gap
            if index < len(server_payloads):
                payload = server_payloads[index]
                segment = TcpSegment(
                    dst_port, sport, seq=seq_server, ack=seq_client,
                    flags=TcpFlags.ACK | TcpFlags.PSH, payload=payload,
                )
                sim.schedule(delay, lambda seg=segment: server.send_tcp_segment(client.ip, seg))
                seq_server += len(payload)
                delay += packet_gap
        fin = TcpSegment(sport, dst_port, seq=seq_client, ack=seq_server, flags=TcpFlags.FIN | TcpFlags.ACK)
        sim.schedule(delay, lambda: client.send_tcp_segment(server.ip, fin))
        fin_reply = TcpSegment(dst_port, sport, seq=seq_server, ack=seq_client + 1, flags=TcpFlags.FIN | TcpFlags.ACK)
        sim.schedule(delay + packet_gap, lambda: server.send_tcp_segment(client.ip, fin_reply))
        return sport
