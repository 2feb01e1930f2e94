"""Scripted device interactions — the §3.1 labeled-traffic dataset.

"...traffic generated from 7,191 interactions when we manually or
automatically interact with the different IoT devices in our testbed.
The interactions are triggered by (i) IoT companion apps running on a
Google Pixel 3 and an iPhone 7 ... or (ii) voice commands to activate
different voice assistants, which subsequently interact with the
corresponding device."

Each :class:`Interaction` runs on the simulated LAN, emits the real
control traffic for its kind, and records a labeled trace entry
(start/end timestamps + endpoints), producing the same artifact the
paper's controlled experiments produce: a capture plus a label file.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.devices.behaviors import DeviceNode, Testbed
from repro.protocols.http import HttpRequest, HttpResponse
from repro.protocols.rtp import RtpPacket
from repro.protocols.rtsp import RtspRequest, RtspResponse
from repro.protocols.upnp_soap import play, set_av_transport_uri
from repro.protocols.tls import TlsRecord, TlsVersion
from repro.protocols.tplink_shp import TPLINK_SHP_PORT, TplinkShpMessage
from repro.simnet.node import Node


class InteractionKind(str, enum.Enum):
    """The §3.1 trigger classes."""

    COMPANION_APP = "companion-app"  # phone -> device
    VOICE_ASSISTANT = "voice"  # assistant -> device


class Action(str, enum.Enum):
    POWER_TOGGLE = "power-toggle"
    SET_BRIGHTNESS = "set-brightness"
    START_STREAM = "start-stream"
    CAST_MEDIA = "cast-media"
    STATUS_QUERY = "status-query"


@dataclass
class InteractionRecord:
    """One labeled interaction (the per-experiment ground truth row)."""

    index: int
    kind: InteractionKind
    action: Action
    controller: str  # phone or assistant name
    target: str  # device name
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class ControllerPhone(Node):
    """The companion-app phone used to trigger interactions."""

    def __init__(self, name: str = "pixel-3", mac: str = "02:00:5e:00:20:01"):
        super().__init__(name=name, mac=mac, ip="0.0.0.0", vendor="Google")


@dataclass
class InteractionRunner:
    """Drives scripted interactions on a testbed and logs the labels."""

    testbed: Testbed
    rng: random.Random = field(default_factory=lambda: random.Random(0xACE))
    records: List[InteractionRecord] = field(default_factory=list)
    phone: Optional[ControllerPhone] = None

    def __post_init__(self):
        if self.phone is None:
            self.phone = ControllerPhone()
            self.testbed.lan.attach(self.phone)

    # -- target selection --------------------------------------------------------

    def _controllable_devices(self) -> List[DeviceNode]:
        return [
            node for node in self.testbed.devices
            if node.profile.tplink_role == "server"
            or node.profile.tls is not None
            or any(service.protocol == "http" for service in node.profile.open_services)
        ]

    def _assistants(self) -> List[DeviceNode]:
        return [
            node for node in self.testbed.devices
            if node.profile.category == "Voice Assistant" and node.vendor in ("Amazon", "Google")
        ]

    def _action_for(self, target: DeviceNode) -> Action:
        model = target.profile.model.lower()
        if "plug" in model or "bulb" in model:
            return Action.POWER_TOGGLE if self.rng.random() < 0.7 else Action.SET_BRIGHTNESS
        if target.profile.category == "Surveillance":
            return Action.START_STREAM
        if target.profile.category == "Media/TV":
            return Action.CAST_MEDIA
        return Action.STATUS_QUERY

    # -- execution -----------------------------------------------------------------

    def run(self, count: int, gap: float = 2.0) -> List[InteractionRecord]:
        """Execute ``count`` interactions, ``gap`` seconds apart."""
        targets = self._controllable_devices()
        assistants = self._assistants()
        if not targets:
            raise RuntimeError("testbed has no controllable devices")
        for index in range(count):
            target = self.rng.choice(targets)
            use_voice = bool(assistants) and self.rng.random() < 0.4
            controller: Node = self.rng.choice(assistants) if use_voice else self.phone
            kind = InteractionKind.VOICE_ASSISTANT if use_voice else InteractionKind.COMPANION_APP
            action = self._action_for(target)
            start = self.testbed.simulator.now
            self._execute(controller, target, action)
            self.testbed.run(gap)
            self.records.append(
                InteractionRecord(
                    index=index,
                    kind=kind,
                    action=action,
                    controller=controller.name,
                    target=target.name,
                    start=start,
                    end=self.testbed.simulator.now,
                )
            )
        return self.records

    def _execute(self, controller: Node, target: DeviceNode, action: Action) -> None:
        if action is Action.START_STREAM:
            rtsp_service = next(
                (service for service in target.profile.open_services
                 if service.transport == "tcp" and service.protocol == "rtsp"),
                None,
            )
            if rtsp_service is not None:
                self._stream_rtsp(controller, target, rtsp_service.port)
                return
        if target.profile.tplink_role == "server":
            command = TplinkShpMessage.set_relay_state(action is Action.POWER_TOGGLE)
            reply = TplinkShpMessage({"system": {"set_relay_state": {"err_code": 0}}})
            self.testbed.lan.tcp_exchange(
                controller, target, TPLINK_SHP_PORT,
                [command.encode("tcp")], [reply.encode("tcp")],
            )
            return
        http_service = next(
            (service for service in target.profile.open_services
             if service.transport == "tcp" and service.protocol == "http"),
            None,
        )
        if http_service is not None and action is Action.CAST_MEDIA:
            # Casting runs as UPnP SOAP: the CurrentURI reveals what the
            # household watches to any on-path observer (§5.2).
            media = f"http://media.example/{self.rng.randrange(10_000)}.mp4"
            actions = [set_av_transport_uri(media), play()]
            self.testbed.lan.tcp_exchange(
                controller, target, http_service.port,
                [soap.to_http_request().encode() for soap in actions],
                [soap.to_http_response().encode() for soap in actions],
            )
            return
        if http_service is not None and action in (Action.STATUS_QUERY, Action.SET_BRIGHTNESS):
            request = HttpRequest("POST" if action is not Action.STATUS_QUERY else "GET",
                                  f"/control/{action.value}",
                                  {"Host": f"{target.ip}:{http_service.port}"})
            response = HttpResponse(200, "OK", {"Server": http_service.software or "httpd"},
                                    b'{"ok":true}')
            self.testbed.lan.tcp_exchange(
                controller, target, http_service.port,
                [request.encode()], [response.encode()],
            )
            return
        # Fall back to a TLS control exchange (camera streams, hubs).
        tls = target.profile.tls
        version = TlsVersion.TLS_1_3 if (tls and tls.version == "1.3") else TlsVersion.TLS_1_2
        port = tls.port if tls else 443
        self.testbed.lan.tcp_exchange(
            controller, target, port,
            [TlsRecord.client_hello(version).encode(),
             TlsRecord.application_data(196, version).encode()],
            [TlsRecord.server_hello(version).encode(),
             TlsRecord.application_data(512, version).encode()],
        )

    def _stream_rtsp(self, controller: Node, target: DeviceNode, port: int) -> None:
        """DESCRIBE/SETUP/PLAY over RTSP, then a short RTP burst."""
        url = f"rtsp://{target.ip}:{port}/live"
        requests = [
            RtspRequest("DESCRIBE", url, cseq=1, headers={"Accept": "application/sdp"}),
            RtspRequest("SETUP", url + "/track1", cseq=2,
                        headers={"Transport": "RTP/AVP;unicast;client_port=55000-55001"}),
            RtspRequest("PLAY", url, cseq=3, headers={"Session": "12345678"}),
        ]
        responses = [
            RtspResponse.describe_reply(1, target.profile.model, target.ip),
            RtspResponse(cseq=2, headers={"Session": "12345678",
                                          "Transport": "RTP/AVP;unicast;server_port=56000-56001"}),
            RtspResponse(cseq=3, headers={"Session": "12345678", "Range": "npt=0.000-"}),
        ]
        self.testbed.lan.tcp_exchange(
            controller, target, port,
            [request.encode() for request in requests],
            [response.encode() for response in responses],
        )
        sim = self.testbed.simulator
        for index in range(6):
            def send_frame(index=index, target=target, controller=controller):
                packet = RtpPacket(
                    payload_type=96,
                    sequence=index,
                    timestamp=index * 3000,
                    ssrc=0x51BEA7,
                    payload=self.rng.randbytes(160),
                )
                target.send_udp(controller.ip, 55000, packet.encode(), src_port=56000)

            sim.schedule(0.2 + index * 0.04, send_frame)

    # -- labeled-trace artifacts ------------------------------------------------------

    def label_rows(self) -> List[Tuple[int, str, str, str, str, float, float]]:
        """The label file the paper's controlled experiments produce."""
        return [
            (record.index, record.kind.value, record.action.value,
             record.controller, record.target, record.start, record.end)
            for record in self.records
        ]

    def traffic_during(self, record: InteractionRecord) -> List:
        """Capture slice for one interaction (label-aligned extraction).

        Filters on the table's timestamp column and materializes only
        the rows inside the window.
        """
        table = self.testbed.lan.capture.table()
        timestamps = table.timestamps
        return [table.packet(rid) for rid in range(len(table))
                if record.start <= timestamps[rid] <= record.end]

    def interaction_reached_target(self, record: InteractionRecord) -> bool:
        """Did labeled traffic actually involve the target device?"""
        target = self.testbed.device(record.target)
        controller = self.testbed.lan.node_by_name(record.controller)
        if target is None or controller is None:
            return False
        for packet in self.traffic_during(record):
            if (str(packet.frame.src) == str(controller.mac)
                    and str(packet.frame.dst) == str(target.mac)):
                return True
        return False
