"""Manual classification rules and the corrected (final) classifier.

§3.5: "we selected nDPI to classify the captured IoT traffic and
augmented it with manually-defined rules informed by our manual
evaluation, thus allowing us to handle errors and coverage limitations."
The manual rules below encode the corrections the paper describes:
STUN-on-10000-10010 is really RTP (Appendix C.2), Echo's 55444 is RTP
(multi-room audio), 56700 broadcasts are an unknown Lifx-style
protocol, CISCOVPN/AMAZONAWS are classifier artifacts, and encrypted
cluster chatter stays UNKNOWN rather than unlabeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.classify.labels import Label
from repro.classify.ndpi_like import NdpiLikeClassifier
from repro.net.decode import DecodedPacket
from repro.net.flows import Flow


@dataclass
class ManualRule:
    """One manually-defined correction rule."""

    name: str
    applies: Callable[[DecodedPacket, Optional[Label]], bool]
    label: Label


def default_rules() -> List[ManualRule]:
    """The corrections the paper's manual evaluation produced."""
    return [
        ManualRule(
            name="google-10000-range-is-rtp",
            applies=lambda packet, label: label is Label.STUN
            and packet.udp is not None
            and any(10000 <= (port or 0) <= 10010 for port in (packet.src_port, packet.dst_port)),
            label=Label.RTP,
        ),
        ManualRule(
            name="echo-multiroom-55444-is-rtp",
            applies=lambda packet, label: packet.udp is not None
            and 55444 in (packet.src_port, packet.dst_port),
            label=Label.RTP,
        ),
        ManualRule(
            name="ciscovpn-artifact-is-ssdp",
            applies=lambda packet, label: label is Label.CISCOVPN,
            label=Label.SSDP,
        ),
        ManualRule(
            name="amazonaws-artifact-is-eapol",
            applies=lambda packet, label: label is Label.AMAZON_AWS,
            label=Label.EAPOL,
        ),
        ManualRule(
            name="lifx-56700-broadcast-unknown",
            applies=lambda packet, label: packet.udp is not None
            and packet.dst_port == 56700,
            label=Label.UNKNOWN,
        ),
        ManualRule(
            name="unlabeled-transport-is-unknown",
            applies=lambda packet, label: label is None
            and (packet.udp is not None or packet.tcp is not None),
            label=Label.UNKNOWN,
        ),
    ]


class ManualRules:
    """An ordered rule set applied on top of a base classifier's output."""

    def __init__(self, rules: Optional[List[ManualRule]] = None):
        self.rules = rules if rules is not None else default_rules()

    def apply(self, packet: DecodedPacket, label: Optional[Label]) -> Optional[Label]:
        for rule in self.rules:
            if rule.applies(packet, label):
                return rule.label
        return label


class CorrectedClassifier:
    """nDPI + manual rules: the paper's final classification method."""

    name = "nDPI+manual"

    def __init__(self, base=None, rules: Optional[ManualRules] = None):
        self.base = base if base is not None else NdpiLikeClassifier()
        self.rules = rules if rules is not None else ManualRules()

    def classify_packet(self, packet: DecodedPacket) -> Optional[Label]:
        return self.rules.apply(packet, self.base.classify_packet(packet))

    def classify_flow(self, flow: Flow) -> Optional[Label]:
        for packet in flow.packets[:8]:
            label = self.classify_packet(packet)
            if label is not None:
                return label
        # A transport flow with no classifiable packet is still UNKNOWN
        # under the manual overlay.
        return Label.UNKNOWN if flow.packets else None
