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
    """One manually-defined correction rule.

    ``applies(transport, sport, dport, label)`` sees a packet's
    transport (``"udp"``/``"tcp"``, or ``None`` off the transport
    layer), its ports and the base classifier's label.
    """

    name: str
    applies: Callable[[Optional[str], Optional[int], Optional[int], Optional[Label]], bool]
    label: Label


def default_rules() -> List[ManualRule]:
    """The corrections the paper's manual evaluation produced."""
    return [
        ManualRule(
            name="google-10000-range-is-rtp",
            applies=lambda transport, sport, dport, label: label is Label.STUN
            and transport == "udp"
            and (10000 <= sport <= 10010 or 10000 <= dport <= 10010),
            label=Label.RTP,
        ),
        ManualRule(
            name="echo-multiroom-55444-is-rtp",
            applies=lambda transport, sport, dport, label: transport == "udp"
            and 55444 in (sport, dport),
            label=Label.RTP,
        ),
        ManualRule(
            name="ciscovpn-artifact-is-ssdp",
            applies=lambda transport, sport, dport, label: label is Label.CISCOVPN,
            label=Label.SSDP,
        ),
        ManualRule(
            name="amazonaws-artifact-is-eapol",
            applies=lambda transport, sport, dport, label: label is Label.AMAZON_AWS,
            label=Label.EAPOL,
        ),
        ManualRule(
            name="lifx-56700-broadcast-unknown",
            applies=lambda transport, sport, dport, label: transport == "udp"
            and dport == 56700,
            label=Label.UNKNOWN,
        ),
        ManualRule(
            name="unlabeled-transport-is-unknown",
            applies=lambda transport, sport, dport, label: label is None
            and transport is not None,
            label=Label.UNKNOWN,
        ),
    ]


class ManualRules:
    """An ordered rule set applied on top of a base classifier's output."""

    def __init__(self, rules: Optional[List[ManualRule]] = None):
        self.rules = rules if rules is not None else default_rules()

    def apply(self, transport: Optional[str], sport: Optional[int],
              dport: Optional[int], label: Optional[Label]) -> Optional[Label]:
        for rule in self.rules:
            if rule.applies(transport, sport, dport, label):
                return rule.label
        return label


class CorrectedClassifier:
    """nDPI + manual rules: the paper's final classification method."""

    name = "nDPI+manual"

    def __init__(self, base=None, rules: Optional[ManualRules] = None):
        self.base = base if base is not None else NdpiLikeClassifier()
        self.rules = rules if rules is not None else ManualRules()

    def classify_packet(self, packet: DecodedPacket) -> Optional[Label]:
        return self.rules.apply(packet.transport, packet.src_port,
                                packet.dst_port, self.base.classify_packet(packet))

    def classify_transport(self, transport: str, sport: int, dport: int,
                           payload: bytes) -> Optional[Label]:
        """The corrected label of a UDP/TCP packet from its four fields.

        Equal to :meth:`classify_packet` of the same packet: both run
        the base classifier's payload rules and then the manual rules.
        """
        return self.rules.apply(transport, sport, dport, self.base.classify_transport(
            transport, sport, dport, payload))

    def classify_flow(self, flow: Flow) -> Optional[Label]:
        for packet in flow.packets[:8]:
            label = self.classify_packet(packet)
            if label is not None:
                return label
        # A transport flow with no classifiable packet is still UNKNOWN
        # under the manual overlay.
        return Label.UNKNOWN if flow.packets else None
