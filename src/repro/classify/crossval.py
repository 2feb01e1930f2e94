"""Cross-validation of the two classifiers — regenerates Figure 3.

Appendix C.2 applies tshark and nDPI to 366K local packets/flows from
the idle lab: tshark labels 76% of flows (35 labels), nDPI 74% (18
labels), they disagree on 16%, and neither labels 7.5% (mostly layer-3
traffic).  :func:`cross_validate` computes the same quantities plus the
confusion matrix the heatmap renders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.classify.labels import Label
from repro.classify.ndpi_like import NdpiLikeClassifier
from repro.classify.tshark_like import TsharkLikeClassifier
from repro.net.columnar import F_ARP
from repro.net.index import CaptureIndex


@dataclass
class CrossValidation:
    """The outcome of comparing two classifiers on one capture."""

    total_units: int
    tshark_labeled: int
    ndpi_labeled: int
    agree: int
    disagree: int
    neither: int
    confusion: Dict[Tuple[str, str], int] = field(default_factory=dict)
    tshark_label_count: int = 0
    ndpi_label_count: int = 0

    @property
    def tshark_coverage(self) -> float:
        return self.tshark_labeled / self.total_units if self.total_units else 0.0

    @property
    def ndpi_coverage(self) -> float:
        return self.ndpi_labeled / self.total_units if self.total_units else 0.0

    @property
    def disagree_fraction(self) -> float:
        return self.disagree / self.total_units if self.total_units else 0.0

    @property
    def neither_fraction(self) -> float:
        return self.neither / self.total_units if self.total_units else 0.0

    def heatmap(self) -> Tuple[List[str], List[str], List[List[int]]]:
        """(tshark_labels, ndpi_labels, matrix) for Figure 3 rendering."""
        tshark_axis = sorted({pair[0] for pair in self.confusion})
        ndpi_axis = sorted({pair[1] for pair in self.confusion})
        matrix = [
            [self.confusion.get((t_label, n_label), 0) for t_label in tshark_axis]
            for n_label in ndpi_axis
        ]
        return tshark_axis, ndpi_axis, matrix


def _label_name(label: Optional[Label]) -> str:
    return str(label) if label is not None else "UNDETECTED"


def _normalize(label: Optional[Label]) -> Optional[Label]:
    """Collapse aliases before agreement accounting (HTTPS is TLS)."""
    if label is Label.HTTPS:
        return Label.TLS
    return label


def cross_validate(
    index: CaptureIndex,
    tshark: Optional[TsharkLikeClassifier] = None,
    ndpi: Optional[NdpiLikeClassifier] = None,
) -> CrossValidation:
    """Classify a capture with both engines and compare, per flow.

    Units of comparison are RFC 6146 flows for transport traffic plus
    individual packets for non-transport traffic (the layer-3 tail the
    paper reports as mostly unlabeled).  The flow table is the index's
    shared, lazily assembled one.  Every unit is classified packet by
    packet through each engine's ``classify_packet``; the index's label
    column is not read.
    """
    tshark = tshark or TsharkLikeClassifier()
    ndpi = ndpi or NdpiLikeClassifier()
    flows = index.flows

    pairs: List[Tuple[Optional[Label], Optional[Label]]] = []
    for flow in flows:
        pairs.append((tshark.classify_flow(flow), ndpi.classify_flow(flow)))
    # Non-transport traffic is grouped per (source MAC, layer kind) — one
    # comparison unit per device per L2/L3 protocol, mirroring how the
    # paper treats the layer-3 tail ("mostly corresponded to layer 3
    # traffic", Appendix C.2).  An ARP row's key comes from the table's
    # columns, so only the first packet of each ARP group is decoded.
    table = index.table
    flags, src_col, mac_strings = table.flags, table.src_mac, table.mac_strings
    groups: Dict[Tuple[str, str], int] = {}
    for rid in flows.non_flow_packets.rids:
        if flags[rid] & F_ARP:
            key = (mac_strings[src_col[rid]], "arp")
        else:
            packet = table.packet(rid)
            key = (str(packet.frame.src),
                   "eapol" if packet.eapol else
                   "icmp" if packet.icmp else
                   "icmpv6" if packet.icmpv6 else
                   "igmp" if packet.igmp else
                   "l3")
        groups.setdefault(key, rid)
    for rid in groups.values():
        packet = table.packet(rid)
        t_label = tshark.classify_packet(packet)
        n_label = ndpi.classify_packet(packet)
        # Pure layer-3 packets that neither engine dissects form the
        # "neither reported a label" bucket.
        t_label = None if t_label is Label.UNKNOWN_L3 else t_label
        n_label = None if n_label is Label.UNKNOWN_L3 else n_label
        pairs.append((t_label, n_label))

    confusion: Counter = Counter()
    tshark_labeled = ndpi_labeled = agree = disagree = neither = 0
    for t_label, n_label in pairs:
        confusion[(_label_name(t_label), _label_name(n_label))] += 1
        if t_label is not None:
            tshark_labeled += 1
        if n_label is not None:
            ndpi_labeled += 1
        if t_label is None and n_label is None:
            neither += 1
        elif t_label is not None and n_label is not None:
            if _normalize(t_label) is _normalize(n_label):
                agree += 1
            else:
                disagree += 1

    return CrossValidation(
        total_units=len(pairs),
        tshark_labeled=tshark_labeled,
        ndpi_labeled=ndpi_labeled,
        agree=agree,
        disagree=disagree,
        neither=neither,
        confusion=dict(confusion),
        tshark_label_count=len({pair[0] for pair in confusion if pair[0] != "UNDETECTED"}),
        ndpi_label_count=len({pair[1] for pair in confusion if pair[1] != "UNDETECTED"}),
    )
