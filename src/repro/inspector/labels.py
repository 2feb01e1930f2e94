"""Device identity inference over crowdsourced metadata (Appendix E).

The paper feeds DHCP hostnames, mDNS/SSDP responses, and noisy user
labels to OpenAI's TextCompletion API to infer each device's vendor and
category.  Offline, we replace the LLM with a deterministic rule
cascade over the same inputs: OUI lookup, vendor-token matching in
hostnames/payloads, and fuzzy matching of crowdsourced labels —
validated against the generator's ground truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.inspector.schema import InspectedDevice, InspectorDataset


@dataclass
class LabelResult:
    """Inferred identity for one device."""

    device_id: str
    vendor: Optional[str]
    category: Optional[str]
    source: str  # which rule produced the inference
    confidence: float


_CATEGORY_TOKENS = [
    "camera", "plug", "bulb", "speaker", "tv", "hub", "thermostat",
    "doorbell", "printer", "scale", "vacuum", "sensor", "streamer",
]


def _normalize(token: str) -> str:
    return re.sub(r"[^a-z0-9]", "", token.lower())


def _fuzzy_equal(left: str, right: str) -> bool:
    """Tolerate one edit (the crowdsourced-misspelling case)."""
    left, right = _normalize(left), _normalize(right)
    if left == right:
        return True
    if abs(len(left) - len(right)) > 1 or not left or not right:
        return False
    # one substitution
    if len(left) == len(right):
        return sum(1 for a, b in zip(left, right) if a != b) <= 1
    # one insertion/deletion
    shorter, longer = sorted((left, right), key=len)
    for index in range(len(longer)):
        if longer[:index] + longer[index + 1 :] == shorter:
            return True
    return False


class DeviceLabeler:
    """The offline substitute for the Appendix E TextCompletion prompts."""

    def __init__(self, known_vendors: Optional[List[str]] = None,
                 oui_map: Optional[Dict[str, str]] = None):
        self.known_vendors = known_vendors or []
        self.oui_map = oui_map or {}

    @classmethod
    def from_dataset(cls, dataset: InspectorDataset) -> "DeviceLabeler":
        """Bootstrap vendor knowledge the way the LLM has world knowledge:
        from the distribution of user labels and OUI co-occurrence."""
        vendor_votes: Dict[str, Dict[str, int]] = {}
        vendors: Set[str] = set()
        for device in dataset.all_devices():
            if device.user_label_vendor:
                vendors.add(device.user_label_vendor)
                per_oui = vendor_votes.setdefault(device.oui, {})
                per_oui[device.user_label_vendor] = per_oui.get(device.user_label_vendor, 0) + 1
        oui_map = {
            oui: max(votes.items(), key=lambda item: item[1])[0]
            for oui, votes in vendor_votes.items()
        }
        return cls(known_vendors=sorted(vendors), oui_map=oui_map)

    # -- inference ----------------------------------------------------------------

    def label_device(self, device: InspectedDevice) -> LabelResult:
        vendor, vendor_source, confidence = self._infer_vendor(device)
        category = self._infer_category(device)
        return LabelResult(
            device_id=device.device_id,
            vendor=vendor,
            category=category,
            source=vendor_source,
            confidence=confidence,
        )

    def label_dataset(self, dataset: InspectorDataset) -> List[LabelResult]:
        return [self.label_device(device) for device in dataset.all_devices()]

    def _infer_vendor(self, device: InspectedDevice) -> Tuple[Optional[str], str, float]:
        # 1. Explicit user label wins: exact match first, then a
        #    one-edit fuzzy match (the misspelling case).  Exact-first
        #    matters because generated vendor names can be one edit
        #    apart ("Acme12" vs "Acme13").
        if device.user_label_vendor:
            for vendor in self.known_vendors:
                if _normalize(device.user_label_vendor) == _normalize(vendor):
                    return vendor, "user-label", 0.98
            for vendor in self.known_vendors:
                if _fuzzy_equal(device.user_label_vendor, vendor):
                    return vendor, "user-label-fuzzy", 0.9
        # 2. Vendor token inside the DHCP hostname or payloads.
        haystack = _normalize(device.dhcp_hostname + " " + device.all_payload_text())
        best = None
        for vendor in self.known_vendors:
            token = _normalize(vendor)
            if token and token in haystack:
                if best is None or len(token) > len(_normalize(best)):
                    best = vendor
        if best is not None:
            return best, "hostname/payload-token", 0.85
        # 3. OUI majority vote.
        vendor = self.oui_map.get(device.oui)
        if vendor is not None:
            return vendor, "oui", 0.6
        return None, "none", 0.0

    @staticmethod
    def _infer_category(device: InspectedDevice) -> Optional[str]:
        haystack = (
            device.dhcp_hostname + " " + device.user_label_category + " " + device.all_payload_text()
        ).lower()
        for token in _CATEGORY_TOKENS:
            if token in haystack:
                return token
        return None

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, dataset: InspectorDataset) -> Dict[str, float]:
        """Accuracy against generator ground truth (validation only)."""
        results = self.label_dataset(dataset)
        truth = {device.device_id: device for device in dataset.all_devices()}
        labeled = [result for result in results if result.vendor is not None]
        vendor_hits = sum(
            1 for result in labeled if result.vendor == truth[result.device_id].truth_vendor
        )
        category_results = [result for result in results if result.category is not None]
        category_hits = sum(
            1
            for result in category_results
            if result.category == truth[result.device_id].truth_category
        )
        total = len(results)
        return {
            "total": float(total),
            "vendor_labeled": len(labeled) / total if total else 0.0,
            "vendor_accuracy": vendor_hits / len(labeled) if labeled else 0.0,
            "category_labeled": len(category_results) / total if total else 0.0,
            "category_accuracy": category_hits / len(category_results) if category_results else 0.0,
        }
