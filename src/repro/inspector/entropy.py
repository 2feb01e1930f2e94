"""Household-fingerprintability entropy analysis (§6.3, Table 2).

From every mDNS and SSDP payload we extract what appear to be unique
identifiers:

1. **Names** — "an English word followed by an apostrophe, 's', space,
   and another word" (e.g. ``Roku 3 - REDACTED's Room``).
2. **UUIDs** — the standard RFC 4122 pattern.
3. **MAC addresses** — standard formats with and without separators,
   validated against the OUI IoT Inspector collected for the device to
   reduce false positives.

Fingerprintability is quantified as entropy ``-log2(1/N)`` (N = number
of distinct values per identifier type, the EFF "Cover Your Tracks"
measure) and as the fraction of households uniquely identified by their
identifier-value combination.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.inspector.schema import InspectedDevice, InspectorDataset

#: "an English word... followed by an apostrophe, 's', space, another word"
NAME_RE = re.compile(r"\b([A-Z][A-Za-z]+)'s\s+(\w+)")
UUID_RE = re.compile(
    r"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b"
)
#: ``\b(?:HH[:-]){5}HH\b`` and ``\b[0-9a-fA-F]{12}\b`` (H a hex digit),
#: written to start with a hex digit so that ``re`` tries a match only at
#: hex digits; the look-behind after the first digit is the leading ``\b``.
MAC_SEPARATED_RE = re.compile(
    r"[0-9a-fA-F](?<!\w[0-9a-fA-F])[0-9a-fA-F](?:[:-][0-9a-fA-F]{2}){5}\b"
)
MAC_BARE_RE = re.compile(r"[0-9a-fA-F](?<!\w[0-9a-fA-F])[0-9a-fA-F]{11}\b")


def extract_names(text: str) -> Set[str]:
    """First-name identifiers ("Alex's Room" -> "Alex")."""
    if "'s" not in text:  # NAME_RE needs this literal; most payloads lack it
        return set()
    return {match.group(1) for match in NAME_RE.finditer(text)}


#: A UUID's fixed middle, ``-HHHH-HHHH-HHHH-``.  Its leading literal lets
#: ``re`` jump from dash to dash, where ``UUID_RE`` would try a match at
#: every hex digit of the text.
_UUID_MIDDLE_RE = re.compile(r"-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-")


def extract_uuids(text: str) -> Set[str]:
    """UUID identifiers, lower-cased: the matches of ``UUID_RE``.

    Each candidate middle is checked by ``UUID_RE`` anchored eight
    characters before it, which tests both groups and both ``\\b``
    boundaries.  The middles' scan cannot skip a UUID: a middle that
    overlaps an earlier one has a ``-`` among the eight characters
    before it, so no UUID starts there.
    """
    found: Set[str] = set()
    for middle in _UUID_MIDDLE_RE.finditer(text):
        start = middle.start() - 8
        if start >= 0:
            match = UUID_RE.match(text, start)
            if match is not None:
                found.add(match.group(0).lower())
    return found


def extract_macs(text: str, oui: Optional[str] = None, validate_oui: bool = True) -> Set[str]:
    """MAC-address identifiers, OUI-validated to cut false positives.

    The §6.3 method compares each candidate with the OUI IoT Inspector
    collected for the device and filters mismatches.  A kept candidate,
    separated or bare, puts the OUI's hex digits into the lower-cased
    text with ``:`` and ``-`` removed, so a text without them is not
    scanned.
    """
    prefix = None
    if validate_oui and oui is not None:
        prefix = oui.lower().replace("-", ":")
        digits = prefix.replace(":", "")
        if digits not in text.lower().replace(":", "").replace("-", ""):
            return set()
    candidates: Set[str] = set()
    for match in MAC_SEPARATED_RE.finditer(text):
        candidates.add(match.group(0).lower().replace("-", ":"))
    for match in MAC_BARE_RE.finditer(text):
        raw = match.group(0).lower()
        candidates.add(":".join(raw[i : i + 2] for i in range(0, 12, 2)))
    if prefix is None:
        return candidates
    return {mac for mac in candidates if mac.startswith(prefix)}


def device_identifiers(device: InspectedDevice, validate_oui: bool = True) -> Dict[str, Set[str]]:
    """Extract all three identifier classes from one device's payloads."""
    text = device.all_payload_text()
    return {
        "name": extract_names(text),
        "uuid": {u for u in extract_uuids(text)},
        "mac": extract_macs(text, device.oui, validate_oui),
    }


@dataclass
class ExposureRow:
    """One row of Table 2: households exposing a given identifier set."""

    identifier_types: FrozenSet[str]
    products: Set[str] = field(default_factory=set)
    vendors: Set[str] = field(default_factory=set)
    devices: int = 0
    households: Set[str] = field(default_factory=set)
    #: household id -> frozenset of identifier values (the fingerprint)
    fingerprints: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    @property
    def type_count(self) -> int:
        return len(self.identifier_types)

    @property
    def household_count(self) -> int:
        return len(self.households)

    def unique_household_fraction(self) -> float:
        """Fraction of households uniquely identified by their values."""
        if not self.fingerprints:
            return 0.0
        counts = Counter(self.fingerprints.values())
        unique = sum(1 for fingerprint in self.fingerprints.values() if counts[fingerprint] == 1)
        return unique / len(self.fingerprints)

    def to_dict(self) -> Dict[str, object]:
        """A canonical JSON-able form (sets become sorted lists)."""
        return {
            "identifier_types": sorted(self.identifier_types),
            "products": sorted(self.products),
            "vendors": sorted(self.vendors),
            "devices": self.devices,
            "households": sorted(self.households),
            "fingerprints": {
                household: sorted(values)
                for household, values in sorted(self.fingerprints.items())
            },
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "ExposureRow":
        return cls(
            identifier_types=frozenset(raw["identifier_types"]),
            products=set(raw["products"]),
            vendors=set(raw["vendors"]),
            devices=int(raw["devices"]),
            households=set(raw["households"]),
            fingerprints={
                household: frozenset(values)
                for household, values in raw["fingerprints"].items()
            },
        )

    def absorb(self, other: "ExposureRow") -> None:
        """Merge another partial row for the same identifier-type set.

        All aggregation is additive over households (partials cover
        disjoint household ranges), so union/sum is exact.
        """
        self.products |= other.products
        self.vendors |= other.vendors
        self.devices += other.devices
        self.households |= other.households
        self.fingerprints.update(other.fingerprints)


@dataclass
class EntropyAnalysis:
    """The full Table 2 computation."""

    rows: Dict[FrozenSet[str], ExposureRow] = field(default_factory=dict)
    #: identifier type -> set of distinct observed values (for entropy)
    distinct_values: Dict[str, Set[str]] = field(default_factory=dict)
    none_row: ExposureRow = field(
        default_factory=lambda: ExposureRow(identifier_types=frozenset())
    )

    def entropy_of(self, identifier_type: str) -> float:
        """-log2(1/N) over distinct values of one identifier type."""
        count = len(self.distinct_values.get(identifier_type, ()))
        return math.log2(count) if count > 0 else 0.0

    def entropy_of_combination(self, types: FrozenSet[str]) -> float:
        """Combined entropy: independent identifiers add (Table 2 rows)."""
        return sum(self.entropy_of(identifier_type) for identifier_type in sorted(types))

    def table_rows(self) -> List[Tuple[int, str, ExposureRow, float]]:
        """(type_count, label, row, entropy), ordered like Table 2."""
        ordered = sorted(
            self.rows.values(),
            key=lambda row: (row.type_count, ",".join(sorted(row.identifier_types))),
        )
        output = [(0, "N/A", self.none_row, 0.0)]
        for row in ordered:
            label = ", ".join(sorted(row.identifier_types))
            output.append((row.type_count, label, row, self.entropy_of_combination(row.identifier_types)))
        return output

    # -- shard partials (the fleet merge contract) ---------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A canonical JSON-able partial, the fleet's shard payload.

        Every aggregate in an :class:`EntropyAnalysis` is additive over
        households — set unions and integer sums — so an analysis of
        any household subset serializes to a *partial* that
        :meth:`merge` can combine losslessly with partials of the
        remaining households.
        """
        return {
            "rows": [row.to_dict() for _, row in sorted(
                self.rows.items(),
                key=lambda item: (len(item[0]), ",".join(sorted(item[0]))),
            )],
            "none_row": self.none_row.to_dict(),
            "distinct_values": {
                identifier_type: sorted(values)
                for identifier_type, values in sorted(self.distinct_values.items())
            },
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "EntropyAnalysis":
        analysis = cls(
            none_row=ExposureRow.from_dict(raw["none_row"]),
            distinct_values={
                identifier_type: set(values)
                for identifier_type, values in raw["distinct_values"].items()
            },
        )
        for row_raw in raw["rows"]:
            row = ExposureRow.from_dict(row_raw)
            analysis.rows[row.identifier_types] = row
        return analysis

    def absorb(self, other: "EntropyAnalysis") -> None:
        """Merge another partial (covering disjoint households) in place."""
        for types, row in other.rows.items():
            mine = self.rows.setdefault(types, ExposureRow(identifier_types=types))
            mine.absorb(row)
        self.none_row.absorb(other.none_row)
        for identifier_type, values in other.distinct_values.items():
            self.distinct_values.setdefault(identifier_type, set()).update(values)

    @classmethod
    def merge(cls, partials: "List[EntropyAnalysis]") -> "EntropyAnalysis":
        """Combine per-shard partials into the population analysis.

        Exact, not approximate: for partials covering disjoint
        household ranges, the merge equals :func:`analyze_dataset` over
        the union of their households.
        """
        merged = cls()
        for partial in partials:
            merged.absorb(partial)
        return merged


def analyze_dataset(dataset: InspectorDataset, validate_oui: bool = True) -> EntropyAnalysis:
    """Run the §6.3 extraction + entropy computation over the corpus."""
    analysis = EntropyAnalysis()
    for household in dataset.households:
        # identifier-type set -> pooled values for this household
        per_combo: Dict[FrozenSet[str], Set[str]] = {}
        for device in household.devices:
            identifiers = device_identifiers(device, validate_oui)
            exposed = frozenset(
                identifier_type for identifier_type, values in identifiers.items() if values
            )
            if not exposed:
                analysis.none_row.products.add(device.truth_product)
                analysis.none_row.vendors.add(device.truth_vendor)
                analysis.none_row.devices += 1
                analysis.none_row.households.add(household.user_id)
                continue
            row = analysis.rows.setdefault(exposed, ExposureRow(identifier_types=exposed))
            row.products.add(device.truth_product)
            row.vendors.add(device.truth_vendor)
            row.devices += 1
            row.households.add(household.user_id)
            values: Set[str] = set()
            for identifier_type in exposed:
                for value in identifiers[identifier_type]:
                    values.add(value)
                    analysis.distinct_values.setdefault(identifier_type, set()).add(value)
            per_combo.setdefault(exposed, set()).update(values)
        for exposed, values in per_combo.items():
            analysis.rows[exposed].fingerprints[household.user_id] = frozenset(values)
    return analysis
