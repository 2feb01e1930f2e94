"""Section 6.3 / Table 2: household fingerprintability.

A thin orchestration layer over :mod:`repro.inspector`: generate (or
accept) a crowdsourced dataset, run the identifier extraction + entropy
analysis, and render the Table 2 rows, including the OUI-validation
ablation (§6.3 filters MAC candidates against each device's OUI).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.inspector.entropy import EntropyAnalysis, analyze_dataset
from repro.inspector.generate import generate_dataset
from repro.inspector.schema import InspectorDataset


@dataclass
class FingerprintRow:
    """One rendered Table 2 row."""

    type_count: int
    identifiers: str
    products: int
    vendors: int
    devices: int
    households: int
    unique_pct: float
    entropy: float


@dataclass
class FingerprintReport:
    """Table 2 plus context statistics."""

    dataset_devices: int
    dataset_households: int
    dataset_vendors: int
    dataset_products: int
    rows: List[FingerprintRow] = field(default_factory=list)
    median_devices_per_household: float = 0.0

    def row_for(self, identifiers: str) -> Optional[FingerprintRow]:
        for row in self.rows:
            if row.identifiers == identifiers:
                return row
        return None

    def to_dict(self) -> Dict[str, object]:
        """A plain-data form of the report (rows in table order)."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON: sorted keys, fixed indent.

        The serial-equivalence contract of :mod:`repro.fleet` is stated
        over this serialization — a sharded run must produce the exact
        same bytes as the serial :func:`fingerprint_households` path.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "FingerprintReport":
        return cls(
            dataset_devices=raw["dataset_devices"],
            dataset_households=raw["dataset_households"],
            dataset_vendors=raw["dataset_vendors"],
            dataset_products=raw["dataset_products"],
            rows=[FingerprintRow(**row) for row in raw["rows"]],
            median_devices_per_household=raw["median_devices_per_household"],
        )

    @classmethod
    def from_analysis(
        cls,
        analysis: EntropyAnalysis,
        dataset_devices: int,
        dataset_households: int,
        dataset_vendors: int,
        dataset_products: int,
        household_device_counts: List[int],
    ) -> "FingerprintReport":
        """Render Table 2 rows from an analysis plus context counts.

        Shared by the serial path and the fleet merge so both produce
        rows through the identical arithmetic.
        """
        import statistics

        report = cls(
            dataset_devices=dataset_devices,
            dataset_households=dataset_households,
            dataset_vendors=dataset_vendors,
            dataset_products=dataset_products,
            median_devices_per_household=float(
                statistics.median(household_device_counts)
            ),
        )
        for type_count, label, row, entropy in analysis.table_rows():
            report.rows.append(
                FingerprintRow(
                    type_count=type_count,
                    identifiers=label,
                    products=len(row.products),
                    vendors=len(row.vendors),
                    devices=row.devices,
                    households=row.household_count,
                    unique_pct=100.0 * row.unique_household_fraction(),
                    entropy=entropy,
                )
            )
        return report


def fingerprint_households(
    dataset: Optional[InspectorDataset] = None,
    seed: int = 23,
    validate_oui: bool = True,
) -> FingerprintReport:
    """Run the full §6.3 pipeline; generates the dataset when not given.

    This is the serial reference path.  ``repro.fleet`` produces the
    same report (byte-identical :meth:`FingerprintReport.to_json`) by
    sharding the population across worker processes; prefer
    :func:`repro.fleet.run_fleet` for full-size populations.
    """
    if dataset is None:
        dataset = generate_dataset(seed=seed)
    analysis = analyze_dataset(dataset, validate_oui=validate_oui)
    return FingerprintReport.from_analysis(
        analysis,
        dataset_devices=dataset.device_count,
        dataset_households=dataset.household_count,
        dataset_vendors=len(dataset.vendors()),
        dataset_products=len(dataset.products()),
        household_device_counts=[h.device_count for h in dataset.households],
    )
