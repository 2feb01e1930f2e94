"""§7 mitigations, evaluated quantitatively.

The paper's discussion proposes mitigations but (necessarily) cannot
measure them on its own data.  The simulation can: each mitigation is a
transformation applied to the crowdsourced corpus's payloads — exactly
what a privacy-respecting firmware update would change — after which
the §6.3 entropy/uniqueness analysis is re-run.

Implemented mitigations:

* ``mac_randomization``   — per-session randomized MACs in payloads
                            (and OUI randomization, breaking vendor OUIs).
* ``id_rotation``         — UUIDs rotate per epoch instead of being
                            persistent ("ID randomization", §7).
* ``name_minimization``   — user-assigned first names removed from
                            advertised instance names ("data exposure
                            minimization", §7; Könings et al.'s naming
                            recommendation, §8).
* ``strip_identifiers``   — all three classes removed (the ETSI-style
                            baseline the paper finds too generic,
                            here taken literally).
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.fingerprint import FingerprintReport, fingerprint_households
from repro.inspector.entropy import MAC_BARE_RE, MAC_SEPARATED_RE, NAME_RE, UUID_RE
from repro.inspector.schema import InspectedDevice, InspectorDataset


def _rewrite_payloads(
    dataset: InspectorDataset,
    transform: Callable[[bytes, InspectedDevice, random.Random], bytes],
    seed: int = 97,
) -> InspectorDataset:
    """Deep-copy the dataset with every mDNS/SSDP payload transformed."""
    import copy

    rng = random.Random(seed)
    mitigated = copy.deepcopy(dataset)
    for household in mitigated.households:
        for device in household.devices:
            device.mdns_responses = [
                transform(payload, device, rng) for payload in device.mdns_responses
            ]
            device.ssdp_responses = [
                transform(payload, device, rng) for payload in device.ssdp_responses
            ]
    return mitigated


def _sub_text(payload: bytes, pattern: re.Pattern, replacer) -> bytes:
    """Regex-substitute inside a payload treated as latin-1 text.

    latin-1 is byte-transparent, so untouched bytes survive verbatim.
    """
    text = payload.decode("latin-1")
    return pattern.sub(replacer, text).encode("latin-1")


# -- the mitigations ----------------------------------------------------------------


def mac_randomization(payload: bytes, device: InspectedDevice, rng: random.Random) -> bytes:
    """Replace every advertised MAC with a per-payload random one."""

    def fresh_mac(match):
        token = match.group(0)
        randomized = bytes([0x02] + [rng.randrange(256) for _ in range(5)])
        if ":" in token or "-" in token:
            return ":".join(f"{b:02x}" for b in randomized)
        return randomized.hex()

    payload = _sub_text(payload, MAC_SEPARATED_RE, fresh_mac)
    return _sub_text(payload, MAC_BARE_RE, fresh_mac)


def id_rotation(payload: bytes, device: InspectedDevice, rng: random.Random) -> bytes:
    """Rotate UUIDs: stable within one payload epoch, unlinkable across.

    Modeled as a keyed hash of (original UUID, epoch nonce); the §6.3
    observer then sees values that never repeat across sessions, so
    they stop being *persistent* identifiers.
    """
    epoch_nonce = rng.getrandbits(64).to_bytes(8, "big")

    def rotated(match):
        digest = hashlib.sha256(epoch_nonce + match.group(0).encode()).hexdigest()
        return (f"{digest[:8]}-{digest[8:12]}-{digest[12:16]}-"
                f"{digest[16:20]}-{digest[20:32]}")

    return _sub_text(payload, UUID_RE, rotated)


def name_minimization(payload: bytes, device: InspectedDevice, rng: random.Random) -> bytes:
    """Strip user-assigned possessive names from instance labels."""
    return _sub_text(payload, NAME_RE, lambda match: "Device")


def strip_identifiers(payload: bytes, device: InspectedDevice, rng: random.Random) -> bytes:
    """All three mitigations stacked."""
    payload = mac_randomization(payload, device, rng)
    payload = id_rotation(payload, device, rng)
    return name_minimization(payload, device, rng)


MITIGATIONS: Dict[str, Callable] = {
    "baseline": None,
    "mac_randomization": mac_randomization,
    "id_rotation": id_rotation,
    "name_minimization": name_minimization,
    "strip_identifiers": strip_identifiers,
}


@dataclass
class MitigationOutcome:
    """Fingerprintability before/after one mitigation."""

    name: str
    report: FingerprintReport

    def max_entropy(self) -> float:
        return max((row.entropy for row in self.report.rows if row.type_count), default=0.0)

    def uniquely_identifiable_households(self) -> int:
        """Households uniquely identified by at least one exposure row."""
        total = 0
        for row in self.report.rows:
            if row.type_count:
                total += round(row.households * row.unique_pct / 100.0)
        return total


def evaluate_mitigations(
    dataset: Optional[InspectorDataset] = None,
    seed: int = 23,
    names: Optional[List[str]] = None,
) -> List[MitigationOutcome]:
    """Run the §6.3 analysis under each mitigation; returns outcomes.

    Note the id_rotation caveat the paper itself raises for Table 2:
    uniqueness *within one short observation window* can stay high even
    for rotated IDs — what rotation buys is unlinkability over time.
    The headline number to compare is therefore the entropy of the
    *persistent* identifier pool, which collapses when values rotate.
    """
    from repro.inspector.generate import generate_dataset

    if dataset is None:
        dataset = generate_dataset(seed=seed)
    names = names if names is not None else list(MITIGATIONS)
    outcomes = []
    for name in names:
        transform = MITIGATIONS[name]
        mitigated = dataset if transform is None else _rewrite_payloads(dataset, transform)
        report = fingerprint_households(dataset=mitigated)
        outcomes.append(MitigationOutcome(name=name, report=report))
    return outcomes
