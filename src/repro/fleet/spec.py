"""Fleet run specification, shard planning, and content-address keys.

A :class:`FleetSpec` is the complete input of a fleet run: the
generation parameters (seed, population size, product-pool shape), the
analysis toggle (``validate_oui``), and the shard size.  Everything a
worker needs travels as the spec's plain-dict form, so workers can be
separate processes and cache keys can be stated over canonical JSON.

The shard cache key hashes the spec subset that determines a shard's
bytes **plus the code version** — a digest of the generator/analysis
sources — so editing the generator invalidates every cached shard
instead of silently serving stale results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

#: Default households per shard.
DEFAULT_SHARD_SIZE = 256


@dataclass(frozen=True)
class ShardRange:
    """One contiguous household range ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def households(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class FleetSpec:
    """The full input of one fleet run (generation + analysis + sharding)."""

    seed: int = 23
    households: int = 3860
    target_devices: int = 12669
    vendor_count: int = 165
    product_count: int = 264
    validate_oui: bool = True
    shard_size: int = DEFAULT_SHARD_SIZE

    def __post_init__(self) -> None:
        if self.households < 1:
            raise ValueError(f"households must be >= 1, got {self.households}")
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")

    def shards(self) -> List[ShardRange]:
        """Contiguous, disjoint shard ranges covering the population."""
        out: List[ShardRange] = []
        start = 0
        index = 0
        while start < self.households:
            stop = min(start + self.shard_size, self.households)
            out.append(ShardRange(index=index, start=start, stop=stop))
            start = stop
            index += 1
        return out

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "FleetSpec":
        return cls(**raw)


#: Modules whose source participates in the cache-key code version:
#: anything that changes the bytes a shard produces.  That is the
#: generator, the analysis, the shard and merge code, and everything
#: inside ``repro`` they import (the codecs the generator encodes
#: discovery responses with); ``tests/fleet/test_spec.py`` recomputes
#: that import closure and fails when a module is missing here.
_VERSIONED_MODULES = (
    "repro.inspector.generate",
    "repro.inspector.entropy",
    "repro.inspector.schema",
    "repro.core.fingerprint",
    "repro.fleet.shard",
    "repro.fleet.merge",
    "repro.fleet.spec",
    "repro.net.guard",
    "repro.net.ipv4",
    "repro.net.ipv6",
    "repro.net.mac",
    "repro.protocols.dns",
    "repro.protocols.mdns",
    "repro.protocols.ssdp",
)

_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of the generator/analysis sources (cache-key component)."""
    global _code_version
    if _code_version is None:
        import importlib

        digest = hashlib.blake2b(digest_size=16)
        for name in _VERSIONED_MODULES:
            module = importlib.import_module(name)
            path = getattr(module, "__file__", None)
            digest.update(name.encode("utf-8"))
            if path and os.path.exists(path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version = digest.hexdigest()
    return _code_version


def shard_key(spec: FleetSpec, shard: ShardRange) -> str:
    """Content address of one shard's result.

    Composition: every :class:`FleetSpec` field that shapes the shard's
    bytes, the shard's household range, and :func:`code_version`.
    ``shard_size``/``index`` are deliberately *excluded* — the same
    household range produced under a different shard partition is the
    same content.
    """
    payload = {
        "seed": spec.seed,
        "households": spec.households,
        "target_devices": spec.target_devices,
        "vendor_count": spec.vendor_count,
        "product_count": spec.product_count,
        "validate_oui": spec.validate_oui,
        "start": shard.start,
        "stop": shard.stop,
        "code_version": code_version(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
