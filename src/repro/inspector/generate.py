"""Seeded generator for the synthetic crowdsourced dataset.

Targets the §6.3 subset's marginals: 12,669 devices in 3,860 households
(median 3 devices each), 264 products from 165 vendors, and the Table 2
exposure structure — most products expose nothing, UUID-only is the
most common exposure, MAC-only and UUID+MAC exist, first names are
rare, and exactly one product (Roku TV) exposes all three identifier
types.  Every exposure travels inside *real* mDNS/SSDP payload bytes
built with the protocol codecs, so the entropy analysis genuinely
extracts rather than copies.

Generation is **shard-stable**: the product pool (and the vendor→OUI
map) derive from the master seed alone, and every household draws from
its own ``random.Random`` keyed on ``(seed, household index)``.  A
household's bytes therefore depend only on the generation spec and its
index — never on which other households were generated in the same
process — which is what lets the fleet runner
(:mod:`repro.fleet`) generate disjoint household ranges in parallel
worker processes and still concatenate to the exact dataset
:func:`generate_dataset` produces serially.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.inspector.schema import (
    FlowRecord,
    Household,
    InspectedDevice,
    InspectorDataset,
    hashed_device_id,
)
from repro.protocols.mdns import ServiceAdvertisement
from repro.protocols.ssdp import SsdpMessage, ST_ROOT_DEVICE


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 64-bit stream seed for one labelled sub-generator.

    Hash-based (BLAKE2b over ``"seed:part:..."``), so the derivation is
    identical across processes and Python versions — the property the
    fleet's serial-equivalence guarantee rests on.
    """
    key = ":".join(str(part) for part in (seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def derive_rng(seed: int, *parts: object) -> random.Random:
    """A ``random.Random`` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(seed, *parts))


def uuid_text(value: int) -> str:
    """``str(uuid.UUID(int=value))`` for ``0 <= value < 2**128``,
    formatted without building the ``UUID``."""
    digits = "%032x" % value
    return f"{digits[:8]}-{digits[8:12]}-{digits[12:16]}-{digits[16:20]}-{digits[20:]}"


class ExposureClass(enum.Enum):
    """Which identifier types a product's responses can expose."""

    NONE = frozenset()
    NAME = frozenset({"name"})
    UUID = frozenset({"uuid"})
    MAC = frozenset({"mac"})
    NAME_UUID = frozenset({"name", "uuid"})
    UUID_MAC = frozenset({"uuid", "mac"})
    ALL = frozenset({"name", "uuid", "mac"})

    @property
    def types(self) -> frozenset:
        return self.value


@dataclass
class ProductSpec:
    """One product (vendor-category pair) and its exposure behaviour."""

    vendor: str
    category: str
    exposure: ExposureClass
    popularity: float  # sampling weight
    #: Products shipping a firmware-constant UUID (breaks uniqueness,
    #: which is why Table 2 sees only ~94% unique households).
    constant_uuid: Optional[str] = None
    #: Products whose firmware echoes one constant MAC (vendor OUI) in
    #: every unit's payloads — the collision source behind Table 2's
    #: ~94% (not 100%) household uniqueness for MAC.
    constant_mac_suffix: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.vendor}/{self.category}"


FIRST_NAMES = [
    "Alex", "Sam", "Jordan", "Taylor", "Casey", "Morgan", "Riley", "Jamie",
    "Avery", "Quinn", "Dana", "Robin", "Jesse", "Drew", "Skyler", "Logan",
]

CATEGORIES = [
    "camera", "plug", "bulb", "speaker", "tv", "hub", "thermostat",
    "doorbell", "printer", "scale", "vacuum", "sensor", "streamer",
]

VENDOR_STEMS = [
    "Acme", "Brightly", "Cobalt", "Dynamo", "Everhome", "Fluxio", "Gadgetron",
    "Halcyon", "Ionix", "Jetstream", "Kinetic", "Lumina", "Mistral", "Nimbus",
    "Orbita", "Pulse", "Quartz", "Reverb", "Solace", "Tempest", "Umbra",
    "Vantage", "Wavelet", "Xenon", "Yonder", "Zephyr",
]


def _make_vendor_pool(rng: random.Random, count: int) -> List[str]:
    vendors = ["Roku", "Google", "Amazon", "Philips", "Sonos", "Samsung", "TP-Link", "Belkin"]
    while len(vendors) < count:
        stem = rng.choice(VENDOR_STEMS)
        candidate = f"{stem}{rng.randrange(2, 99)}"
        if candidate not in vendors:
            vendors.append(candidate)
    return vendors[:count]


def _make_product_pool(rng: random.Random, vendor_count: int, product_count: int) -> List[ProductSpec]:
    """Build the product pool with the Table 2 exposure mix."""
    vendors = _make_vendor_pool(rng, vendor_count)
    products: List[ProductSpec] = []
    # The one product exposing all three identifier types: Roku TV,
    # whose SSDP name is "<owner>'s Roku Express" and whose USN embeds
    # UUID and MAC (Table 2, last row).
    products.append(ProductSpec("Roku", "tv", ExposureClass.ALL, popularity=0.2))
    # Exposure mix for the remainder, weighted to land near the Table 2
    # row structure once devices are sampled.
    # (class, product quota, popularity multiplier): multipliers skew
    # device counts toward the Table 2 row magnitudes (UUID-exposing
    # products are the popular ones; name-exposing ones are rare).
    mix: List[Tuple[ExposureClass, int, float]] = [
        (ExposureClass.NONE, 150, 1.0),
        (ExposureClass.UUID, 62, 4.2),
        (ExposureClass.MAC, 22, 1.3),
        (ExposureClass.NAME, 2, 0.005),
        (ExposureClass.UUID_MAC, 25, 2.4),
        (ExposureClass.NAME_UUID, 2, 0.06),
    ]
    index = 0
    for exposure, quota, multiplier in mix:
        for _ in range(quota):
            if len(products) >= product_count:
                break
            vendor = vendors[index % len(vendors)]
            category = CATEGORIES[(index // len(vendors)) % len(CATEGORIES)]
            index += 1
            spec = ProductSpec(
                vendor=vendor,
                category=category,
                exposure=exposure,
                popularity=rng.paretovariate(1.2) * multiplier,
            )
            # ~8% of UUID-capable products ship a firmware-constant UUID.
            if "uuid" in exposure.types and rng.random() < 0.08:
                spec.constant_uuid = uuid_text(rng.getrandbits(128))
            if "mac" in exposure.types and rng.random() < 0.10:
                spec.constant_mac_suffix = f"{rng.randrange(1 << 24):06x}"
            products.append(spec)
    return products


def _make_oui_map(rng: random.Random, products: List[ProductSpec]) -> Dict[str, str]:
    """One OUI per vendor, fixed for the whole population.

    Precomputed from the pool (not lazily per household) so every
    household — whichever shard generates it — sees the same vendor→OUI
    assignment.
    """
    fixed = {
        "Roku": "d8:31:34",
        "Google": "54:60:09",
        "Amazon": "74:c2:46",
        "Philips": "00:17:88",
    }
    oui_map: Dict[str, str] = {}
    for spec in products:
        if spec.vendor in oui_map:
            continue
        if spec.vendor in fixed:
            oui_map[spec.vendor] = fixed[spec.vendor]
        else:
            oui_map[spec.vendor] = (
                f"{rng.randrange(0, 255) & 0xFC:02x}:{rng.randrange(256):02x}:{rng.randrange(256):02x}"
            )
    return oui_map


@dataclass
class GenerationContext:
    """Everything shared by every household of one population.

    Built from the master seed alone (see :func:`build_context`), so
    any process can reconstruct it and generate any household range.
    """

    seed: int
    households: int
    target_devices: int
    products: List[ProductSpec]
    weights: List[float]
    oui_map: Dict[str, str]

    @property
    def mean_devices(self) -> float:
        return self.target_devices / self.households

    @cached_property
    def cum_weights(self) -> List[float]:
        """``weights`` accumulated, as ``random.choices`` sums them."""
        return list(itertools.accumulate(self.weights))

    @property
    def roku_spec(self) -> ProductSpec:
        return self.products[0]

    @property
    def name_spec(self) -> ProductSpec:
        return next(spec for spec in self.products if spec.exposure is ExposureClass.NAME)


def build_context(
    seed: int = 23,
    households: int = 3860,
    target_devices: int = 12669,
    vendor_count: int = 165,
    product_count: int = 264,
) -> GenerationContext:
    """Build the population-wide generation context for one spec."""
    pool_rng = derive_rng(seed, "pool")
    products = _make_product_pool(pool_rng, vendor_count, product_count)
    oui_map = _make_oui_map(derive_rng(seed, "oui"), products)
    return GenerationContext(
        seed=seed,
        households=households,
        target_devices=target_devices,
        products=products,
        weights=[spec.popularity for spec in products],
        oui_map=oui_map,
    )


def _build_device(
    rng: random.Random,
    spec: ProductSpec,
    user_salt: bytes,
    oui_map: Dict[str, str],
) -> InspectedDevice:
    oui = oui_map[spec.vendor]
    oui_hex = oui.replace(":", "")
    octets = bytes.fromhex(oui_hex) + bytes(rng.randrange(256) for _ in range(3))
    mac_text = octets.hex(":")
    compact = octets.hex()
    exposure = spec.exposure.types
    owner = rng.choice(FIRST_NAMES)
    device_uuid = spec.constant_uuid or uuid_text(rng.getrandbits(128))
    if spec.constant_mac_suffix is not None:
        exposed_mac = bytes.fromhex(oui_hex + spec.constant_mac_suffix).hex(":")
    else:
        exposed_mac = mac_text
    vendor = spec.vendor
    vendor_lower = vendor.lower()
    category = spec.category

    device = InspectedDevice(
        device_id=hashed_device_id(mac_text, user_salt),
        oui=oui,
        # DHCP hostname: vendor-flavoured, used by the Appendix E labeler.
        dhcp_hostname=f"{vendor_lower}-{category}-{compact[-4:]}",
        hostnames_contacted=[f"api.{vendor_lower}.com", "pool.ntp.org"],
        truth_vendor=vendor,
        truth_category=category,
        truth_mac=mac_text,
    )
    # Noisy crowdsourced labels: present for ~70%, misspelled for ~10%.
    if rng.random() < 0.7:
        vendor_label = vendor
        if rng.random() < 0.1:
            vendor_label = vendor_label.replace("o", "0", 1) if "o" in vendor_label else vendor_label + "s"
        device.user_label_vendor = vendor_label
        device.user_label_category = category if rng.random() < 0.9 else ""

    if "name" in exposure:
        friendly = f"{owner}'s Roku Express" if vendor == "Roku" else f"{owner}'s {category.title()}"
    else:
        friendly = f"{vendor} {category.title()}"

    # SSDP response (the Table 5 Amcrest shape).
    usn_parts = [f"uuid:{device_uuid}" if "uuid" in exposure else "uuid:device"]
    if "mac" in exposure:
        usn_parts.append(exposed_mac.replace(":", ""))
    usn_parts.append(ST_ROOT_DEVICE)
    ssdp = SsdpMessage.response(
        location=f"http://192.168.1.{rng.randrange(2, 254)}:8060/",
        search_target=ST_ROOT_DEVICE,
        usn="::".join(usn_parts),
        server=f"{vendor}/1.0 UPnP/1.1 {vendor}OS/9.0",
    )
    if "name" in exposure:
        ssdp.headers["NAME"] = friendly
    device.ssdp_responses.append(ssdp.encode())

    # mDNS response.
    instance = friendly
    if "mac" in exposure and rng.random() < 0.8:
        instance = f"{friendly} - {exposed_mac.replace(':', '')[-6:].upper()}"
    txt = {"md": f"{vendor} {category}"}
    if "uuid" in exposure:
        txt["id"] = device_uuid
    if "mac" in exposure:
        txt["mac"] = exposed_mac
    advertisement = ServiceAdvertisement(
        service_type=f"_{vendor_lower}._tcp.local",
        instance_name=instance,
        hostname=f"{vendor_lower}-{compact[-6:]}.local",
        port=8060,
        address=f"192.168.1.{rng.randrange(2, 254)}",
        txt=txt,
    )
    device.mdns_responses.append(advertisement.to_response().encode())
    return device


_FLOW_PORTS = (80, 443, 8009, 1900, 5353, 8060)
_FLOW_TRANSPORTS = ("tcp", "udp")


def _household_flows(rng: random.Random, household: Household) -> List[FlowRecord]:
    """Local TCP/UDP flow summaries between household devices."""
    flows: List[FlowRecord] = []
    devices = household.devices
    if len(devices) < 2:
        return flows
    for _ in range(rng.randrange(1, 3 + len(devices))):
        a, b = rng.sample(range(len(devices)), 2)
        window = rng.randrange(0, 720) * 5.0
        flows.append(
            FlowRecord(
                window_start=window,
                src_ip=f"192.168.1.{10 + a}",
                dst_ip=f"192.168.1.{10 + b}",
                src_port=rng.randrange(49152, 65535),
                dst_port=rng.choice(_FLOW_PORTS),
                transport=rng.choice(_FLOW_TRANSPORTS),
                bytes_sent=rng.randrange(64, 40960),
                bytes_received=rng.randrange(64, 40960),
            )
        )
    return flows


def generate_household(context: GenerationContext, index: int) -> Household:
    """Generate household ``index`` of the population, order-free.

    All randomness comes from RNGs derived from ``(seed, index)``, so
    the result is identical whether the household is generated alone,
    inside a shard, or as part of the full serial sweep.
    """
    rng = derive_rng(context.seed, "household", index)
    user_salt = rng.getrandbits(128).to_bytes(16, "big")
    household = Household(user_id=f"user-{index:05d}")
    count = max(1, min(25, int(rng.lognormvariate(1.0, 0.62) * context.mean_devices / 2.9)))
    specs = rng.choices(context.products, cum_weights=context.cum_weights, k=count)
    for spec in specs:
        household.devices.append(_build_device(rng, spec, user_salt, context.oui_map))
    household.flows = _household_flows(rng, household)

    # Table 2 anchor rows, keyed purely by household index: households
    # 0-1 each get the all-three Roku product, households 2-3 each get a
    # name-only product sharing one first name.
    if index < 4:
        spec = context.roku_spec if index < 2 else context.name_spec
        anchor_rng = derive_rng(context.seed, "anchor", index)
        salt = anchor_rng.getrandbits(128).to_bytes(16, "big")
        household.devices.append(_build_device(anchor_rng, spec, salt, context.oui_map))
    return household


def generate_households(
    context: GenerationContext, start: int, stop: int
) -> List[Household]:
    """Generate the contiguous household range ``[start, stop)``.

    The fleet's shard boundary: concatenating the ranges
    ``[0, s), [s, 2s), ...`` in order reproduces
    :func:`generate_dataset` byte for byte.
    """
    if not 0 <= start <= stop <= context.households:
        raise ValueError(
            f"household range [{start}, {stop}) outside population "
            f"[0, {context.households})")
    return [generate_household(context, index) for index in range(start, stop)]


def generate_dataset(
    seed: int = 23,
    households: int = 3860,
    target_devices: int = 12669,
    vendor_count: int = 165,
    product_count: int = 264,
) -> InspectorDataset:
    """Generate the §6.3 analysis subset (the full serial sweep)."""
    context = build_context(
        seed=seed,
        households=households,
        target_devices=target_devices,
        vendor_count=vendor_count,
        product_count=product_count,
    )
    dataset = InspectorDataset()
    dataset.households.extend(generate_households(context, 0, households))
    return dataset
