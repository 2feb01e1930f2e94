"""OUI (MAC-prefix) registry mapping vendors to address blocks.

IoT Inspector infers device vendors from "the first three octets of a
MAC address" (§3.3, Appendix E), and the §6.3 identifier extraction
validates candidate MAC addresses against each device's known OUI.
This registry is the offline stand-in for the IEEE OUI database; some
prefixes are the real registered ones (Philips Hue 00:17:88 and Amcrest
9c:8e:cd appear verbatim in the paper's Table 5), the rest are
representative allocations fixed per vendor for determinism.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.net.mac import MacAddress

#: vendor -> list of OUI prefixes ("aa:bb:cc", lowercase).
VENDOR_OUIS: Dict[str, List[str]] = {
    "Amazon": ["74:c2:46", "f0:27:2d", "44:65:0d", "fc:a1:83"],
    "Google": ["54:60:09", "f4:f5:d8", "1c:f2:9a", "30:fd:38"],
    "Apple": ["f0:18:98", "a8:51:ab", "90:dd:5d"],
    "Philips": ["00:17:88"],
    "TP-Link": ["50:c7:bf", "b0:be:76"],
    "Tuya": ["d4:a6:51", "68:57:2d"],
    "Samsung": ["8c:71:f8", "64:1c:ae"],
    "SmartThings": ["24:fd:5b"],
    "LG": ["cc:2d:8c"],
    "Roku": ["d8:31:34", "b0:a7:37"],
    "Amcrest": ["9c:8e:cd"],
    "Ring": ["34:3e:a4", "64:9a:63"],
    "Wyze": ["2c:aa:8e"],
    "Arlo": ["3c:37:86"],
    "Blink": ["f4:b8:5e"],
    "D-Link": ["b0:c5:54"],
    "Belkin": ["c4:41:1e"],
    "Netgear": ["a0:40:a0"],
    "Sonos": ["48:a6:b8"],
    "Nintendo": ["98:b6:e9"],
    "Withings": ["00:24:e4"],
    "Xiaomi": ["64:90:c1"],
    "IKEA": ["44:91:60"],
    "Meross": ["48:e1:e9"],
    "Sengled": ["b0:ce:18"],
    "SwitchBot": ["c8:47:8c"],
    "Wiz": ["a8:bb:50"],
    "Yeelight": ["78:11:dc"],
    "GE": ["c8:aa:cc"],
    "Anova": ["24:7d:4d"],
    "Behmor": ["60:01:94"],
    "Blueair": ["70:4a:0e"],
    "Smarter": ["5c:31:3e"],
    "MagicHome": ["84:f3:eb"],
    "Aqara": ["54:ef:44"],
    "TiVo": ["00:11:d9"],
    "Vizio": ["c4:e0:32"],
    "Keyco": ["ac:23:3f"],
    "Oxylink": ["10:52:1c"],
    "Renpho": ["cc:64:a6"],
    "Meta": ["88:25:08"],
    "ICSee": ["9c:a5:25"],
    "Lefun": ["38:01:46"],
    "Microseven": ["00:92:58"],
    "Ubell": ["ea:0b:cc"],
    "Wansview": ["78:a3:51"],
    "Yi": ["0c:8c:24"],
    "Echo-Aux": ["0c:47:c9"],
    "Lifx": ["d0:73:d5"],
}


class OuiRegistry:
    """Bidirectional OUI <-> vendor lookup and deterministic MAC allocation."""

    def __init__(self, table: Dict[str, List[str]] = None):
        self._vendor_to_ouis: Dict[str, List[str]] = dict(table or VENDOR_OUIS)
        self._oui_to_vendor: Dict[str, str] = {}
        for vendor, ouis in self._vendor_to_ouis.items():
            for oui in ouis:
                self._oui_to_vendor[oui.lower()] = vendor

    def vendor_of(self, mac) -> Optional[str]:
        """Look up the vendor for a MAC address (or OUI string)."""
        if isinstance(mac, str) and len(mac) == 8 and mac.count(":") == 2:
            return self._oui_to_vendor.get(mac.lower())
        return self._oui_to_vendor.get(MacAddress(mac).oui)

    def ouis_of(self, vendor: str) -> List[str]:
        return list(self._vendor_to_ouis.get(vendor, []))

    @property
    def vendors(self) -> List[str]:
        return sorted(self._vendor_to_ouis)

    def allocate_mac(self, vendor: str, rng: random.Random) -> MacAddress:
        """Allocate a random unicast MAC within one of the vendor's OUIs."""
        ouis = self._vendor_to_ouis.get(vendor)
        if not ouis:
            # Unknown vendor: allocate a locally-administered address.
            prefix = bytes([0x02, rng.randrange(256), rng.randrange(256)])
        else:
            prefix = bytes(int(part, 16) for part in rng.choice(ouis).split(":"))
        suffix = bytes(rng.randrange(256) for _ in range(3))
        return MacAddress(prefix + suffix)

    def register(self, vendor: str, oui: str) -> None:
        oui = oui.lower()
        self._vendor_to_ouis.setdefault(vendor, []).append(oui)
        self._oui_to_vendor[oui] = vendor


DEFAULT_OUI_REGISTRY = OuiRegistry()
