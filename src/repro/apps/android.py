"""The Android permission model relevant to local network data (§2.1).

Encodes the access-control matrix the paper demonstrates with its PoC
app: SSID/BSSID access requires location permissions (Android 9-12) or
NEARBY_WIFI_DEVICES (13+), while NsdManager mDNS/SSDP discovery needs
only INTERNET + CHANGE_WIFI_MULTICAST_STATE — neither of which is a
"dangerous" permission, which is precisely the side channel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Set


class AndroidPermission(str, enum.Enum):
    INTERNET = "android.permission.INTERNET"
    CHANGE_WIFI_MULTICAST_STATE = "android.permission.CHANGE_WIFI_MULTICAST_STATE"
    ACCESS_WIFI_STATE = "android.permission.ACCESS_WIFI_STATE"
    ACCESS_COARSE_LOCATION = "android.permission.ACCESS_COARSE_LOCATION"
    ACCESS_FINE_LOCATION = "android.permission.ACCESS_FINE_LOCATION"
    NEARBY_WIFI_DEVICES = "android.permission.NEARBY_WIFI_DEVICES"


#: Permissions that require explicit user consent at runtime.
DANGEROUS_PERMISSIONS = {
    AndroidPermission.ACCESS_COARSE_LOCATION,
    AndroidPermission.ACCESS_FINE_LOCATION,
    AndroidPermission.NEARBY_WIFI_DEVICES,
}


class AndroidApi(str, enum.Enum):
    """Permission-protected APIs the instrumented runtime tracks."""

    WIFI_INFO_GET_SSID = "WifiInfo.getSSID"
    WIFI_INFO_GET_BSSID = "WifiInfo.getBSSID"
    WIFI_INFO_GET_MAC = "WifiInfo.getMacAddress"
    NSD_DISCOVER_SERVICES = "NsdManager.discoverServices"
    MULTICAST_LOCK = "WifiManager.MulticastLock.acquire"
    LOCATION_GET_LAST = "FusedLocation.getLastLocation"
    ADVERTISING_ID = "AdvertisingIdClient.getAdvertisingIdInfo"
    RAW_SOCKET = "socket(AF_PACKET)"


class AndroidVersion(enum.IntEnum):
    PIE = 9  # the instrumented AppCensus build (§3.2)
    TIRAMISU = 13  # the PoC build (§2.1)


class PermissionDenied(Exception):
    """Raised when an API call lacks the required runtime permission."""

    def __init__(self, api: AndroidApi, required: List[AndroidPermission]):
        self.api = api
        self.required = required
        names = ", ".join(permission.name for permission in required)
        super().__init__(f"{api.value} requires one of: {names}")


@dataclass
class PermissionModel:
    """API -> required permissions for a given Android version."""

    version: AndroidVersion = AndroidVersion.PIE

    def required_for(self, api: AndroidApi) -> List[List[AndroidPermission]]:
        """Permission alternatives (outer list = OR, inner = AND)."""
        if api in (AndroidApi.WIFI_INFO_GET_SSID, AndroidApi.WIFI_INFO_GET_BSSID):
            if self.version >= AndroidVersion.TIRAMISU:
                return [[AndroidPermission.NEARBY_WIFI_DEVICES]]
            return [
                [AndroidPermission.ACCESS_WIFI_STATE, AndroidPermission.ACCESS_COARSE_LOCATION],
                [AndroidPermission.ACCESS_WIFI_STATE, AndroidPermission.ACCESS_FINE_LOCATION],
            ]
        if api is AndroidApi.WIFI_INFO_GET_MAC:
            # Returns 02:00:00:00:00:00 since Android 6 regardless; the
            # real MAC is only reachable via side channels.
            return [[AndroidPermission.ACCESS_WIFI_STATE]]
        if api is AndroidApi.NSD_DISCOVER_SERVICES:
            # The §2.1 PoC: neither permission is "dangerous".
            return [[AndroidPermission.INTERNET, AndroidPermission.CHANGE_WIFI_MULTICAST_STATE]]
        if api is AndroidApi.MULTICAST_LOCK:
            return [[AndroidPermission.CHANGE_WIFI_MULTICAST_STATE]]
        if api is AndroidApi.LOCATION_GET_LAST:
            return [
                [AndroidPermission.ACCESS_COARSE_LOCATION],
                [AndroidPermission.ACCESS_FINE_LOCATION],
            ]
        if api is AndroidApi.ADVERTISING_ID:
            return [[]]  # no permission required (resettable ad ID)
        if api is AndroidApi.RAW_SOCKET:
            return [[AndroidPermission.INTERNET]]  # and root, modeled as denied
        return [[]]

    def check(self, api: AndroidApi, granted: Set[AndroidPermission]) -> bool:
        alternatives = self.required_for(api)
        return any(all(permission in granted for permission in group) for group in alternatives)

    def enforce(self, api: AndroidApi, granted: Set[AndroidPermission]) -> None:
        if api is AndroidApi.RAW_SOCKET:
            # Raw packet access needs root regardless of permissions (§4.3).
            raise PermissionDenied(api, [AndroidPermission.INTERNET])
        if not self.check(api, granted):
            flattened = [p for group in self.required_for(api) for p in group]
            raise PermissionDenied(api, flattened)

    @staticmethod
    def is_dangerous(permission: AndroidPermission) -> bool:
        return permission in DANGEROUS_PERMISSIONS
