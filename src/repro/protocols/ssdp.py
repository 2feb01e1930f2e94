"""SSDP / UPnP discovery codec.

SSDP is HTTP-like text over UDP 1900.  §5.1: 32% of devices use it; 26
of 30 send M-SEARCH, 7 send NOTIFY, 9 respond to multicast searches.
Devices expose UUIDs, OS versions, and UPnP stack versions in the
SERVER/USN headers, and the device-description XML (fetched over HTTP
from the LOCATION URL) carries friendly names and serial numbers — the
Table 5 Amcrest example puts the MAC address in ``<serialNumber>``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from repro.net.guard import guarded_decode

SSDP_PORT = 1900
SSDP_GROUP_V4 = "239.255.255.250"

ST_ALL = "ssdp:all"
ST_ROOT_DEVICE = "upnp:rootdevice"
ST_IGD = "urn:schemas-upnp-org:device:InternetGatewayDevice:1"
ST_MEDIA_RENDERER = "urn:schemas-upnp-org:device:MediaRenderer:1"
ST_BASIC_DEVICE = "urn:schemas-upnp-org:device:Basic:1"
ST_DIAL = "urn:dial-multiscreen-org:service:dial:1"


class SsdpMethod(enum.Enum):
    MSEARCH = "M-SEARCH"
    NOTIFY = "NOTIFY"
    RESPONSE = "RESPONSE"


@dataclass
class SsdpMessage:
    """An SSDP M-SEARCH, NOTIFY, or 200 OK response."""

    method: SsdpMethod
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        if self.method is SsdpMethod.RESPONSE:
            start_line = "HTTP/1.1 200 OK\r\n"
        else:
            start_line = f"{self.method.value} * HTTP/1.1\r\n"
        headers = "".join([f"{key}: {value}\r\n" for key, value in self.headers.items()])
        return f"{start_line}{headers}\r\n".encode("utf-8")

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "SsdpMessage":
        text = data.decode("utf-8", "replace")
        lines = text.split("\r\n")
        if not lines or not lines[0]:
            raise ValueError("empty SSDP message")
        start = lines[0].strip()
        if start.startswith("M-SEARCH"):
            method = SsdpMethod.MSEARCH
        elif start.startswith("NOTIFY"):
            method = SsdpMethod.NOTIFY
        elif start.startswith("HTTP/1.1 200"):
            method = SsdpMethod.RESPONSE
        else:
            raise ValueError(f"not an SSDP message: {start!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line.strip():
                break
            key, sep, value = line.partition(":")
            if sep:
                headers[key.strip().upper()] = value.strip()
        return cls(method=method, headers=headers)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def msearch(cls, search_target: str = ST_ALL, mx: int = 3, user_agent: str = None) -> "SsdpMessage":
        headers = {
            "HOST": f"{SSDP_GROUP_V4}:{SSDP_PORT}",
            "MAN": '"ssdp:discover"',
            "MX": str(mx),
            "ST": search_target,
        }
        if user_agent:
            headers["USER-AGENT"] = user_agent
        return cls(SsdpMethod.MSEARCH, headers)

    @classmethod
    def notify(
        cls,
        location: str,
        notification_type: str,
        usn: str,
        server: str,
        host: str = f"{SSDP_GROUP_V4}:{SSDP_PORT}",
    ) -> "SsdpMessage":
        return cls(
            SsdpMethod.NOTIFY,
            {
                "HOST": host,
                "CACHE-CONTROL": "max-age=1800",
                "LOCATION": location,
                "NT": notification_type,
                "NTS": "ssdp:alive",
                "SERVER": server,
                "USN": usn,
            },
        )

    @classmethod
    def response(cls, location: str, search_target: str, usn: str, server: str) -> "SsdpMessage":
        return cls(
            SsdpMethod.RESPONSE,
            {
                "CACHE-CONTROL": "max-age=1800",
                "EXT": "",
                "LOCATION": location,
                "SERVER": server,
                "ST": search_target,
                "USN": usn,
            },
        )

    @property
    def search_target(self) -> Optional[str]:
        return self.headers.get("ST") or self.headers.get("NT")

    @property
    def usn(self) -> Optional[str]:
        return self.headers.get("USN")

    @property
    def server(self) -> Optional[str]:
        return self.headers.get("SERVER")

    @property
    def location(self) -> Optional[str]:
        return self.headers.get("LOCATION")

    def uuid(self) -> Optional[str]:
        """Extract the uuid:... token from the USN header, if present."""
        usn = self.usn
        if not usn or "uuid:" not in usn:
            return None
        token = usn.split("uuid:", 1)[1]
        return token.split(":", 1)[0]


def device_description_xml(
    friendly_name: str,
    manufacturer: str,
    model_name: str,
    udn: str,
    serial_number: str = "",
    services: List[str] = (),
    presentation_url: str = "",
) -> str:
    """Render the UPnP device-description document served at LOCATION.

    Matches the structure of the Table 5 Amcrest SSDP example, where the
    MAC address appears verbatim in ``<serialNumber>``.
    """
    service_xml = "\n".join(
        f"    <service><serviceType>{service}</serviceType></service>" for service in services
    )
    presentation = (
        f"  <presentationURL>{presentation_url}</presentationURL>\n" if presentation_url else ""
    )
    return (
        '<?xml version="1.0" ?>\n'
        '<root xmlns="urn:schemas-upnp-org:device-1-0">\n'
        " <device>\n"
        f"  <friendlyName>{friendly_name}</friendlyName>\n"
        f"  <manufacturer>{manufacturer}</manufacturer>\n"
        f"  <modelName>{model_name}</modelName>\n"
        f"  <serialNumber>{serial_number}</serialNumber>\n"
        f"  <UDN>uuid:{udn}</UDN>\n"
        f"{presentation}"
        "  <serviceList>\n"
        f"{service_xml}\n"
        "  </serviceList>\n"
        " </device>\n"
        "</root>\n"
    )
