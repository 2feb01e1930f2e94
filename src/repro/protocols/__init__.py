"""Application-layer protocol codecs.

Each module implements the real wire format (or, for proprietary
protocols, the format documented by the reverse-engineering projects the
paper cites: softScheck's TP-Link dissector, TinyTuya) so that captures
produced by the simulator can be classified and mined for identifier
exposure exactly like real traffic.
"""

from repro.protocols.dns import DnsMessage, DnsQuestion, DnsRecord, DnsType
from repro.protocols.mdns import (
    MDNS_GROUP_V4,
    MDNS_PORT,
    mdns_query,
    ServiceAdvertisement,
)
from repro.protocols.ssdp import SsdpMessage, SSDP_GROUP_V4, SSDP_PORT
from repro.protocols.dhcp import DhcpMessage, DhcpMessageType, DhcpOption
from repro.protocols.coap import CoapMessage, CoapCode, CoapType
from repro.protocols.netbios import NetbiosNsQuery, encode_netbios_name, decode_netbios_name
from repro.protocols.tplink_shp import (
    tplink_decrypt,
    tplink_encrypt,
    TplinkShpMessage,
    TPLINK_SHP_PORT,
)
from repro.protocols.tuyalp import TuyaLpMessage, TUYA_PORTS
from repro.protocols.http import HttpRequest, HttpResponse
from repro.protocols.tls import TlsRecord, TlsHandshake, CertificateInfo
from repro.protocols.rtp import RtpPacket
from repro.protocols.stun import StunMessage

__all__ = [
    "DnsMessage",
    "DnsQuestion",
    "DnsRecord",
    "DnsType",
    "MDNS_GROUP_V4",
    "MDNS_PORT",
    "mdns_query",
    "ServiceAdvertisement",
    "SsdpMessage",
    "SSDP_GROUP_V4",
    "SSDP_PORT",
    "DhcpMessage",
    "DhcpMessageType",
    "DhcpOption",
    "CoapMessage",
    "CoapCode",
    "CoapType",
    "NetbiosNsQuery",
    "encode_netbios_name",
    "decode_netbios_name",
    "tplink_decrypt",
    "tplink_encrypt",
    "TplinkShpMessage",
    "TPLINK_SHP_PORT",
    "TuyaLpMessage",
    "TUYA_PORTS",
    "HttpRequest",
    "HttpResponse",
    "TlsRecord",
    "TlsHandshake",
    "CertificateInfo",
    "RtpPacket",
    "StunMessage",
]
