"""Unit tests for the MAC address type."""

import random

import pytest

from repro.net.mac import (
    BROADCAST_MAC,
    MDNS_V4_MAC,
    SSDP_V4_MAC,
    MacAddress,
    ipv4_multicast_mac,
    ipv6_multicast_mac,
)


class TestParsing:
    def test_colon_separated(self):
        mac = MacAddress("9c:8e:cd:0a:33:1b")
        assert str(mac) == "9c:8e:cd:0a:33:1b"

    def test_dash_separated(self):
        assert str(MacAddress("9C-8E-CD-0A-33-1B")) == "9c:8e:cd:0a:33:1b"

    def test_bare_hex(self):
        assert str(MacAddress("9c8ecd0a331b")) == "9c:8e:cd:0a:33:1b"

    def test_from_bytes(self):
        assert str(MacAddress(b"\x9c\x8e\xcd\x0a\x33\x1b")) == "9c:8e:cd:0a:33:1b"

    def test_from_int(self):
        assert str(MacAddress(0x9C8ECD0A331B)) == "9c:8e:cd:0a:33:1b"

    def test_str_matches_per_byte_format(self):
        rng = random.Random(48)
        values = [bytes(6), b"\xff" * 6] + [rng.randbytes(6) for _ in range(5000)]
        for value in values:
            assert str(MacAddress(value)) == ":".join(f"{byte:02x}" for byte in value)

    def test_from_mac(self):
        original = MacAddress("9c:8e:cd:0a:33:1b")
        assert MacAddress(original) == original

    @pytest.mark.parametrize(
        "bad",
        ["", "9c:8e:cd", "zz:zz:zz:zz:zz:zz", "9c:8e:cd:0a:33:1b:ff", "9c8ecd0a331"],
    )
    def test_invalid_strings(self, bad):
        with pytest.raises(ValueError):
            MacAddress(bad)

    def test_wrong_byte_length(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x01\x02\x03")

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            MacAddress(3.14)


class TestProperties:
    def test_oui_and_suffix(self):
        mac = MacAddress("00:17:88:68:5f:61")
        assert mac.oui == "00:17:88"
        assert mac.nic_suffix == "68:5f:61"

    def test_broadcast(self):
        assert BROADCAST_MAC.is_broadcast
        assert BROADCAST_MAC.is_multicast
        assert not MacAddress("00:17:88:68:5f:61").is_broadcast

    def test_multicast_ig_bit(self):
        assert MacAddress("01:00:5e:00:00:fb").is_multicast
        assert MacAddress("00:17:88:68:5f:61").is_unicast

    def test_locally_administered(self):
        assert MacAddress("02:00:00:00:00:01").is_locally_administered
        assert not MacAddress("00:17:88:68:5f:61").is_locally_administered

    def test_compact(self):
        assert MacAddress("9c:8e:cd:0a:33:1b").compact() == "9c8ecd0a331b"

    def test_packed_roundtrip(self):
        mac = MacAddress("9c:8e:cd:0a:33:1b")
        assert MacAddress(mac.packed) == mac

    def test_int_roundtrip(self):
        mac = MacAddress("9c:8e:cd:0a:33:1b")
        assert MacAddress(int(mac)) == mac


class TestComparison:
    def test_equality_with_string(self):
        assert MacAddress("9c:8e:cd:0a:33:1b") == "9C:8E:CD:0A:33:1B"

    def test_equality_with_bad_string(self):
        assert not MacAddress("9c:8e:cd:0a:33:1b") == "not-a-mac"

    def test_ordering(self):
        assert MacAddress("00:00:00:00:00:01") < MacAddress("00:00:00:00:00:02")

    def test_hashable(self):
        macs = {MacAddress("9c:8e:cd:0a:33:1b"), MacAddress("9c8ecd0a331b")}
        assert len(macs) == 1


class TestMulticastMapping:
    def test_mdns_group(self):
        assert ipv4_multicast_mac("224.0.0.251") == MDNS_V4_MAC

    def test_ssdp_group(self):
        assert ipv4_multicast_mac("239.255.255.250") == SSDP_V4_MAC

    def test_low_23_bits_only(self):
        # 239.255.x and 238.127.x map to the same MAC (RFC 1112 ambiguity)
        assert ipv4_multicast_mac("239.255.255.250") == ipv4_multicast_mac("238.127.255.250")

    def test_non_multicast_rejected(self):
        with pytest.raises(ValueError):
            ipv4_multicast_mac("192.168.1.1")

    def test_ipv6_mapping(self):
        assert str(ipv6_multicast_mac("ff02::fb")) == "33:33:00:00:00:fb"

    def test_ipv6_non_multicast_rejected(self):
        with pytest.raises(ValueError):
            ipv6_multicast_mac("fe80::1")
