"""Unit tests for the DNS wire codec and mDNS helpers."""

import struct

import pytest

from repro.protocols.dns import (
    CLASS_IN,
    DnsMessage,
    DnsQuestion,
    DnsRecord,
    DnsType,
    decode_name,
    encode_name,
)
from repro.protocols.mdns import (
    ServiceAdvertisement,
    encode_advertisements,
    hue_instance_name,
    mdns_query,
    parse_mdns,
    reverse_v6_name,
    spotify_connect_path,
)


def merged_response(advertisements):
    """Several advertisements in one response, merged as the responders
    merged them before ``encode_advertisements``: every answer of each
    ``to_response()`` in order, then every additional."""
    message = DnsMessage(is_response=True, authoritative=True)
    for advertisement in advertisements:
        part = advertisement.to_response()
        message.answers.extend(part.answers)
        message.additionals.extend(part.additionals)
    return message


class TestNameCodec:
    def test_simple_roundtrip(self):
        wire = encode_name("device.local")
        name, offset = decode_name(wire, 0)
        assert name == "device.local"
        assert offset == len(wire)

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        assert decode_name(b"\x00", 0) == ("", 1)

    def test_compression_pointer(self):
        compression = {}
        first = encode_name("a.example.local", compression, 0)
        second = encode_name("b.example.local", compression, len(first))
        # second should reuse "example.local" via a pointer -> shorter
        assert len(second) < len(encode_name("b.example.local"))
        blob = first + second
        name, _ = decode_name(blob, len(first))
        assert name == "b.example.local"

    def test_pointer_loop_detected(self):
        # A pointer pointing at itself must not hang.
        blob = b"\xc0\x00"
        with pytest.raises(ValueError):
            decode_name(blob, 0)

    def test_label_too_long(self):
        with pytest.raises(ValueError):
            encode_name("x" * 64 + ".local")

    def test_truncated(self):
        with pytest.raises(ValueError):
            decode_name(b"\x05ab", 0)


def reference_encode_name(name, compression=None, offset=0):
    """``encode_name`` as it was: each suffix joined from its labels."""
    if name in ("", "."):
        return b"\x00"
    labels = name.rstrip(".").split(".")
    out = bytearray()
    for index in range(len(labels)):
        suffix = ".".join(labels[index:])
        if compression is not None and suffix in compression:
            pointer = compression[suffix]
            out += struct.pack("!H", 0xC000 | pointer)
            return bytes(out)
        if compression is not None and offset + len(out) < 0x3FFF:
            compression[suffix] = offset + len(out)
        label = labels[index].encode("utf-8")
        if len(label) > 63:
            raise ValueError(f"DNS label too long: {labels[index]!r}")
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


ENCODE_NAMES = [
    "", ".", "..", "...", "local", "local.", "local..", "device.local",
    "device.local.", "a..b", ".a", ".a.", "a.b.c.d.e.f", "café.local",
    "Jordan's Roku Express._roku._tcp.local", "_roku._tcp.local",
    "x" * 63 + ".local", "x" * 64, "a." + "x" * 64 + ".local",
    "a.b." + "é" * 32 + ".local", "local.local", "local.local.",
    "a.b.a.b", "b.a.b", "_tcp.local", "tcp.local", "Roku Tv - 0A0B0C._roku._tcp.local",
    "roku-0a0b0c.local", "roku-0a0b0c.local...", "é" * 31 + "e.local",
]


def reference_record_encode(record, compression=None, offset=0):
    """``DnsRecord.encode`` as it was, over ``reference_encode_name``."""
    rclass = record.rclass | (0x8000 if record.cache_flush else 0)
    head = reference_encode_name(record.name, compression, offset)
    return head + struct.pack("!HHIH", record.rtype, rclass, record.ttl,
                              len(record.rdata)) + record.rdata


def reference_question_encode(question, compression=None, offset=0):
    qclass = question.qclass | (0x8000 if question.unicast_response else 0)
    return reference_encode_name(question.name, compression, offset) + struct.pack(
        "!HH", question.qtype, qclass)


def reference_message_encode(message, compress=True):
    """``DnsMessage.encode`` as it was: one joined list of records."""
    flags = (0x8000 if message.is_response else 0) | (0x0400 if message.authoritative else 0)
    out = bytearray(struct.pack(
        "!HHHHHH", message.transaction_id, flags, len(message.questions),
        len(message.answers), len(message.authorities), len(message.additionals)))
    compression = {} if compress else None
    for question in message.questions:
        out += reference_question_encode(question, compression, len(out))
    for record in message.answers + message.authorities + message.additionals:
        out += reference_record_encode(record, compression, len(out))
    return bytes(out)


def _reference_messages():
    adverts = [
        ServiceAdvertisement("_roku._tcp.local", "Jordan's Roku Express - 0A0B0C",
                             "roku-0a0b0c.local", 8060, "192.168.1.77",
                             {"md": "Roku tv", "id": "01234567-89ab-cdef-0123-456789abcdef",
                              "mac": "d8:31:34:0a:0b:0c"}),
        ServiceAdvertisement("_hue._tcp.local", "Philips Hue - 685F61", "Philips-hue.local",
                             443, "192.168.10.12", {"bridgeid": "001788FFFE685F61"},
                             address_v6="fe80::217:88ff:fe68:5f61"),
        ServiceAdvertisement("_x._udp.local", "local", "local", 1, "10.0.0.1", {}),
    ]
    messages = [advert.to_response(transaction_id=index)
                for index, advert in enumerate(adverts)]
    messages.append(merged_response(adverts))
    mixed = mdns_query(["_roku._tcp.local", "_tcp.local", "local", "_roku._tcp.local."],
                       unicast_response=True, transaction_id=0xBEEF)
    mixed.answers.append(DnsRecord.ptr("_roku._tcp.local", "a.b._roku._tcp.local"))
    mixed.authorities.append(DnsRecord.a("ns.local", "192.168.10.1"))
    mixed.additionals.append(DnsRecord.txt("a.b._roku._tcp.local", {"k": "v", "flag": None}))
    messages.append(mixed)
    # A large TXT record pushes the later names past 0x3FFF: suffixes
    # first seen there cannot be pointed at, earlier ones still can.
    far = DnsMessage(is_response=True)
    far.answers.append(DnsRecord.ptr("_a._tcp.local", "one._a._tcp.local"))
    far.answers.append(DnsRecord("pad.local", DnsType.TXT, b"\x00" * (0x3FFF - 79)))
    for name in ("three.far.local", "two._a._tcp.local", "four.far.local",
                 "three.far.local", "pad.local", "x.y.z.far.local"):
        far.additionals.append(DnsRecord.a(name, "10.0.0.2"))
    messages.append(far)
    return messages




def _encode_outcome(encoder, name, compression, offset):
    try:
        return encoder(name, compression, offset), compression
    except ValueError as error:
        return str(error), compression


class TestEncodeNameReference:
    """``encode_name`` slices each suffix off the previous one; the
    bytes, errors and compression entries match the joining original."""

    @pytest.mark.parametrize("offset", [0, 12, 0x3FF0, 0x3FFB, 0x3FFE, 0x3FFF, 0x4000])
    def test_single_names(self, offset):
        for name in ENCODE_NAMES:
            assert (_encode_outcome(encode_name, name, None, offset)
                    == _encode_outcome(reference_encode_name, name, None, offset))
            assert (_encode_outcome(encode_name, name, {}, offset)
                    == _encode_outcome(reference_encode_name, name, {}, offset))

    @pytest.mark.parametrize("start", [0, 0x3FC0, 0x3FF8])
    def test_shared_compression_table(self, start):
        ours, theirs = {}, {}
        offset = start
        for name in ENCODE_NAMES * 2:
            mine = _encode_outcome(encode_name, name, ours, offset)
            assert mine == _encode_outcome(reference_encode_name, name, theirs, offset)
            if isinstance(mine[0], bytes):
                offset += len(mine[0])

    def test_label_too_long_message(self):
        with pytest.raises(ValueError, match=r"DNS label too long: 'x{64}'"):
            encode_name("a." + "x" * 64 + ".local", {})

    @pytest.mark.parametrize("offset", [0, 12, 0x3FF0, 0x3FFD, 0x3FFF, 0x4000])
    def test_records_and_questions(self, offset):
        for name in ENCODE_NAMES:
            record = DnsRecord(name, DnsType.TXT, b"\x03a=b", ttl=4500, cache_flush=True)
            question = DnsQuestion(name, DnsType.PTR, unicast_response=True)
            for item, reference in ((record, reference_record_encode),
                                    (question, reference_question_encode)):
                ours, theirs = {"local": 40}, {"local": 40}
                assert (_encode_outcome(lambda _, c, o: item.encode(c, o), name, ours, offset)
                        == _encode_outcome(lambda _, c, o: reference(item, c, o),
                                           name, theirs, offset))

    @pytest.mark.parametrize("compress", [True, False])
    def test_messages(self, compress):
        for message in _reference_messages():
            assert message.encode(compress) == reference_message_encode(message, compress)

    def test_message_label_too_long(self):
        message = _reference_messages()[0]
        message.additionals.append(DnsRecord.a("a." + "y" * 64 + ".local", "10.0.0.3"))
        for compress in (True, False):
            with pytest.raises(ValueError) as ours:
                message.encode(compress)
            with pytest.raises(ValueError) as theirs:
                reference_message_encode(message, compress)
            assert str(ours.value) == str(theirs.value) == f"DNS label too long: {'y' * 64!r}"


class TestRecords:
    def test_a_record(self):
        record = DnsRecord.a("host.local", "192.168.10.5")
        assert record.address() == "192.168.10.5"
        assert record.cache_flush

    def test_aaaa_record(self):
        record = DnsRecord.aaaa("host.local", "fe80::1")
        assert record.address() == "fe80::1"

    def test_ptr_record(self):
        record = DnsRecord.ptr("_hue._tcp.local", "Philips Hue - 685F61._hue._tcp.local")
        assert record.ptr_target() == "Philips Hue - 685F61._hue._tcp.local"

    def test_txt_record_roundtrip(self):
        record = DnsRecord.txt("x.local", {"bridgeid": "001788FFFE685F61", "modelid": "BSB002"})
        entries = record.txt_entries()
        assert entries["bridgeid"] == "001788FFFE685F61"
        assert entries["modelid"] == "BSB002"

    def test_empty_txt(self):
        record = DnsRecord.txt("x.local", {})
        assert record.txt_entries() == {}

    def test_srv_record(self):
        record = DnsRecord.srv("instance._hue._tcp.local", "hub.local", 443)
        assert record.srv_target() == ("hub.local", 443)

    def test_address_on_wrong_type(self):
        assert DnsRecord.ptr("a", "b").address() is None
        assert DnsRecord.a("a", "1.2.3.4").ptr_target() is None


class TestMessage:
    def test_query_roundtrip(self):
        message = DnsMessage(transaction_id=99)
        message.questions.append(DnsQuestion("_googlecast._tcp.local", DnsType.PTR))
        decoded = DnsMessage.decode(message.encode())
        assert decoded.transaction_id == 99
        assert not decoded.is_response
        assert decoded.questions[0].name == "_googlecast._tcp.local"
        assert decoded.questions[0].qtype == DnsType.PTR

    def test_qu_bit_roundtrip(self):
        message = DnsMessage()
        message.questions.append(DnsQuestion("x.local", DnsType.ANY, unicast_response=True))
        decoded = DnsMessage.decode(message.encode())
        assert decoded.questions[0].unicast_response
        assert decoded.questions[0].qclass == CLASS_IN

    def test_response_with_all_sections(self):
        message = DnsMessage(is_response=True, authoritative=True)
        message.answers.append(DnsRecord.ptr("_s._tcp.local", "i._s._tcp.local"))
        message.authorities.append(DnsRecord.a("ns.local", "192.168.10.1"))
        message.additionals.append(DnsRecord.a("i.local", "192.168.10.2"))
        decoded = DnsMessage.decode(message.encode())
        assert decoded.is_response and decoded.authoritative
        assert len(decoded.answers) == 1
        assert len(decoded.authorities) == 1
        assert len(decoded.additionals) == 1

    def test_compressed_encoding_smaller(self):
        message = DnsMessage(is_response=True)
        for index in range(5):
            message.answers.append(
                DnsRecord.ptr("_hue._tcp.local", f"instance-{index}._hue._tcp.local")
            )
        assert len(message.encode(compress=True)) < len(message.encode(compress=False))

    def test_compressed_ptr_rdata_decodes(self):
        message = DnsMessage(is_response=True)
        message.answers.append(DnsRecord.ptr("_hue._tcp.local", "bridge._hue._tcp.local"))
        decoded = DnsMessage.decode(message.encode(compress=True))
        assert decoded.answers[0].ptr_target() == "bridge._hue._tcp.local"

    def test_truncated(self):
        with pytest.raises(ValueError):
            DnsMessage.decode(b"\x00\x01")


class TestServiceAdvertisement:
    def _advert(self):
        return ServiceAdvertisement(
            service_type="_hue._tcp.local",
            instance_name="Philips Hue - 685F61",
            hostname="Philips-hue.local",
            port=443,
            address="192.168.10.12",
            txt={"bridgeid": "001788FFFE685F61"},
            address_v6="fe80::217:88ff:fe68:5f61",
        )

    def test_roundtrip(self):
        message = self._advert().to_response()
        parsed = ServiceAdvertisement.from_response(DnsMessage.decode(message.encode()))
        assert len(parsed) == 1
        advert = parsed[0]
        assert advert.instance_name == "Philips Hue - 685F61"
        assert advert.hostname == "Philips-hue.local"
        assert advert.port == 443
        assert advert.address == "192.168.10.12"
        assert advert.address_v6 == "fe80::217:88ff:fe68:5f61"

    def test_merged_response(self):
        adverts = [self._advert(), ServiceAdvertisement(
            "_airplay._tcp.local", "Apple TV", "appletv.local", 7000, "192.168.10.13")]
        parsed = ServiceAdvertisement.from_response(
            DnsMessage.decode(encode_advertisements(adverts)))
        assert {advert.service_type for advert in parsed} == {
            "_hue._tcp.local", "_airplay._tcp.local"
        }

    def test_query_builder(self):
        message = mdns_query(["_a._tcp.local", "_b._tcp.local"], unicast_response=True)
        assert len(message.questions) == 2
        assert all(question.unicast_response for question in message.questions)


class TestParseMdns:
    def test_one_shared_message_per_payload(self):
        payload = mdns_query(["_hue._tcp.local"]).encode()
        message = parse_mdns(payload)
        assert message == DnsMessage.decode(payload)
        assert parse_mdns(bytes(bytearray(payload))) is message  # equal bytes, another object
        # The codec itself remembers nothing.
        assert DnsMessage.decode(payload) is not DnsMessage.decode(payload)

    @pytest.mark.parametrize("payload", [b"", b"\x00" * 11, b"\x00\x01garbage"])
    def test_undecodable_payload_is_none(self, payload):
        assert parse_mdns(payload) is None


class TestNamingSchemes:
    def test_hue_instance_embeds_mac_suffix(self):
        assert hue_instance_name("00:17:88:68:5f:61") == "Philips Hue - 685F61"

    def test_spotify_zeroconf_path(self):
        path = spotify_connect_path("00:17:88:68:5f:61", "dev42", "session-uuid")
        assert "001788685f61" in path
        assert "dev42" in path and "session-uuid" in path

    def test_reverse_v6_name_contains_mac_nibbles(self):
        name = reverse_v6_name("00:17:88:68:5f:61")
        assert name.endswith(".ip6.arpa")
        # The Table 5 example: nibbles of the EUI-64 in reverse.
        assert name.startswith("1.6.F.5.8.6.E.F.F.F.8.8.7.1.2.0")
