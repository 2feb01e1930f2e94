"""``encode_advertisements`` against the records it replaced.

The reference is ``merged_response(adverts).encode()``: every
advertisement's ``to_response()`` answers and then its additionals,
merged as the responders merged them, encoded by ``DnsMessage``.  The
writer must give the same bytes, or raise the same error, for every
set a lab device or the honeypot answers with, the Matter adverts, and
generated adverts: dotted instance names, TXT values that are ``None``,
empty or over 255 bytes, labels over 63 bytes, and messages long enough
that names start past 0x3FFF, where they can no longer be pointed at.
"""

import itertools
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.behaviors import build_testbed
from repro.devices.catalog import build_catalog
from repro.honeypot.mdns import MdnsHoneypot
from repro.protocols.dns import DnsMessage, _POINTER, txt_rdata
from repro.protocols.mdns import ServiceAdvertisement, encode_advertisements
from repro.simnet.lan import Lan
from repro.simnet.simulator import Simulator
from tests.protocols.test_dns_mdns import ENCODE_NAMES, merged_response

META_QUERY = "_services._dns-sd._udp.local"


def outcome(encoder, adverts):
    try:
        return encoder(adverts)
    except (ValueError, struct.error) as error:
        return type(error), str(error)


def reference(adverts):
    return merged_response(adverts).encode()


def assert_same(adverts):
    ours = outcome(encode_advertisements, adverts)
    assert ours == outcome(reference, adverts)
    return ours


def _answering(adverts, asked):
    """The responders' selection: the asked types, or all on the meta-query."""
    return [advert for advert in adverts if advert.service_type in asked or META_QUERY in asked]


@pytest.fixture(scope="module")
def lab():
    return build_testbed(seed=7)


#: Every service type a catalog profile advertises, and the meta-query.
QUERIED = sorted({service_type for profile in build_catalog() if profile.mdns
                  for service_type, _scheme, _port, _txt in profile.mdns.advertise})
QUERIED.append(META_QUERY)


def test_lab_answer_sets(lab):
    sets = merged = with_v6 = 0
    for node in lab.devices:
        adverts = node.mdns_advertisements()
        for asked in QUERIED:
            matching = _answering(adverts, {asked})
            if matching:
                assert isinstance(assert_same(matching), bytes)
                sets += 1
                merged += len(matching) > 1
                with_v6 += any(advert.address_v6 for advert in matching)
    assert sets > 40 and merged and with_v6


def test_lab_announcements(lab):
    """What ``_announce_mdns`` and ``_announce_matter`` send is the
    reference encoding of the advertisement it announces."""
    sent = []
    matter = 0
    for node in lab.devices:
        # A device without a DHCP host name draws a random one per call.
        adverts = node.mdns_advertisements()
        node.mdns_advertisements = lambda: adverts
        node.send_udp = lambda dst, port, payload, **kw: sent.append(payload)
        node.send_udp6 = lambda dst, port, payload, **kw: sent.append(payload)
        try:
            if node.profile.mdns and node.profile.mdns.advertise:
                before = len(sent)
                node._announce_mdns()
                assert sent[before:] == [reference([advert]) for advert in adverts]
            if node.profile.matter and node.profile.supports_ipv6:
                node._announce_matter()
                (advert,) = ServiceAdvertisement.from_response(DnsMessage.decode(sent[-1]))
                assert advert.service_type == "_matter._tcp.local" and advert.address_v6
                assert sent[-1] == reference([advert])
                matter += 1
        finally:
            del node.mdns_advertisements, node.send_udp, node.send_udp6
    assert matter and len(sent) > 40


def test_honeypot_answer_sets():
    honeypot = MdnsHoneypot().attach_to(Lan(Simulator()))
    adverts = honeypot.advertisements("hp-honeypot-mdns-000001")
    served = MdnsHoneypot.SERVED_TYPES
    for size in range(1, len(served) + 1):
        for wanted in itertools.combinations(served, size):
            matching = _answering(adverts, wanted)
            assert matching
            assert isinstance(assert_same(matching), bytes)


# -- generated advertisements --------------------------------------------------

#: Label characters: ASCII, two- and three-byte UTF-8 and a quote.  The
#: sampled names add a lone surrogate, which UTF-8 cannot encode.
LABEL_CHARS = "abcXYZ019-_ 'é世"
SHORT_LABEL = st.text(alphabet=LABEL_CHARS, max_size=8)
LONG_LABEL = st.text(alphabet=LABEL_CHARS, min_size=20, max_size=70)  # may pass 63 bytes
LABEL = st.integers(0, 11).flatmap(lambda pick: LONG_LABEL if pick == 0 else SHORT_LABEL)
NAME = st.lists(LABEL, min_size=1, max_size=4).map(".".join) | st.sampled_from(
    ENCODE_NAMES + QUERIED + ["a\ud800b.local"])
SERVICE_TYPE = st.sampled_from(QUERIED[:-1] + ["_x._udp.local", "local", "", "."]) | NAME
TEXT = st.text(alphabet=LABEL_CHARS + "=.", max_size=12)
TXT_VALUE = st.none() | st.just("") | TEXT | st.text(alphabet="ab世", min_size=86, max_size=300)
TXT = st.dictionaries(TEXT, TXT_VALUE, max_size=4)
ADDRESS_V6 = st.none() | st.just("") | st.ip_addresses(v=6).map(str)

# Bad addresses and ports are left to test_bad_advert_raises_the_reference_error.
ADVERT = st.builds(ServiceAdvertisement, service_type=SERVICE_TYPE, instance_name=NAME,
                   hostname=NAME, port=st.integers(0, 65535),
                   address=st.ip_addresses(v=4).map(str), txt=TXT, address_v6=ADDRESS_V6)


def _padding(count):
    """``count`` adverts of about 1.1 KB each (four 255-byte TXT strings),
    sharing two service types and two host names, so that the names of a
    long message start both before and after 0x3FFF."""
    return [ServiceAdvertisement(
        f"_pad{index % 2}._tcp.local", f"Pad {index}", f"pad-{index % 2}.local", 9,
        "10.0.0.9", {f"k{key}": "v" * 260 for key in range(4)},
        address_v6="fe80::9" if index % 3 == 0 else None) for index in range(count)]


@settings(max_examples=400, deadline=None)
@given(adverts=st.lists(ADVERT, max_size=5), padding=st.sampled_from([0, 0, 0, 13, 14, 15, 20]),
       tail=st.booleans())
@example(adverts=[ServiceAdvertisement("_hue._tcp.local", "Hue.Bridge.1", "hue.local", 80,
                                       "10.0.0.1", {"flag": None, "empty": "", "long": "x" * 300})],
         padding=0, tail=False)
@example(adverts=[ServiceAdvertisement("_a._tcp.local", "x" * 64, "h.local", 1, "10.0.0.1")],
         padding=0, tail=False)
def test_generated_adverts(adverts, padding, tail):
    pads = _padding(padding)
    adverts = adverts + pads if tail else pads + adverts
    assert_same(adverts)


def test_long_message_passes_0x3fff():
    """Names first written past 0x3FFF are written out again; names first
    written before it are still pointed at."""
    adverts = _padding(20) + [ServiceAdvertisement(
        "_pad0._tcp.local", "Late", "late.local", 9, "10.0.0.9", {"k": "v"},
        address_v6="fe80::1")]
    payload = assert_same(adverts)
    assert len(payload) > 0x4000
    assert payload.index(b"\x04Late") > 0x3FFF
    # The SRV and TXT owners both spell the instance's first label out,
    # then point at the service type written at offset 12.
    assert payload.count(b"\x04Late" + _POINTER(0xC000 | 12)) == 2
    # So do the A and AAAA owners, pointing at the first "local".
    assert payload.count(b"\x04late" + _POINTER(0xC000 | payload.index(b"\x05local"))) == 2


@pytest.mark.parametrize("advert", [
    ServiceAdvertisement("_a._tcp.local", "x" * 64, "h.local", 1, "10.0.0.1"),
    ServiceAdvertisement("_" + "y" * 63 + "._tcp.local", "x" * 64, "h.local", 1, "10.0.0.1"),
    ServiceAdvertisement("_a._tcp.local", "ok", "h" * 64 + ".local", 1, "10.0.0.1"),
    ServiceAdvertisement("_a._tcp.local", "x" * 64, "h.local", 1, "10.0.0.300"),
    ServiceAdvertisement("_a._tcp.local", "x" * 64, "h.local", 1, "10.0.0.1", address_v6="fe80::g"),
    ServiceAdvertisement("_a._tcp.local", "ok", "h.local", 65536, "10.0.0.1"),
])
def test_bad_advert_raises_the_reference_error(advert):
    good = ServiceAdvertisement("_b._tcp.local", "fine", "b.local", 2, "10.0.0.2")
    for adverts in ([advert], [good, advert], [advert, good]):
        error = assert_same(adverts)
        assert isinstance(error, tuple), error


@pytest.mark.parametrize("entries, rdata", [
    ({}, b"\x00"),
    ({"flag": None, "empty": ""}, b"\x04flag\x06empty="),
    # One string is cut to 255 bytes, even inside a UTF-8 character.
    ({"k": "\u00e9" * 200}, bytes([255]) + ("k=" + "\u00e9" * 200).encode("utf-8")[:255]),
], ids=["no-entries", "none-and-empty", "over-255-bytes"])
def test_txt_rdata(entries, rdata):
    assert txt_rdata(entries) == rdata
    advert = ServiceAdvertisement("_a._tcp.local", "i", "h.local", 1, "10.0.0.1", entries)
    assert rdata in encode_advertisements([advert])
