"""``_mdns_responder``'s header pre-check changes no frame.

Every stack on the LAN receives each mDNS multicast, and most of them
are responses that no stack answers.  The responder therefore returns
before ``DnsMessage.decode`` when a payload is shorter than the 12-byte
DNS header or has the QR (response) bit set.  ``reference_responder``
below is the responder without that check: it decodes first and then
drops responses.  Over the lab capture's real mDNS queries and
responses, their mutation-fuzz variants and payloads of 0-11 bytes, both
must send exactly the same frames (or raise the same error) and draw the
same random numbers, from every device that answers mDNS.
"""

import dataclasses
import random

import pytest

from repro.devices.behaviors import _mdns_responder, build_testbed
from repro.net.decode import decode_frame
from repro.protocols.dns import DnsMessage
from repro.protocols.mdns import MDNS_GROUP_V4, MDNS_PORT
from tests.faults.test_mutation_fuzz import _mutations


def reference_responder(node, packet):
    """The mDNS responder as it was before the pre-check."""
    try:
        message = DnsMessage.decode(packet.udp.payload)
    except ValueError:
        return
    if message.is_response or not message.questions:
        return
    config = node.profile.mdns
    advertisements = node.mdns_advertisements()
    wanted = {question.name for question in message.questions}
    matching = [
        advert
        for advert in advertisements
        if advert.service_type in wanted or "_services._dns-sd._udp.local" in wanted
    ]
    if not matching:
        return
    response = DnsMessage(is_response=True, authoritative=True)
    for advert in matching:
        part = advert.to_response()
        response.answers.extend(part.answers)
        response.additionals.extend(part.additionals)
    unicast_wanted = any(question.unicast_response for question in message.questions)
    if unicast_wanted and config.respond_unicast:
        node.send_udp(packet.src_ip, packet.udp.src_port, response.encode(), src_port=MDNS_PORT)
    elif config.respond_multicast:
        node.send_udp(MDNS_GROUP_V4, MDNS_PORT, response.encode(), src_port=MDNS_PORT)


def outcome(responder, node, packet):
    """The frames ``responder`` sends for ``packet``, any error type, and
    the node's random state afterwards (random host names draw from it).
    The node is left as it was found."""
    sent = []
    state = node.rng.getstate()
    # ``layers`` (what the frame was encoded from) ride beside the bytes;
    # the bytes alone say which frame was sent.
    node.send_frame = lambda dst_mac, ethertype, payload, **layers: sent.append(
        (str(dst_mac), ethertype, payload))
    try:
        responder(node, packet)
        error = None
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        error = type(exc)
    finally:
        del node.send_frame
        after = node.rng.getstate()
        node.rng.setstate(state)
    return sent, error, after


def _is_response(payload):
    return len(payload) > 2 and bool(payload[2] & 0x80)


def _with_payload(packet, payload):
    return dataclasses.replace(packet, udp=dataclasses.replace(packet.udp, payload=payload))


@pytest.fixture(scope="module")
def lab_mdns(lab_records):
    """One packet per distinct mDNS payload in the lab capture."""
    packets = {}
    for timestamp, data in lab_records:
        packet = decode_frame(data, timestamp)
        if packet.udp is not None and packet.udp.dst_port == MDNS_PORT:
            packets.setdefault(packet.udp.payload, packet)
    queries = [p for p in packets.values() if not _is_response(p.udp.payload)]
    responses = [p for p in packets.values() if _is_response(p.udp.payload)]
    assert queries and responses
    return queries, responses


@pytest.fixture(scope="module")
def cases(lab_mdns):
    """(packet) cases: real payloads, fuzz variants, 0-11 byte payloads."""
    queries, responses = lab_mdns
    out = list(queries) + list(responses)
    rng = random.Random("fuzz:mdns-precheck")
    # Every query and every 32nd response, damaged by the fuzz mutators.
    for packet in queries + responses[::32]:
        rounds = 60 if packet in queries else 8
        for mutated in _mutations(rng, packet.udp.payload, rounds=rounds):
            out.append(_with_payload(packet, mutated))
    # The QR bit flipped both ways on every real payload.
    for packet in queries + responses:
        payload = bytearray(packet.udp.payload)
        payload[2] ^= 0x80
        out.append(_with_payload(packet, bytes(payload)))
    # Payloads shorter than the DNS header.
    for length in range(12):
        for packet in queries + responses[:4]:
            out.append(_with_payload(packet, packet.udp.payload[:length]))
        out.append(_with_payload(queries[0], bytes(length)))
        out.append(_with_payload(queries[0], b"\xff" * length))
    return out


@pytest.fixture(scope="module")
def responders(lab_mdns):
    """mDNS devices of a fresh seed-7 lab: one per distinct configuration
    (unicast/multicast policy and advertised types) that answers a real
    query, plus one that answers none."""
    queries, _responses = lab_mdns
    testbed = build_testbed(seed=7)
    answering, silent = {}, []
    for node in testbed.devices:
        config = node.profile.mdns
        if not config:
            continue
        if any(outcome(reference_responder, node, packet)[0] for packet in queries):
            kind = (config.respond_unicast, config.respond_multicast,
                    tuple(sorted(advert[0] for advert in config.advertise)))
            answering.setdefault(kind, node)
        else:
            silent.append(node)
    assert answering and silent
    return list(answering.values()) + silent[:1]


def test_precheck_sends_the_reference_frames(cases, responders):
    answered = skipped = unicast = 0
    for node in responders:
        for packet in cases:
            expected = outcome(reference_responder, node, packet)
            assert outcome(_mdns_responder, node, packet) == expected, (
                node.name, packet.udp.payload.hex())
            frames = expected[0]
            answered += bool(frames)
            unicast += any(dst != "01:00:5e:00:00:fb" for dst, _type, _payload in frames)
            skipped += len(packet.udp.payload) < 12 or _is_response(packet.udp.payload)
    # The corpus reaches both sides of the check, and both answer paths.
    assert answered and skipped and unicast
