"""The seed-7 passive run, pinned byte for byte.

A 120 s passive run of the study (the 93-device lab plus the honeypot
farm) carries every kind of mDNS frame the simulator writes: the
devices' announcements, their answers to queries, Matter adverts over
IPv6, the honeypot's marked answers.  perfbench pins the 300 s capture;
this pin puts the same bytes under tier-1, so a responder or
announcement byte that moves fails here.
"""

import dataclasses
import hashlib
import json
import struct

import pytest

from repro.core.pipeline import StudyPipeline
from repro.net.decode import decode_frame
from repro.protocols.mdns import MDNS_PORT

#: SHA-256 over every capture record of the run: its timestamp and
#: length (``<dI``) and then its bytes, as perfbench digests a capture.
CAPTURE_SHA256 = "099ca803ff79bc5d9cafe02faff803a9e5d1911c59a17ca551755c483a1f6cd9"

#: SHA-256 over the honeypot log: one sorted-key JSON line per event.
#: Both digests were computed with the responders as they were before
#: ``encode_advertisements`` wrote their answers.
HONEYPOT_LOG_SHA256 = "3e02f9ba6cee90cf7d9715fb94e1ba7bde84b95ae5ba1ced343419e132f9b32f"


@pytest.fixture(scope="module")
def passive_run():
    pipeline = StudyPipeline(seed=7, passive_duration=120.0)
    pipeline.build()
    pipeline.collect_passive()
    return pipeline.testbed.lan.capture.records, pipeline.farm.log.events


def test_capture_records_are_pinned(passive_run):
    records, _events = passive_run
    digest = hashlib.sha256()
    mdns = 0
    for timestamp, data in records:
        digest.update(struct.pack("<dI", timestamp, len(data)))
        digest.update(data)
        udp = decode_frame(data, timestamp).udp
        mdns += udp is not None and MDNS_PORT in (udp.src_port, udp.dst_port)
    assert (len(records), mdns) == (4050, 1217)
    assert digest.hexdigest() == CAPTURE_SHA256


def test_honeypot_log_is_pinned(passive_run):
    _records, events = passive_run
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps(dataclasses.asdict(event), sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    assert (len(events), sum(1 for event in events if event.marker)) == (1217, 227)
    assert digest.hexdigest() == HONEYPOT_LOG_SHA256
