"""The monitor's core contract: incremental ≡ batch, byte for byte.

For each of the four incremental analyses, over both device modes
(identity and explicit map):

* a full-window monitor's ``finalize()`` must serialize byte-identically
  to the batch analysis through :mod:`repro.report.artifacts`, over the
  lab capture and the fault-plan capture;
* splitting the capture at *random* points into chunk-local indexes and
  folding the pieces with ``merge(update(a), update(b)) ≡ update(a + b)``
  must not change a byte.

The states run the batch passes themselves, so the batch artifacts are
also pinned by digest: a change to a shared pass shows up there even
when batch and monitor move together.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.device_graph import build_device_graph
from repro.core.exposure import analyze_exposure
from repro.core.periodicity import analyze_periodicity
from repro.core.protocol_census import census_from_capture
from repro.monitor import STATE_CLASSES, Monitor
from repro.net.columnar import PacketTable
from repro.net.decode import DecodeErrorLog
from repro.net.index import CaptureIndex
from repro.report.artifacts import (
    canonical_json,
    census_artifact,
    device_graph_artifact,
    exposure_artifact,
    periodicity_artifact,
)


def _index(records):
    """A chunk-local index over ``records``, built the way ``Monitor`` does."""
    table = PacketTable()
    table.extend_records(list(records), DecodeErrorLog())
    return CaptureIndex(table)


@pytest.fixture(scope="module")
def chaos_index(chaos_records):
    return _index(chaos_records)


def _identity_map(index):
    return {mac: mac for mac in index.by_src_mac}


def _name_map(index):
    return {mac: f"dev-{i:02d}"
            for i, mac in enumerate(sorted(index.by_src_mac))}


def _batch_artifacts(index, device_macs):
    return {
        "census": canonical_json(census_artifact(
            census_from_capture(index, device_macs))),
        "device_graph": canonical_json(device_graph_artifact(
            build_device_graph(index, device_macs, {}))),
        "exposure": canonical_json(exposure_artifact(
            analyze_exposure(index, device_macs))),
        "periodicity": canonical_json(periodicity_artifact(
            analyze_periodicity(index, device_macs))),
    }


def _monitor_artifacts(records, device_macs, chunk):
    monitor = Monitor(device_macs=device_macs)
    for start in range(0, len(records), chunk):
        monitor.absorb_chunk(records[start:start + chunk])
    snapshot = monitor.snapshot()
    return {name: canonical_json(artifact)
            for name, artifact in snapshot["artifacts"].items()}


def _cases(lab_chunks, chaos_chunks):
    """(corpus, chunk) cases; lab cases keep their bare chunk-size ids."""
    return ([pytest.param("lab", chunk, id=str(chunk)) for chunk in lab_chunks]
            + [pytest.param("chaos", chunk, id=f"chaos-{chunk}")
               for chunk in chaos_chunks])


class TestFullWindowByteIdentity:
    @pytest.mark.parametrize("corpus, chunk", _cases([10_000, 64, 257], [64, 257]))
    def test_identity_mode(self, request, corpus, chunk):
        records = request.getfixturevalue(f"{corpus}_records")
        index = request.getfixturevalue(f"{corpus}_index")
        batch = _batch_artifacts(index, _identity_map(index))
        got = _monitor_artifacts(records, None, chunk)
        for name, expected in batch.items():
            assert got[name] == expected, f"{name} diverged at chunk={chunk}"

    @pytest.mark.parametrize("corpus, chunk", _cases([10_000, 313], [64, 257]))
    def test_mapped_mode(self, request, corpus, chunk):
        records = request.getfixturevalue(f"{corpus}_records")
        index = request.getfixturevalue(f"{corpus}_index")
        names = _name_map(index)
        batch = _batch_artifacts(index, names)
        got = _monitor_artifacts(records, names, chunk)
        for name, expected in batch.items():
            assert got[name] == expected, f"{name} diverged at chunk={chunk}"


#: SHA-256 of ``canonical_json`` of each batch artifact: the 120 s seed-7
#: lab capture and its ``chaos.json`` fault-plan twin, identity and
#: ``_name_map`` device modes.
BATCH_DIGESTS = {
    ("lab", "identity"): {
        "census": "27be39f1a149949025da19c63bf43329e5973e6247b7c2e98fbd1b19e2548a74",
        "device_graph": "c9eaf9f522ca4db0b7f4c87fdc6289b48f7ebe01939cf8f45c58bf5741ac5280",
        "exposure": "d3166ade6158c3c1eb7eb092ce3fe0e19954dfa072d3b7810fd2ee84755e9ecb",
        "periodicity": "cdb7c314f9b63d321fa449014ae0ed11c955a74221b6971172d1d53ae77f8c0a",
    },
    ("lab", "mapped"): {
        "census": "800a1469eda71f8b8deaf53777e88cb63e7a1fc292306c11163a4b7c16a85d02",
        "device_graph": "3cc84bf2c68e5698b13a2e5f26362a7198e52d18b98a0f7555daac9c3c0e1b6a",
        "exposure": "4b8f3e0009a1a3cda65227485fa8b9dc7e42912547431ffbd2d174356d1c0360",
        "periodicity": "4242e51cd4c223f2f55b7cbb4fe5680b29a79d6f922d712a273a1192d1c00284",
    },
    ("chaos", "identity"): {
        "census": "0aef660fd424a46ae22964bd3712efe9444e0ebbe1c15832905424c301f9de19",
        "device_graph": "7859f4f2addd0ad4e09d181df505d7564d081c3a057943ebc03ad4dee313f7df",
        "exposure": "1483f0d7705dba4d2fa97029a5bca7ad428794f202122bd8e361852cf8087ac7",
        "periodicity": "9bb0864e154f61f999b752e5089c567f806f307b64b45d8143e61a90f5377fce",
    },
    ("chaos", "mapped"): {
        "census": "2514fcb083e0b2ee43e3d37515b391e746f8d0cc74716c28a240de6882e131bc",
        "device_graph": "f88b4dfecfa8a3d79e4f36dd1cf7cdebf6a788e029eaf35cdf44608d70442558",
        "exposure": "d6839b2d82010103087c0933aec4a121f7d0a92a631dd242cdb25cef84ed09a1",
        "periodicity": "29bef0292e5b5b1a7f01a32f6461a1a8390c86e299fa7339e0b9cb320c723218",
    },
}


class TestBatchArtifactDigests:
    @pytest.mark.parametrize("corpus, mode", sorted(BATCH_DIGESTS))
    def test_batch_artifacts_match_pinned_digests(self, request, corpus, mode):
        index = request.getfixturevalue(f"{corpus}_index")
        device_macs = _identity_map(index) if mode == "identity" \
            else _name_map(index)
        got = {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for name, text in _batch_artifacts(index, device_macs).items()}
        assert got == BATCH_DIGESTS[(corpus, mode)]


class TestRandomSplitMerge:
    """Property-style: random split points must never change a byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_merge_of_random_splits_equals_single_update(
            self, lab_records, lab_index, seed):
        rng = random.Random(seed)
        n = len(lab_records)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 6)))
        bounds = list(zip([0] + cuts, cuts + [n]))
        pieces = [_index(lab_records[start:stop]) for start, stop in bounds]
        device_macs = None if seed % 2 == 0 else _name_map(lab_index)
        for cls in STATE_CLASSES:
            whole = cls(device_macs)
            whole.update(lab_index)
            parts = []
            for piece in pieces:
                part = cls(device_macs)
                part.update(piece)
                parts.append(part)
            merged = cls.merge(parts)
            assert _serialize(merged) == _serialize(whole), (
                f"{cls.name}: merge over splits {cuts} diverged")

    @pytest.mark.parametrize("seed", [11, 12])
    def test_pairwise_merge_is_associative_with_absorb(
            self, lab_records, lab_index, seed):
        rng = random.Random(seed)
        n = len(lab_records)
        cut = rng.randint(1, n - 1)
        head, tail = _index(lab_records[:cut]), _index(lab_records[cut:])
        for cls in STATE_CLASSES:
            a = cls(None)
            a.update(head)
            b = cls(None)
            b.update(tail)
            a.absorb(b)
            whole = cls(None)
            whole.update(lab_index)
            assert _serialize(a) == _serialize(whole)

    def test_merge_rejects_empty_input(self):
        for cls in STATE_CLASSES:
            with pytest.raises(ValueError, match="merge"):
                cls.merge([])

    def test_fresh_state_is_a_merge_identity(self, lab_index):
        """Empty states folded in on either side change no byte."""
        for device_macs in (None, _name_map(lab_index)):
            for cls in STATE_CLASSES:
                state = cls(device_macs)
                state.update(lab_index)
                merged = cls.merge([state.fresh(), state, state.fresh()])
                assert _serialize(merged) == _serialize(state), cls.name


class TestStateRegistry:
    """``STATE_CLASSES`` alone decides a monitor's panes and artifacts."""

    def test_fresh_states_follow_the_registry(self, lab_index):
        names = _name_map(lab_index)
        states = Monitor(device_macs=names).fresh_states()
        assert list(states) == [cls.name for cls in STATE_CLASSES]
        assert len(states) == 4
        for cls in STATE_CLASSES:
            state = states[cls.name]
            assert type(state) is cls
            assert state.device_macs == names
            assert state.device_macs is not names

    def test_idle_snapshot_equals_batch_over_empty_capture(self):
        """A monitor that absorbed nothing reports the empty capture."""
        empty = _index([])
        names = {"02:00:00:00:00:01": "lamp", "02:00:00:00:00:02": "camera"}
        for device_macs, batch_map in ((None, {}), (names, names)):
            snapshot = Monitor(device_macs=device_macs).snapshot()
            assert snapshot["window"]["panes"] == 0
            got = {name: canonical_json(artifact)
                   for name, artifact in snapshot["artifacts"].items()}
            assert got == _batch_artifacts(empty, batch_map)


def _serialize(state):
    return canonical_json(state.artifact(state.finalize()))
