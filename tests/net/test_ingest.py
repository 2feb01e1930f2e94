"""Streaming pcap ingest: bounded chunks, equivalence, CLI smoke.

``ingest_pcap`` must produce the same table whether it reads the pcap
in one chunk or many, survive captures containing quarantined frames,
and surface everything the ``repro ingest`` CLI needs.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.net.columnar import PacketTable
from repro.net.decode import DecodeErrorLog
from repro.net.ingest import (
    DEFAULT_CHUNK_RECORDS,
    ingest_pcap,
    iter_pcap_chunks,
)
from repro.net.pcap import write_pcap
from tests.net.test_columnar import _mixed_records


@pytest.fixture
def mixed_pcap(tmp_path):
    records = _mixed_records()
    path = tmp_path / "mixed.pcap"
    write_pcap(path, [(ts, data) for ts, data in records])
    return path, records


class TestChunking:
    def test_chunks_cover_all_records_in_order(self, mixed_pcap):
        path, records = mixed_pcap
        chunks = list(iter_pcap_chunks(path, chunk_records=4))
        assert all(len(chunk) <= 4 for chunk in chunks)
        flattened = [record for chunk in chunks for record in chunk]
        assert flattened == records

    def test_chunk_records_must_be_positive(self, mixed_pcap):
        path, _ = mixed_pcap
        for bad in (0, -1):
            with pytest.raises(ValueError, match="chunk_records"):
                list(iter_pcap_chunks(path, chunk_records=bad))

    def test_chunked_equals_whole_file(self, mixed_pcap):
        path, records = mixed_pcap
        small = ingest_pcap(path, chunk_records=3)
        whole = ingest_pcap(path, chunk_records=DEFAULT_CHUNK_RECORDS)
        assert small.stats.chunks > 1 and whole.stats.chunks == 1
        assert len(small) == len(whole) == len(records)
        assert small.table.packets() == whole.table.packets()
        assert small.stats.quarantined == whole.stats.quarantined
        assert small.index.protocol_counts() == whole.index.protocol_counts()


class TestQuarantineRoundTrip:
    def test_malformed_frames_survive_pcap_round_trip(self, tmp_path):
        """Capture → write_pcap → ingest keeps damaged frames verbatim."""
        from repro.simnet.capture import ApCapture

        records = _mixed_records()
        capture = ApCapture()
        for timestamp, data in records:
            capture.observe(timestamp, data)
        capture.index()  # force ingest so the capture quarantines
        assert capture.decode_errors.counts  # the corpus has damage

        path = tmp_path / "round-trip.pcap"
        assert capture.write_pcap(path) == len(records)
        result = ingest_pcap(path, chunk_records=4)
        assert len(result) == len(records)
        # Byte-identical frames, malformed ones included.
        for rid, (timestamp, data) in enumerate(records):
            assert result.table.timestamps[rid] == timestamp
            assert result.table.frame_bytes(rid) == data
        assert result.errors.counts == capture.decode_errors.counts
        assert result.stats.quarantined_total == sum(
            capture.decode_errors.counts.values())

    def test_append_onto_existing_table(self, mixed_pcap):
        path, records = mixed_pcap
        table = PacketTable()
        errors = DecodeErrorLog()
        first = ingest_pcap(path, errors=errors, table=table)
        second = ingest_pcap(path, errors=errors, table=table)
        assert first.table is second.table is table
        assert len(table) == 2 * len(records)
        # Each pass reports only its own quarantine delta.
        assert first.stats.quarantined == second.stats.quarantined

    def test_truncated_pcap_file_raises(self, mixed_pcap, tmp_path):
        path, _ = mixed_pcap
        clipped = tmp_path / "clipped.pcap"
        clipped.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError):
            ingest_pcap(clipped)


#: Payload objects with fixed keys; the others are keyed by the capture.
_FIXED_OBJECTS = ("graph_summary", "periodicity", "threat", "crossval")


def _ingest_json(path, out, *flags):
    assert main(["ingest", str(path), *flags, "--json", str(out)]) == 0
    return json.loads(out.read_text())


def _json_types(payload):
    """The JSON type of every payload key and fixed-object member."""
    types = {key: type(value).__name__ for key, value in payload.items()}
    for key in _FIXED_OBJECTS:
        types.update({f"{key}.{member}": type(value).__name__
                      for member, value in payload[key].items()})
    return types


class TestIngestCli:
    def test_cli_smoke_with_json_artifacts(self, mixed_pcap, tmp_path, capsys):
        path, records = mixed_pcap
        device_map = tmp_path / "devices.json"
        device_map.write_text(json.dumps({
            "02:aa:00:00:00:01": {"name": "lamp", "vendor": "acme",
                                  "category": "bulb"},
        }))
        out = tmp_path / "ingest.json"
        code = main(["ingest", str(path), "--device-map", str(device_map),
                     "--chunk-records", "4", "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"{len(records)} packets" in printed
        payload = json.loads(out.read_text())
        assert payload["packets"] == len(records)
        assert payload["chunks"] > 1
        assert payload["quarantined"]
        assert sum(payload["protocol_counts"].values()) == len(records)
        assert "census_passive" in payload and "crossval" in payload

    def test_cli_missing_pcap_fails(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "absent.pcap")])
        assert code == 1
        assert "cannot ingest" in capsys.readouterr().err

    def test_cli_header_only_pcap_exits_zero(self, mixed_pcap, tmp_path, capsys):
        """A valid pcap with no records is an empty capture, not an error."""
        from repro.net.pcap import PcapWriter

        path = tmp_path / "header_only.pcap"
        PcapWriter(path).close()
        # Two MACs, one device: both runs count devices by name.
        device_map = tmp_path / "devices.json"
        device_map.write_text(json.dumps({"02:aa:00:00:00:01": "lamp",
                                          "02:aa:00:00:00:02": "lamp"}))
        flags = ("--device-map", str(device_map))
        populated = _ingest_json(mixed_pcap[0], tmp_path / "full.json", *flags)
        capsys.readouterr()
        payload = _ingest_json(path, tmp_path / "empty.json", *flags)
        assert "capture contains no packets" in capsys.readouterr().out
        assert payload["packets"] == 0 and payload["bytes"] == 0
        assert payload["graph_summary"]["device_pairs"] == 0
        assert payload["graph_summary"]["devices_total"] == 1
        assert payload["responses_by_category"] == []
        # Same keys and JSON types as a populated run, so downstream
        # consumers need no special casing.
        assert _json_types(payload) == _json_types(populated)

    def test_cli_zero_byte_pcap_exits_zero(self, mixed_pcap, tmp_path, capsys):
        """A zero-byte file (capture never started) is also empty, not bad."""
        path = tmp_path / "zero.pcap"
        path.write_bytes(b"")
        populated = _ingest_json(mixed_pcap[0], tmp_path / "full.json")
        capsys.readouterr()
        payload = _ingest_json(path, tmp_path / "empty.json")
        assert "capture contains no packets" in capsys.readouterr().out
        assert payload["packets"] == 0 and payload["chunks"] == 0
        assert payload["responses_by_category"] == []
        assert _json_types(payload) == _json_types(populated)

    def test_cli_truncated_header_still_fails(self, tmp_path, capsys):
        """A file with a *partial* global header stays a hard error."""
        path = tmp_path / "truncated.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
        code = main(["ingest", str(path)])
        assert code == 1
        assert "cannot ingest" in capsys.readouterr().err

    def test_cli_bad_device_map_fails(self, mixed_pcap, tmp_path, capsys):
        path, _ = mixed_pcap
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(["not", "a", "mapping"]))
        code = main(["ingest", str(path), "--device-map", str(bad)])
        assert code == 2
        assert "--device-map" in capsys.readouterr().err

    def test_cli_damaged_capture_exits_zero(self, damage_records, tmp_path, capsys):
        """A capture with about half its frames damaged on the air
        (bit-flipped TLS certificates among them) is analysed, not a crash."""
        path = tmp_path / "damage.pcap"
        write_pcap(path, damage_records)
        code = main(["ingest", str(path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"{len(damage_records)} packets" in printed
        assert "threats:" in printed and "quarantined frames:" in printed

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_cli_non_positive_chunk_records_exits_two(self, mixed_pcap, tmp_path,
                                                      capsys, value):
        """Rejected before anything is read, a zero-byte pcap included."""
        zero = tmp_path / "zero.pcap"
        zero.write_bytes(b"")
        for path in (mixed_pcap[0], zero):
            code = main(["ingest", str(path), "--chunk-records", value])
            assert code == 2
            assert capsys.readouterr().err == (
                f"repro ingest: error: --chunk-records must be positive, got {value}\n")


def _explode(*_args, **_kwargs):
    raise RuntimeError("synthetic analysis crash")


class TestIngestIsolation:
    """``repro ingest`` runs its passes through the study's runner: one
    that raises is isolated (keep-going) or ends the run (fail-fast)."""

    def test_keep_going_leaves_the_failed_pass_out(self, mixed_pcap, tmp_path,
                                                   capsys, monkeypatch):
        import repro.core.threat_report as threat_report

        path = mixed_pcap[0]
        clean = _ingest_json(path, tmp_path / "clean.json")
        clean_out = capsys.readouterr().out
        monkeypatch.setattr(threat_report, "build_threat_report", _explode)
        partial = _ingest_json(path, tmp_path / "partial.json", "--keep-going")
        captured = capsys.readouterr()
        assert partial.keys() == clean.keys()
        assert partial["threat"] is None
        assert {key: value for key, value in partial.items() if key != "threat"} \
            == {key: value for key, value in clean.items() if key != "threat"}
        assert "threats:" in clean_out
        assert captured.out.splitlines() == [
            line for line in clean_out.splitlines()
            if not line.startswith("threats:")] + [""]
        assert captured.err.endswith(
            "1 analysis failure(s) isolated (partial report):\n"
            "  threat: RuntimeError: synthetic analysis crash\n")

    def test_fail_fast_exits_one_with_telemetry_written(self, mixed_pcap, tmp_path,
                                                         capsys, monkeypatch):
        import repro.core.threat_report as threat_report

        monkeypatch.setattr(threat_report, "build_threat_report", _explode)
        out, metrics, trace = (tmp_path / name for name in ("out.json", "m.json", "t.json"))
        code = main(["ingest", str(mixed_pcap[0]), "--fail-fast", "--json", str(out),
                     "--metrics-out", str(metrics), "--trace-out", str(trace)])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "repro ingest: error: RuntimeError: synthetic analysis crash\n")
        assert not out.exists()
        failures = json.loads(metrics.read_text())["pipeline_analysis_failures_total"]
        assert [(sample["labels"], sample["value"]) for sample in failures["samples"]] \
            == [({"analysis": "threat"}, 1.0)]
        spans = [event["name"] for event in json.loads(trace.read_text())["traceEvents"]
                 if event.get("ph") == "X"]
        assert spans == ["capture.decode_index"] + [
            f"analysis.{name}" for name in ("census", "device_graph", "exposure",
                                             "responses", "periodicity", "crossval",
                                             "threat")]

    def test_debug_log_holds_the_tracebacks(self, mixed_pcap, capsys, monkeypatch):
        """The error line stays one line; ``--log-level debug`` also logs
        where it came from: the pass's traceback and the run's."""
        import repro.core.threat_report as threat_report

        monkeypatch.setattr(threat_report, "build_threat_report", _explode)
        assert main(["ingest", str(mixed_pcap[0]), "--fail-fast",
                     "--log-level", "debug"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == "repro ingest: error: RuntimeError: synthetic analysis crash"
        (analysis,) = [line for line in lines
                       if line.startswith("DEBUG pipeline analysis_traceback ")]
        (run,) = [line for line in lines if line.startswith("DEBUG cli error_traceback ")]
        assert "analysis=threat" in analysis and "command=ingest" in run
        for line in (analysis, run):
            assert "in _explode" in line
            assert "RuntimeError: synthetic analysis crash" in line
