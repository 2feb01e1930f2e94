"""``repro monitor`` end-to-end: sources, snapshots, telemetry, exits."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.net.pcap import PcapWriter, write_pcap
from repro.report.artifacts import canonical_json


@pytest.fixture(scope="module")
def lab_pcap(tmp_path_factory, lab_records):
    path = tmp_path_factory.mktemp("monitor") / "lab.pcap"
    write_pcap(path, lab_records)
    return path


class TestPcapMode:
    def test_full_window_snapshot_matches_batch(self, lab_pcap, lab_index,
                                                tmp_path, capsys):
        out = tmp_path / "final.json"
        code = main(["monitor", str(lab_pcap), "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "monitor:" in printed and "census:" in printed

        from repro.core.protocol_census import census_from_capture
        from repro.report.artifacts import census_artifact

        identity = {mac: mac for mac in lab_index.by_src_mac}
        batch = canonical_json(
            census_artifact(census_from_capture(lab_index, identity)))
        snapshot = json.loads(out.read_text())
        assert canonical_json(snapshot["artifacts"]["census"]) == batch
        assert snapshot["schema"] == 1
        assert snapshot["window"]["evicted_panes"] == 0

    def test_device_map_uses_names_only(self, lab_pcap, lab_index, tmp_path):
        """Vendor and category keys of ``--device-map`` change no byte."""
        from repro.net.ingest import ingest_pcap
        from tests.monitor.test_equivalence import _batch_artifacts, _name_map

        names = _name_map(lab_index)
        maps = {
            "names": names,
            "objects": {mac: {"name": name, "vendor": f"vendor-{i % 3}",
                              "category": "camera"}
                        for i, (mac, name) in enumerate(sorted(names.items()))},
        }
        snapshots = {}
        for kind, device_map in maps.items():
            map_path = tmp_path / f"{kind}.json"
            map_path.write_text(json.dumps(device_map))
            out = tmp_path / f"{kind}-snapshot.json"
            code = main(["monitor", str(lab_pcap), "--chunk-records", "512",
                         "--device-map", str(map_path), "--json", str(out)])
            assert code == 0
            snapshots[kind] = out.read_bytes()
        assert snapshots["objects"] == snapshots["names"]

        snapshot = json.loads(snapshots["objects"])
        assert snapshot["window"]["panes"] > 1
        assert snapshot["window"]["evicted_panes"] == 0
        # The pcap keeps microsecond timestamps, so the batch side reads
        # the same file.
        batch = _batch_artifacts(ingest_pcap(lab_pcap).index, names)
        assert {name: canonical_json(artifact)
                for name, artifact in snapshot["artifacts"].items()} == batch

    def test_windowed_run_with_periodic_snapshots(self, lab_pcap, tmp_path):
        snaps = tmp_path / "snaps"
        code = main(["monitor", str(lab_pcap),
                     "--chunk-records", "256",
                     "--window-packets", "800",
                     "--snapshot-every", "1000",
                     "--snapshot-dir", str(snaps)])
        assert code == 0
        written = sorted(p.name for p in snaps.iterdir())
        assert "snapshot-final.json" in written
        numbered = [name for name in written if name != "snapshot-final.json"]
        assert numbered == [f"snapshot-{i + 1:06d}.json"
                            for i in range(len(numbered))]
        assert numbered, "expected at least one periodic snapshot"
        final = json.loads((snaps / "snapshot-final.json").read_text())
        assert final["window"]["evicted_panes"] > 0
        assert final["window"]["packets"] <= 800 + 256

    def test_final_document_is_built_once(self, lab_pcap, tmp_path,
                                          monkeypatch):
        """``--snapshot-dir`` and ``--json`` share one final document."""
        from repro.monitor import Monitor

        built = []
        snapshot = Monitor.snapshot

        def counted(self):
            built.append(self)
            return snapshot(self)

        monkeypatch.setattr(Monitor, "snapshot", counted)
        snaps, out = tmp_path / "snaps", tmp_path / "final.json"
        events = tmp_path / "events.ndjson"
        code = main(["monitor", str(lab_pcap), "--chunk-records", "512",
                     "--snapshot-dir", str(snaps), "--json", str(out),
                     "--events-out", str(events)])
        assert code == 0
        assert len(built) == 1
        assert (snaps / "snapshot-final.json").read_bytes() == out.read_bytes()
        assert built[0].snapshots == 2
        written = [json.loads(line) for line in events.read_text().splitlines()
                   if line and json.loads(line)["event"] == "snapshot_written"]
        assert [line["path"] for line in written] == [
            str(snaps / "snapshot-final.json"), str(out)]
        assert [line["snapshot"] for line in written] == [1, 2]

    def test_max_packets_stops_early(self, lab_pcap, tmp_path):
        out = tmp_path / "early.json"
        code = main(["monitor", str(lab_pcap), "--chunk-records", "128",
                     "--max-packets", "300", "--json", str(out)])
        assert code == 0
        snapshot = json.loads(out.read_text())
        seen = snapshot["stream"]["packets_seen"]
        assert 300 <= seen < 300 + 128

    def test_events_and_metrics(self, lab_pcap, tmp_path):
        events = tmp_path / "events.ndjson"
        metrics = tmp_path / "metrics.json"
        code = main(["monitor", str(lab_pcap), "--chunk-records", "512",
                     "--window-packets", "600",
                     "--json", str(tmp_path / "s.json"),
                     "--events-out", str(events),
                     "--metrics-out", str(metrics)])
        assert code == 0
        lines = [json.loads(line)
                 for line in events.read_text().splitlines() if line]
        kinds = {line["event"] for line in lines}
        assert "window_advanced" in kinds and "snapshot_written" in kinds
        advanced = [line for line in lines
                    if line["event"] == "window_advanced"]
        assert advanced[0]["pane"] == 1
        assert any(line["evicted_panes"] for line in advanced)
        snapshot = json.loads(metrics.read_text())
        names = set()
        for metric in (snapshot.get("metrics") or snapshot):
            names.add(metric["name"] if isinstance(metric, dict) else metric)
        for expected in ("monitor_window_packets", "monitor_evictions_total",
                         "monitor_rss_bytes", "monitor_packets_total"):
            assert any(expected in str(name) for name in names), expected

    def test_trace_holds_the_absorb_span(self, lab_pcap, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(["monitor", str(lab_pcap), "--chunk-records", "512",
                     "--trace-out", str(trace)])
        assert code == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert [event["name"] for event in events
                if event.get("ph") == "X"] == ["monitor.absorb"]

    def test_empty_pcap_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "header_only.pcap"
        PcapWriter(path).close()
        code = main(["monitor", str(path),
                     "--json", str(tmp_path / "empty.json")])
        assert code == 0
        snapshot = json.loads((tmp_path / "empty.json").read_text())
        assert snapshot["stream"]["packets_seen"] == 0
        assert snapshot["artifacts"]["census"]["total_devices"] == 0


class TestSimulateMode:
    def test_simulate_is_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["monitor", "--simulate", "--seed", "11",
                         "--duration", "40", "--chunk-records", "256",
                         "--json", str(out)])
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        snapshot = json.loads(outs[0])
        assert snapshot["stream"]["packets_seen"] > 0

    def test_simulate_metrics_hold_only_the_monitor(self, tmp_path):
        """The telemetry context goes to the monitor, not to the simulated
        testbed that feeds it: no ``sim_``, ``lan_`` or ``capture_``
        families, and the simulator's callbacks stay untimed."""
        metrics = tmp_path / "metrics.json"
        code = main(["monitor", "--simulate", "--seed", "11",
                     "--duration", "40", "--chunk-records", "256",
                     "--metrics-out", str(metrics)])
        assert code == 0
        families = json.loads(metrics.read_text())
        assert families and all(name.startswith("monitor_") for name in families)


class TestFollowMode:
    def test_follow_tails_a_growing_pcap(self, lab_records, tmp_path):
        path = tmp_path / "growing.pcap"
        subset = lab_records[:900]

        def writer():
            with PcapWriter(path) as handle:
                for i, (timestamp, data) in enumerate(subset):
                    handle.write(timestamp, data)
                    if i % 300 == 299:
                        time.sleep(0.1)

        thread = threading.Thread(target=writer)
        thread.start()
        out = tmp_path / "follow.json"
        code = main(["monitor", str(path), "--follow",
                     "--poll-interval", "0.02", "--idle-timeout", "2",
                     "--chunk-records", "128", "--json", str(out)])
        thread.join()
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["stream"]["packets_seen"] == len(subset)


class TestConfigErrors:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["monitor"]) == 2
        assert "PCAP path or --simulate" in capsys.readouterr().err
        assert main(["monitor", str(tmp_path / "x.pcap"), "--simulate"]) == 2

    def test_follow_requires_pcap(self, capsys):
        assert main(["monitor", "--simulate", "--follow"]) == 2
        assert "--follow requires" in capsys.readouterr().err

    def test_snapshot_every_requires_dir(self, tmp_path, capsys):
        code = main(["monitor", str(tmp_path / "x.pcap"),
                     "--snapshot-every", "100"])
        assert code == 2
        assert "--snapshot-dir" in capsys.readouterr().err

    def test_non_positive_values_rejected(self, tmp_path, capsys):
        for flags in (["--window-packets", "0"], ["--chunk-records", "-2"],
                      ["--window-seconds", "0"], ["--duration", "0"]):
            code = main(["monitor", str(tmp_path / "x.pcap"), *flags])
            assert code == 2, flags

    def test_bad_device_map_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code = main(["monitor", str(tmp_path / "x.pcap"),
                     "--device-map", str(bad)])
        assert code == 2
        assert "--device-map" in capsys.readouterr().err

    def test_missing_pcap_is_runtime_error(self, tmp_path, capsys):
        code = main(["monitor", str(tmp_path / "absent.pcap")])
        assert code == 1
        assert "repro monitor: error" in capsys.readouterr().err

    def test_unwritable_json_dir_rejected(self, tmp_path, capsys):
        code = main(["monitor", str(tmp_path / "x.pcap"),
                     "--json", str(tmp_path / "no" / "such" / "dir.json")])
        assert code == 2
        assert "--json" in capsys.readouterr().err
