"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("study", "classify", "scan", "fingerprint", "catalog",
                        "capture", "fleet"):
            args = parser.parse_args(
                [command] + (["x.pcap"] if command == "classify" else [])
                + (["/tmp/x"] if command == "capture" else [])
            )
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.seed == 7 and args.duration == 900.0
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.log_level is None

    def test_observability_flags_parse(self):
        args = build_parser().parse_args([
            "study", "--metrics-out", "m.json", "--trace-out", "t.json",
            "--log-level", "debug",
        ])
        assert args.metrics_out == "m.json"
        assert args.trace_out == "t.json"
        assert args.log_level == "debug"

    def test_invalid_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--log-level", "chatty"])

    def test_bad_output_dir_fails_before_run(self, tmp_path, capsys):
        """An unwritable --metrics-out must fail fast, not after the run."""
        missing = tmp_path / "no-such-dir" / "m.json"
        assert main(["study", "--metrics-out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "--metrics-out" in err and "does not exist" in err


class TestCatalog:
    def test_prints_table3(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "Voice Assistant" in out
        assert "Amazon (17)" in out

    def test_verbose_lists_devices(self, capsys):
        assert main(["catalog", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "philips-hue-hub-1" in out
        assert "Geolocation" in out  # TP-Link exposure column


class TestClassify:
    def test_classifies_pcap(self, tmp_path, capsys, mini_testbed):
        mini_testbed.run(120.0)
        path = tmp_path / "lab.pcap"
        mini_testbed.lan.capture.write_pcap(path)
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mDNS" in out and "packets" in out

    def test_crossval_flag(self, tmp_path, capsys, mini_testbed):
        mini_testbed.run(60.0)
        path = tmp_path / "lab.pcap"
        mini_testbed.lan.capture.write_pcap(path)
        assert main(["classify", str(path), "--crossval"]) == 0
        assert "cross-validation" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "nope.pcap")]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_pcap_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"this is not a capture file at all")
        assert main(["classify", str(path)]) == 1

    def test_empty_pcap_fails_cleanly(self, tmp_path, capsys):
        from repro.net.pcap import write_pcap

        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        assert main(["classify", str(path)]) == 1


def _reference_classify(path):
    """``repro classify PATH --crossval`` computed the eager way, as
    ``(stdout, stderr, exit code)``: each record decoded with
    ``decode_frame`` and labelled by one ``CorrectedClassifier``, and
    the cross-validation run over the eager reference index."""
    from collections import Counter

    from repro.classify.crossval import cross_validate
    from repro.classify.rules import CorrectedClassifier
    from repro.net.columnar import PacketTable
    from repro.net.decode import decode_frame
    from repro.net.index import CaptureIndex
    from repro.net.pcap import PcapReader
    from repro.report.tables import render_figure3, render_table

    try:
        with PcapReader(path) as reader:
            packets = [decode_frame(captured.data, captured.timestamp)
                       for captured in reader]
    except (OSError, ValueError) as error:
        return "", f"error: cannot read {path}: {error}\n", 1
    if not packets:
        return "", "error: capture contains no packets\n", 1
    classifier = CorrectedClassifier()
    counts = Counter(str(classifier.classify_packet(packet)) for packet in packets)
    table = render_table(
        ["protocol", "packets", "share"],
        [(label, count, f"{count / len(packets):.1%}")
         for label, count in counts.most_common()],
        title=f"{path}: {len(packets)} packets (nDPI+manual labels)",
    )
    figure = render_figure3(cross_validate(CaptureIndex(PacketTable.from_packets(packets))))
    return f"{table}\n\n{figure}\n", "", 0


class TestClassifyMatchesEagerReference:
    """``repro classify`` reads through the streaming ingest path and
    prints exactly what an eager per-record decode prints."""

    @pytest.mark.parametrize("kind", ["lab", "chaos", "damage", "zero-byte",
                                      "header-only", "truncated", "bad-magic"])
    def test_same_stdout_stderr_and_exit_code(self, kind, request, tmp_path, capsys):
        from repro.net.pcap import write_pcap

        path = tmp_path / f"{kind}.pcap"
        if kind in ("lab", "chaos", "damage"):
            write_pcap(path, request.getfixturevalue(f"{kind}_records"))
        elif kind == "zero-byte":
            path.write_bytes(b"")
        elif kind == "header-only":
            write_pcap(path, [])
        else:
            write_pcap(path, request.getfixturevalue("lab_records")[:50])
            data = path.read_bytes()
            path.write_bytes(data[:-7] if kind == "truncated" else b"XXXX" + data[4:])
        code = main(["classify", str(path), "--crossval"])
        out, err = capsys.readouterr()
        assert (out, err, code) == _reference_classify(path)


class TestFingerprint:
    def test_unknown_mitigation(self, capsys):
        assert main(["fingerprint", "--mitigation", "wishful_thinking"]) == 1
        assert "unknown mitigation" in capsys.readouterr().err


class TestScan:
    def test_negative_max_findings_exits_2_before_the_lab(self, capsys, monkeypatch):
        import repro.devices.behaviors as behaviors

        def no_lab(*args, **kwargs):
            raise AssertionError("the lab was built")

        monkeypatch.setattr(behaviors, "build_testbed", no_lab)
        assert main(["scan", "--max-findings", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro scan: error: --max-findings must be non-negative, got -1\n")

    def test_zero_max_findings_prints_an_empty_table(self, capsys):
        assert main(["scan", "--max-findings", "0"]) == 0
        findings = capsys.readouterr().out.split("\n\n")[1].splitlines()
        assert findings[0].endswith(" vulnerability findings")
        assert findings[1].split() == ["severity", "device", "finding"]
        assert len(findings) == 3 and set(findings[2]) <= {"-", " "}


class TestStudyObservability:
    """`repro study` with the observability flags (tiny run to stay fast)."""

    @pytest.fixture(scope="class")
    def study_outputs(self, tmp_path_factory):
        import json

        out = tmp_path_factory.mktemp("obs")
        metrics_path = out / "m.json"
        trace_path = out / "t.json"
        code = main([
            "study", "--duration", "45", "--apps", "4",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--log-level", "error",
        ])
        assert code == 0
        return (json.loads(metrics_path.read_text()),
                json.loads(trace_path.read_text()))

    def test_metrics_out_is_valid_json_with_counters(self, study_outputs):
        metrics, _ = study_outputs
        assert metrics["capture_packets_total"]["type"] == "counter"
        total = sum(s["value"] for s in metrics["capture_packets_total"]["samples"])
        assert total > 0
        assert "sim_events_total" in metrics

    def test_metrics_round_trip_through_prometheus_text(self, study_outputs):
        """JSON snapshot -> registry -> Prometheus text -> parsed values,
        with no counter value lost along the way."""
        from repro.obs import MetricsRegistry, parse_prometheus_text

        metrics, _ = study_outputs
        registry = MetricsRegistry.from_dict(metrics)
        parsed = parse_prometheus_text(registry.to_prometheus_text())
        for name, entry in metrics.items():
            if entry["type"] != "counter":
                continue
            for sample in entry["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                assert parsed[name][key] == sample["value"], name

    def test_trace_out_is_chrome_loadable(self, study_outputs):
        _, trace = study_outputs
        assert isinstance(trace["traceEvents"], list)
        names = {event["name"] for event in trace["traceEvents"]}
        from repro.core.pipeline import StudyPipeline

        assert {f"pipeline.{stage}" for stage in StudyPipeline.STAGES} <= names
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_log_level_writes_structured_lines(self, tmp_path, capsys):
        code = main([
            "study", "--duration", "20", "--apps", "2", "--log-level", "info",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "pipeline stage_start" in err
        assert "stage=build" in err


class TestProfileFlags:
    """`--profile-out` / `--profile-hz` on study and fleet."""

    TINY = ["--duration", "30", "--apps", "2"]

    def test_profile_flags_parse_on_both_subcommands(self):
        for command in ("study", "fleet"):
            args = build_parser().parse_args(
                [command, "--profile-out", "prof", "--profile-hz", "50"])
            assert args.profile_out == "prof"
            assert args.profile_hz == 50.0

    def test_profile_hz_requires_profile_out(self, capsys):
        assert main(["study", "--profile-hz", "50"] + self.TINY) == 2
        assert "--profile-out" in capsys.readouterr().err

    def test_non_positive_profile_hz_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "prof")
        assert main(["study", "--profile-out", out,
                     "--profile-hz", "-5"] + self.TINY) == 2
        assert "positive" in capsys.readouterr().err

    def test_profile_out_under_missing_dir_fails_before_run(
            self, tmp_path, capsys):
        bad = str(tmp_path / "no" / "such" / "prof")
        assert main(["study", "--profile-out", bad] + self.TINY) == 2
        assert "--profile-out" in capsys.readouterr().err

    def test_study_profile_out_writes_all_three_artifacts(
            self, tmp_path, capsys):
        import json

        from repro.obs.profile import (
            FLAMEGRAPH_NAME, RESOURCES_NAME, SPEEDSCOPE_NAME)

        out = tmp_path / "prof"
        code = main(["study", "--profile-out", str(out),
                     "--profile-hz", "211"] + self.TINY)
        assert code == 0
        assert "profile written to" in capsys.readouterr().err
        flame = (out / FLAMEGRAPH_NAME).read_text()
        for line in flame.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        scope = json.loads((out / SPEEDSCOPE_NAME).read_text())
        assert scope["$schema"].startswith("https://www.speedscope.app")
        resources = json.loads((out / RESOURCES_NAME).read_text())
        assert resources["pipeline.build"]["cpu_seconds"] >= 0.0

    def test_study_stdout_identical_with_and_without_profiling(
            self, tmp_path, capsys):
        """The overhead contract's visible half: profiling must not
        change what the study computes or prints."""
        assert main(["study"] + self.TINY) == 0
        plain = capsys.readouterr().out
        out = str(tmp_path / "prof")
        assert main(["study", "--profile-out", out] + self.TINY) == 0
        assert capsys.readouterr().out == plain


class TestCapture:
    def test_writes_pcaps(self, tmp_path, capsys):
        assert main(["capture", str(tmp_path), "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "lab.pcap" in out
        assert (tmp_path / "lab.pcap").exists()
        assert list((tmp_path / "per-mac").glob("*.pcap"))


class TestFleet:
    """`repro fleet` on a small population (96 households, 3 shards)."""

    ARGS = ["fleet", "--seed", "5", "--households", "96",
            "--target-devices", "300", "--shard-size", "32", "--workers", "1"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.seed == 23 and args.households == 3860
        assert args.workers is None and args.shard_size is None
        assert args.fail_fast is False and args.resume is False

    def test_keep_going_and_fail_fast_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--keep-going", "--fail-fast"])

    def test_runs_and_prints_table_and_summary(self, tmp_path, capsys):
        assert main(self.ARGS + ["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "3 shards (3 computed, 0 cached, 0 failed)" in out
        assert "3 writes" in out

    def test_warm_cache_then_json_summary(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        assert main(self.ARGS + ["--cache-dir", str(cache)]) == 0
        json_path = tmp_path / "fleet.json"
        assert main(self.ARGS + ["--cache-dir", str(cache),
                                 "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "(0 computed, 3 cached, 0 failed)" in out
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["cache_hits"] == 3
        assert payload["report"]["dataset_households"] == 96
        assert len(payload["shards"]) == 3

    def test_resume_without_manifest_exits_2(self, tmp_path, capsys):
        assert main(self.ARGS + ["--cache-dir", str(tmp_path), "--resume"]) == 2
        assert "no readable manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", ["[]", '"x"', "1"])
    def test_resume_with_non_object_manifest_exits_2(self, tmp_path, capsys,
                                                     manifest):
        (tmp_path / "manifest.ndjson").write_text(manifest, encoding="utf-8")
        assert main(self.ARGS + ["--cache-dir", str(tmp_path), "--resume"]) == 2
        assert "no readable manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("spec", {"seed": 5}, "different fleet spec"),
        ("code_version", "stale", "code changed"),
    ])
    def test_resume_with_mismatched_header_exits_2(self, tmp_path, capsys,
                                                   field, value, message):
        import json

        from repro.fleet import FleetSpec, code_version

        header = {"spec": FleetSpec(seed=5, households=96, target_devices=300,
                                    shard_size=32).to_dict(),
                  "code_version": code_version(), "workers": 1, field: value}
        (tmp_path / "manifest.ndjson").write_text(json.dumps(header) + "\n",
                                                  encoding="utf-8")
        assert main(self.ARGS + ["--cache-dir", str(tmp_path), "--resume"]) == 2
        assert message in capsys.readouterr().err

    def test_resume_without_cache_dir_exits_2(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "cache" in capsys.readouterr().err

    def test_invalid_fault_plan_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"shards": {"fail_rate": 7}}', encoding="utf-8")
        assert main(self.ARGS + ["--fault-plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "--fault-plan" in err and "out of [0, 1]" in err

    def test_fail_fast_shard_failure_exits_1(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"shards": {"fail": [1]}}', encoding="utf-8")
        assert main(self.ARGS + ["--fault-plan", str(plan), "--fail-fast",
                                 "--shard-retries", "0"]) == 1
        assert "shard 1" in capsys.readouterr().err

    def test_keep_going_shard_failure_partial_report(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"shards": {"fail": [1]}}', encoding="utf-8")
        assert main(self.ARGS + ["--fault-plan", str(plan),
                                 "--shard-retries", "0"]) == 0
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "shard 1" in captured.err

    def test_supervision_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.shard_retries == 2
        assert args.retry_backoff == 0.5
        assert args.shard_deadline is None

    def test_deterministic_fault_quarantined_after_retries(
            self, tmp_path, capsys):
        """A fault keyed on the shard index fails every attempt: the
        default retry budget exhausts and the shard is quarantined, but
        the run still completes with a partial report (exit 0)."""
        plan = tmp_path / "plan.json"
        plan.write_text('{"shards": {"fail": [1]}}', encoding="utf-8")
        assert main(self.ARGS + ["--fault-plan", str(plan),
                                 "--retry-backoff", "0.01"]) == 0
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert "poison shard" in captured.err
        assert "3 attempts" in captured.err

    def test_metrics_out_includes_fleet_counters(self, tmp_path):
        import json

        metrics_path = tmp_path / "m.json"
        assert main(self.ARGS + ["--cache-dir", str(tmp_path / "c"),
                                 "--metrics-out", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        shard_states = {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in metrics["fleet_shards_total"]["samples"]
        }
        assert shard_states[(("state", "completed"),)] == 3
        assert "fleet_cache_writes_total" in metrics

    def test_bad_json_path_fails_before_run(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "fleet.json"
        assert main(["fleet", "--json", str(missing)]) == 2
        assert "--json" in capsys.readouterr().err


class TestEventStream:
    """`--events-out` NDJSON streaming on study and fleet."""

    FLEET = TestFleet.ARGS

    def _events(self, path):
        import json

        return [json.loads(line) for line in
                path.read_text().splitlines()]

    def test_progress_flags_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--progress", "--no-progress"])

    def test_events_out_parses_on_both_subcommands(self):
        for command in ("study", "fleet"):
            args = build_parser().parse_args([command, "--events-out", "-"])
            assert args.events_out == "-"

    def test_bad_events_dir_fails_before_run(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "e.ndjson"
        assert main(["fleet", "--events-out", str(missing)]) == 2
        assert "--events-out" in capsys.readouterr().err

    def test_study_event_stream_schema(self, tmp_path, capsys):
        events_path = tmp_path / "events.ndjson"
        assert main(["study", "--duration", "30", "--apps", "2",
                     "--events-out", str(events_path)]) == 0
        assert "events written to" in capsys.readouterr().err
        records = self._events(events_path)
        names = [record["event"] for record in records]
        assert names[0] == "run_start" and names[-1] == "run_end"
        assert "stage_start" in names and "stage_end" in names
        assert "heartbeat" in names  # simulator liveness hook fired
        for index, record in enumerate(records):
            assert record["v"] == 1
            assert record["seq"] == index + 1
            assert record["wall"] > 0 and record["pid"] > 0
        assert records[-1]["complete"] is True

    def test_fleet_event_stream_shard_lifecycle(self, tmp_path):
        events_path = tmp_path / "events.ndjson"
        assert main(self.FLEET + ["--events-out", str(events_path),
                                  "--no-progress"]) == 0
        names = [record["event"] for record in self._events(events_path)]
        assert names.count("shard_queued") == 3
        assert names.count("shard_running") == 3
        assert names.count("shard_done") == 3
        assert names[-1] == "run_end"

    def test_fleet_failure_still_writes_telemetry(self, tmp_path, capsys):
        """The telemetry-on-failure contract: exit 1, outputs on disk."""
        import json

        plan = tmp_path / "plan.json"
        plan.write_text('{"shards": {"fail": [1]}}', encoding="utf-8")
        metrics_path = tmp_path / "m.json"
        events_path = tmp_path / "e.ndjson"
        code = main(self.FLEET + [
            "--fault-plan", str(plan), "--fail-fast",
            "--shard-retries", "0",
            "--metrics-out", str(metrics_path),
            "--events-out", str(events_path),
        ])
        assert code == 1
        assert "shard 1" in capsys.readouterr().err

        metrics = json.loads(metrics_path.read_text())
        states = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in metrics["fleet_shards_total"]["samples"]}
        assert states[(("state", "failed"),)] == 1

        records = self._events(events_path)
        names = [record["event"] for record in records]
        assert "shard_failed" in names
        assert names[-1] == "run_end"
        assert records[-1]["complete"] is False
        assert records[-1]["outcome"] == "failed"

    def test_retry_and_quarantine_events_and_counters(self, tmp_path):
        """Supervision telemetry: shard_retry per re-dispatch, one
        shard_quarantined on budget exhaustion, run_end outcome ok."""
        import json

        plan = tmp_path / "plan.json"
        plan.write_text('{"shards": {"fail": [1]}}', encoding="utf-8")
        metrics_path = tmp_path / "m.json"
        events_path = tmp_path / "e.ndjson"
        code = main(self.FLEET + [
            "--fault-plan", str(plan), "--keep-going",
            "--retry-backoff", "0.01",
            "--metrics-out", str(metrics_path),
            "--events-out", str(events_path),
        ])
        assert code == 0

        metrics = json.loads(metrics_path.read_text())
        assert metrics["fleet_shard_retries_total"]["samples"][0]["value"] == 2
        assert (metrics["fleet_shards_quarantined_total"]["samples"][0]
                ["value"] == 1)

        records = self._events(events_path)
        names = [record["event"] for record in records]
        assert names.count("shard_retry") == 2
        assert names.count("shard_quarantined") == 1
        retry = records[names.index("shard_retry")]
        assert retry["shard"] == 1 and retry["attempt"] == 1
        assert retry["retries_left"] == 1
        assert names[-1] == "run_end"
        assert records[-1]["outcome"] == "ok"

    def test_run_end_outcome_on_success(self, tmp_path):
        for argv in (
                ["study", "--duration", "30", "--apps", "2"],
                self.FLEET + ["--no-progress"]):
            events_path = tmp_path / f"{argv[0]}.ndjson"
            assert main(argv + ["--events-out", str(events_path)]) == 0
            records = self._events(events_path)
            assert records[-1]["event"] == "run_end"
            assert records[-1]["outcome"] == "ok"
