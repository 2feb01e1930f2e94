"""Checkpoint/resume: killed shards recover from the cache."""

import pytest

from repro.faults import FaultPlan
from repro.fleet import FleetConfigError, FleetSpec, run_fleet
from repro.fleet.runner import MANIFEST_NAME, FleetRunner

KILL_MIDDLE = FaultPlan.from_dict({"shards": {"fail": [1]}})


class TestResume:
    def test_resume_after_shard_kill(self, tmp_path, small_spec,
                                     small_serial_report):
        first = run_fleet(small_spec, workers=1, cache_dir=tmp_path,
                          fault_plan=KILL_MIDDLE, keep_going=True)
        assert not first.complete
        assert [f.shard for f in first.failures] == [1]
        assert first.cache_writes == 2  # the two surviving shards

        second = run_fleet(small_spec, workers=1, cache_dir=tmp_path,
                           resume=True)
        assert second.resumed
        assert second.complete
        assert second.cache_hits == 2
        assert second.cache_misses == 1  # only the killed shard recomputes
        assert second.report.to_json() == small_serial_report.to_json()

    def test_resume_after_parallel_kill(self, tmp_path, small_spec,
                                        small_serial_report):
        run_fleet(small_spec, workers=2, cache_dir=tmp_path,
                  fault_plan=KILL_MIDDLE, keep_going=True)
        second = run_fleet(small_spec, workers=2, cache_dir=tmp_path,
                           resume=True)
        assert second.complete
        assert second.report.to_json() == small_serial_report.to_json()


class TestResumeValidation:
    def test_resume_requires_cache_dir(self, small_spec):
        with pytest.raises(FleetConfigError):
            FleetRunner(small_spec, resume=True)

    def test_resume_without_manifest_rejected(self, tmp_path, small_spec):
        with pytest.raises(FleetConfigError, match="no readable manifest"):
            run_fleet(small_spec, workers=1, cache_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("manifest", ["[]", '"x"', "1"])
    def test_resume_with_non_object_manifest_rejected(self, tmp_path,
                                                      small_spec, manifest):
        (tmp_path / MANIFEST_NAME).write_text(manifest, encoding="utf-8")
        with pytest.raises(FleetConfigError, match="no readable manifest"):
            run_fleet(small_spec, workers=1, cache_dir=tmp_path, resume=True)

    def test_resume_with_different_spec_rejected(self, tmp_path, small_spec):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        other = FleetSpec(**{**small_spec.to_dict(), "households": 64})
        with pytest.raises(FleetConfigError, match="different fleet"):
            run_fleet(other, workers=1, cache_dir=tmp_path, resume=True)

    def test_resume_with_stale_code_version_rejected(self, tmp_path,
                                                     small_spec, monkeypatch):
        run_fleet(small_spec, workers=1, cache_dir=tmp_path)
        monkeypatch.setattr("repro.fleet.runner.code_version",
                            lambda: "somethingelse")
        with pytest.raises(FleetConfigError, match="code changed"):
            run_fleet(small_spec, workers=1, cache_dir=tmp_path, resume=True)
