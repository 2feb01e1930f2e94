"""Unit tests for the structured logger."""

import io
import json

import pytest

from repro.obs.logging import LogManager, NullLogManager, NullLogger


def manager_with_buffer(**kwargs):
    buffer = io.StringIO()
    return LogManager(stream=buffer, **kwargs), buffer


class TestLevels:
    def test_default_level_filters(self):
        manager, buffer = manager_with_buffer(default_level="warning")
        logger = manager.logger("sim")
        logger.info("ignored")
        logger.warning("kept")
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 1 and "kept" in lines[0]

    def test_per_subsystem_override(self):
        manager, buffer = manager_with_buffer(default_level="warning")
        manager.set_level("debug", "scan")
        manager.logger("scan").debug("scan_detail")
        manager.logger("sim").debug("sim_detail")
        output = buffer.getvalue()
        assert "scan_detail" in output and "sim_detail" not in output

    def test_is_enabled(self):
        manager, _ = manager_with_buffer(default_level="info")
        assert manager.logger("x").is_enabled("error")
        assert not manager.logger("x").is_enabled("debug")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            LogManager(default_level="chatty")

    def test_off_silences_everything(self):
        manager, buffer = manager_with_buffer(default_level="off")
        manager.logger("sim").error("even_errors")
        assert buffer.getvalue() == ""


class TestFormats:
    def test_kv_format(self):
        manager, buffer = manager_with_buffer(default_level="info", fmt="kv")
        manager.logger("scan").info("sweep_done", hosts=93, kind="tcp scan")
        line = buffer.getvalue().strip()
        assert line.startswith("INFO scan sweep_done")
        assert "hosts=93" in line
        assert 'kind="tcp scan"' in line  # values with spaces get quoted

    def test_json_format(self):
        manager, buffer = manager_with_buffer(default_level="info", fmt="json")
        manager.logger("scan").info("sweep_done", hosts=93)
        record = json.loads(buffer.getvalue())
        assert record == {"level": "info", "subsystem": "scan",
                          "event": "sweep_done", "hosts": 93}

    def test_sim_clock_timestamps(self):
        manager, buffer = manager_with_buffer(default_level="info", fmt="json")
        manager.clock = lambda: 123.456
        manager.logger("sim").info("tick")
        assert json.loads(buffer.getvalue())["sim_time"] == 123.456

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            LogManager(fmt="xml")


class TestEnvConfig:
    def test_from_env_levels(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
        monkeypatch.setenv("REPRO_LOG", "sim=debug, scan=info")
        manager = LogManager.from_env(stream=io.StringIO())
        assert manager.level_of("sim") == 10
        assert manager.level_of("scan") == 20
        assert manager.level_of("anything_else") == 40

    def test_explicit_level_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        manager = LogManager.from_env(default_level="error", stream=io.StringIO())
        assert manager.level_of("x") == 40

    @pytest.mark.parametrize("variable, value, level", [
        ("REPRO_LOG_LEVEL", "bogus", "bogus"),
        ("REPRO_LOG", "sim=debug,scan=loud", "loud"),
    ])
    def test_unknown_env_level_names_its_variable(self, monkeypatch, variable,
                                                   value, level):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError,
                           match=f"^{variable}: unknown log level '{level}'; "):
            LogManager.from_env(stream=io.StringIO())


class TestNullBackend:
    def test_null_logger_noops(self):
        logger = NullLogManager().logger("sim")
        assert isinstance(logger, NullLogger)
        logger.debug("x", a=1)
        logger.info("x")
        logger.warning("x")
        logger.error("x")
        assert not logger.is_enabled("error")

    def test_null_manager_hands_out_singleton(self):
        manager = NullLogManager()
        assert manager.logger("a") is manager.logger("b")
        manager.set_level("debug")  # no-op, must not raise
