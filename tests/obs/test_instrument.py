"""Tests for the observability context plumbing."""

import pytest

from repro.obs import (
    NULL_OBS,
    enable_observability,
    get_obs,
    set_obs,
    use_obs,
)


@pytest.fixture(autouse=True)
def reset_global_obs():
    yield
    set_obs(None)


class TestContext:
    def test_default_is_null(self):
        assert get_obs() is NULL_OBS
        assert not get_obs().enabled

    def test_use_obs_restores_previous(self):
        obs = enable_observability()
        with use_obs(obs):
            assert get_obs() is obs
        assert get_obs() is NULL_OBS

    def test_use_obs_restores_on_error(self):
        obs = enable_observability()
        with pytest.raises(RuntimeError):
            with use_obs(obs):
                raise RuntimeError("boom")
        assert get_obs() is NULL_OBS

    def test_install_global(self):
        obs = enable_observability(install=True)
        assert get_obs() is obs
        set_obs(None)
        assert get_obs() is NULL_OBS

    def test_set_sim_clock_reaches_tracer_and_logs(self):
        obs = enable_observability()
        obs.set_sim_clock(lambda: 42.0)
        with obs.tracer.span("x") as span:
            pass
        assert span.sim_start == 42.0
        assert obs.logs.clock() == 42.0

