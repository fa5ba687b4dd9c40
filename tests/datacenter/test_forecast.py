"""WCMA forecaster: priors, profile updates, weather conditioning."""

import pytest

from repro.datacenter.forecast import GAP_WINDOW, WCMAForecaster
from repro.datacenter.pv import PVArray


@pytest.fixture
def array() -> PVArray:
    return PVArray(kwp=5.0, seed=2)


@pytest.fixture
def forecaster(array) -> WCMAForecaster:
    return WCMAForecaster(array.clear_sky_energy)


class TestPriors:
    def test_cold_start_uses_clear_sky(self, forecaster, array):
        noon = forecaster.forecast(12)
        assert noon > 0.0

    def test_cold_start_night_zero(self, forecaster):
        assert forecaster.forecast(2) == 0.0

    def test_gap_factor_defaults_to_one(self, forecaster):
        assert forecaster.gap_factor() == 1.0


class TestRecording:
    def test_record_updates_profile(self, forecaster):
        prior = forecaster.forecast(12)
        for day in range(5):
            forecaster.record(12 + 24 * day, prior * 0.2)
        assert forecaster.forecast(12 + 24 * 5) < prior

    def test_overcast_run_lowers_gap(self, forecaster):
        prior = forecaster.forecast(12)
        forecaster.record(12, prior * 0.1)
        assert forecaster.gap_factor() < 1.0

    def test_sunny_run_raises_gap(self, forecaster):
        prior = forecaster.forecast(12)
        forecaster.record(12, prior * 1.5)
        assert forecaster.gap_factor() > 1.0

    def test_night_slots_do_not_move_gap(self, forecaster):
        forecaster.record(2, 0.0)
        assert forecaster.gap_factor() == 1.0

    def test_negative_actual_rejected(self, forecaster):
        with pytest.raises(ValueError):
            forecaster.record(12, -1.0)

    def test_forecast_never_negative(self, forecaster):
        prior = forecaster.forecast(12)
        forecaster.record(12, prior * 0.01)
        for slot in range(24):
            assert forecaster.forecast(slot) >= 0.0


class TestValidation:
    def test_gap_window_rolls(self, forecaster):
        assert GAP_WINDOW == 3
        prior = forecaster.forecast(12)
        forecaster.record(12, prior * 0.1)
        # GAP_WINDOW sunny observations push the overcast one out of
        # the window.
        for day in range(1, GAP_WINDOW + 1):
            slot = 12 + 24 * day
            forecaster.record(slot, forecaster._profile_energy(slot) * 1.2)
        assert forecaster.gap_factor() == pytest.approx(1.2)
