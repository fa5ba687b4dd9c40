"""Free-cooling PUE: floor, slope, ceiling, daily variation."""

import numpy as np
import pytest

from repro.datacenter.pue import FreeCoolingPUE
from repro.units import SECONDS_PER_HOUR


class TestPUE:
    def test_floor_when_cold(self):
        cold = FreeCoolingPUE(mean_temp_c=0.0, daily_swing_c=2.0)
        times = np.arange(24) * SECONDS_PER_HOUR
        assert np.all(cold.pue(times) == cold.floor)

    def test_rises_with_heat(self):
        hot = FreeCoolingPUE(mean_temp_c=30.0, daily_swing_c=2.0)
        cold = FreeCoolingPUE(mean_temp_c=5.0, daily_swing_c=2.0)
        t = 15 * SECONDS_PER_HOUR
        assert float(hot.pue(t)) > float(cold.pue(t))

    def test_ceiling_clamps(self):
        scorching = FreeCoolingPUE(mean_temp_c=80.0, ceiling=1.5)
        assert float(scorching.pue(15 * SECONDS_PER_HOUR)) == 1.5

    def test_daily_variation_present(self):
        mild = FreeCoolingPUE(mean_temp_c=18.0, daily_swing_c=8.0)
        times = np.arange(24) * SECONDS_PER_HOUR
        pues = mild.pue(times)
        assert pues.max() > pues.min()

    def test_afternoon_hotter_than_dawn(self):
        model = FreeCoolingPUE(mean_temp_c=15.0, daily_swing_c=8.0)
        afternoon = float(model.ambient_c(15 * SECONDS_PER_HOUR))
        dawn = float(model.ambient_c(4 * SECONDS_PER_HOUR))
        assert afternoon > dawn

    def test_pue_at_least_floor(self):
        model = FreeCoolingPUE()
        times = np.linspace(0, 7 * 24 * SECONDS_PER_HOUR, 400)
        assert np.all(model.pue(times) >= model.floor)

    def test_timezone_shifts_peak_hour(self):
        utc = FreeCoolingPUE(mean_temp_c=20.0, tz_offset_hours=0.0)
        east = FreeCoolingPUE(mean_temp_c=20.0, tz_offset_hours=6.0)
        times = np.arange(24) * SECONDS_PER_HOUR
        assert int(np.argmax(utc.ambient_c(times))) != int(
            np.argmax(east.ambient_c(times))
        )


class TestFleetPue:
    """Batched fleet PUE broadcast is bit-identical to per-model calls."""

    def models(self):
        return [
            FreeCoolingPUE(tz_offset_hours=0.0),
            FreeCoolingPUE(
                mean_temp_c=20.0,
                daily_swing_c=8.0,
                free_cooling_threshold_c=14.0,
                tz_offset_hours=1.0,
            ),
            FreeCoolingPUE(mean_temp_c=5.0, tz_offset_hours=2.0),
        ]

    def test_rows_match_per_model_pue(self):
        import numpy as np

        from repro.datacenter.pue import fleet_pue
        from repro.units import SECONDS_PER_HOUR

        models = self.models()
        times = np.linspace(0.0, 48 * SECONDS_PER_HOUR, 720)
        batch = fleet_pue(models, times)
        assert batch.shape == (3, times.size)
        for row, model in enumerate(models):
            assert np.array_equal(batch[row], model.pue(times))

    def test_empty_fleet(self):
        import numpy as np

        from repro.datacenter.pue import fleet_pue

        assert fleet_pue([], np.zeros(5)).shape == (0, 5)
