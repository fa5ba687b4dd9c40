"""Time-varying PUE (Power Usage Effectiveness) model.

The paper uses "a time-varying PUE model, as in [20]" (Kim et al.,
HPCS 2012: free-cooling-aware power management).  The defining property
of a free-cooling PUE is that cooling overhead tracks outside
temperature: when the ambient is below the free-cooling threshold the
chillers are off and PUE approaches the electrical-losses floor; above
it, the overhead grows with the temperature excess.

This module models each site's ambient temperature as a daily sinusoid
around a site mean (with a small seasonal-free weekly wobble) and maps
temperature to PUE piecewise-linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class FreeCoolingPUE:
    """Free-cooling PUE as a function of time.

    Attributes
    ----------
    mean_temp_c:
        Site's mean ambient temperature.
    daily_swing_c:
        Peak-to-mean amplitude of the daily temperature wave.
    free_cooling_threshold_c:
        Below this ambient, cooling runs free (PUE = ``floor``).
    floor:
        PUE with chillers off (electrical distribution losses only).
    slope_per_c:
        PUE increase per degree above the threshold.
    ceiling:
        Upper clamp for the PUE.
    tz_offset_hours:
        Local time zone; temperature peaks mid-afternoon local time.
    """

    mean_temp_c: float = 15.0
    daily_swing_c: float = 6.0
    free_cooling_threshold_c: float = 16.0
    floor: float = 1.12
    slope_per_c: float = 0.035
    ceiling: float = 1.8
    tz_offset_hours: float = 0.0

    def ambient_c(self, time_s: float | np.ndarray) -> np.ndarray:
        """Ambient temperature at absolute simulation time (seconds, UTC)."""
        hours = np.asarray(time_s, dtype=float) / SECONDS_PER_HOUR
        local = hours + self.tz_offset_hours
        # Daily wave peaking at 15:00 local; mild multi-day wobble.
        daily = self.daily_swing_c * np.cos(2.0 * np.pi * (local - 15.0) / 24.0)
        wobble = 1.5 * np.sin(2.0 * np.pi * local / (24.0 * 5.3))
        return self.mean_temp_c + daily + wobble

    def pue(self, time_s: float | np.ndarray) -> np.ndarray:
        """PUE at absolute simulation time (seconds, UTC)."""
        excess = np.maximum(
            self.ambient_c(time_s) - self.free_cooling_threshold_c, 0.0
        )
        return np.minimum(self.floor + self.slope_per_c * excess, self.ceiling)


def fleet_pue(
    models: list[FreeCoolingPUE], time_s: np.ndarray
) -> np.ndarray:
    """PUE of several sites at shared times, one 2-D broadcast.

    Returns shape ``(len(models),) + times.shape``; row ``i`` is
    bit-identical to ``models[i].pue(time_s)`` -- the broadcast
    evaluates the exact per-element expressions of
    :meth:`FreeCoolingPUE.ambient_c` / :meth:`FreeCoolingPUE.pue` with
    the per-site parameters lifted into column vectors.
    """
    times = np.asarray(time_s, dtype=float)
    if not models:
        return np.zeros((0,) + times.shape)
    shape = (len(models),) + (1,) * times.ndim

    def column(attribute: str) -> np.ndarray:
        return np.array(
            [getattr(model, attribute) for model in models]
        ).reshape(shape)

    hours = times / SECONDS_PER_HOUR
    local = hours + column("tz_offset_hours")
    daily = column("daily_swing_c") * np.cos(
        2.0 * np.pi * (local - 15.0) / 24.0
    )
    wobble = 1.5 * np.sin(2.0 * np.pi * local / (24.0 * 5.3))
    ambient = column("mean_temp_c") + daily + wobble
    excess = np.maximum(ambient - column("free_cooling_threshold_c"), 0.0)
    return np.minimum(
        column("floor") + column("slope_per_c") * excess, column("ceiling")
    )
