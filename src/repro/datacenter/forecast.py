"""Renewable energy forecasting (WCMA-style).

The paper implements "the algorithm in [21]" (Bergonzini et al.,
Microelectronics Journal 2010) to forecast PV intake.  That algorithm --
Weather-Conditioned Moving Average (WCMA) -- predicts the next interval
as the historical mean profile for that time of day, scaled by a factor
measuring how today's conditions compare to the profile so far.

:class:`WCMAForecaster` keeps (a) an exponential per-hour-of-day profile
of observed energy and (b) a short window of recent actual/profile
ratios (the "GAP" factor).  It degrades gracefully before any history
exists by falling back to the array's clear-sky prediction.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

#: Number of slots per day (the profile's resolution).
SLOTS_PER_DAY = 24

#: EWMA weight of a new observation in the per-hour profile.
PROFILE_ALPHA = 0.3

#: Recent slots whose actual/profile ratio conditions the prediction.
GAP_WINDOW = 3


class WCMAForecaster:
    """Weather-conditioned moving-average PV forecaster.

    Parameters
    ----------
    prior:
        The clear-sky energy (Joules) of a slot, the forecast for an
        hour of day with no history yet: the array's
        :meth:`~repro.datacenter.pv.PVArray.clear_sky_energy`, which a
        simulation reads through its fleet's
        :meth:`~repro.sim.kernel.SiteConditions.clear_sky_prior`.
    """

    def __init__(self, prior: Callable[[int], float]) -> None:
        self.prior = prior
        self._profile: dict[int, float] = {}
        self._ratios: deque[float] = deque(maxlen=GAP_WINDOW)

    def _profile_energy(self, slot: int) -> float:
        """Historical profile energy for the slot's hour of day."""
        hour = slot % SLOTS_PER_DAY
        if hour in self._profile:
            return self._profile[hour]
        return self.prior(slot)

    def record(self, slot: int, actual_joules: float) -> None:
        """Feed the realized generation of a finished slot."""
        if actual_joules < 0:
            raise ValueError("actual_joules must be non-negative")
        hour = slot % SLOTS_PER_DAY
        prior = self._profile_energy(slot)
        self._profile[hour] = (
            (1.0 - PROFILE_ALPHA) * prior + PROFILE_ALPHA * actual_joules
        )
        if prior > 1.0:  # ignore night slots: ratio is meaningless
            self._ratios.append(actual_joules / prior)

    def gap_factor(self) -> float:
        """Current weather-conditioning factor (1.0 = profile weather)."""
        if not self._ratios:
            return 1.0
        weights = np.arange(1, len(self._ratios) + 1, dtype=float)
        return float(np.average(np.asarray(self._ratios), weights=weights))

    def forecast(self, slot: int) -> float:
        """Predicted generation (Joules) for the upcoming ``slot``."""
        prediction = self._profile_energy(slot) * self.gap_factor()
        return max(prediction, 0.0)
