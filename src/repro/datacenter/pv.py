"""Photovoltaic generation model.

Table I assigns each DC a PV module size (150/100/50 kWp).  GreenDataNet
production data is not public, so generation is synthesized as:

``power = kWp * clear_sky(local_hour) * weather(day)``

* ``clear_sky`` is a daylight half-sine raised to an air-mass exponent,
  zero outside sunrise..sunset;
* ``weather`` is a per-day cloudiness factor drawn deterministically per
  (site, day) -- mostly clear days with occasional heavy overcast --
  plus fast small-amplitude cloud noise.

The same object serves both the *real* generation consumed by the green
controller and, through :mod:`repro.datacenter.forecast`, the forecast
the global controller plans with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.seeding import rng_for
from repro.units import SECONDS_PER_HOUR


@dataclass
class PVArray:
    """A PV installation at one site.

    Attributes
    ----------
    kwp:
        Nameplate capacity in kW-peak.
    tz_offset_hours:
        Local time zone (daylight window is in local time).
    sunrise_hour / sunset_hour:
        Local daylight window.
    airmass_exponent:
        Sharpens the half-sine toward a realistic noon peak.
    seed:
        Site randomness root for the weather process.
    """

    kwp: float
    tz_offset_hours: float = 0.0
    sunrise_hour: float = 6.0
    sunset_hour: float = 20.0
    airmass_exponent: float = 1.3
    seed: int = 0
    _weather_cache: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.kwp < 0:
            raise ValueError("kwp must be non-negative")
        if not self.sunrise_hour < self.sunset_hour:
            raise ValueError("sunrise must precede sunset")

    def clear_sky_fraction(self, time_s: float | np.ndarray) -> np.ndarray:
        """Clear-sky output fraction (0..1) at absolute UTC seconds."""
        hours = np.asarray(time_s, dtype=float) / SECONDS_PER_HOUR
        local = (hours + self.tz_offset_hours) % 24.0
        span = self.sunset_hour - self.sunrise_hour
        position = (local - self.sunrise_hour) / span
        daylight = (position >= 0.0) & (position <= 1.0)
        shape = np.sin(np.pi * np.clip(position, 0.0, 1.0)) ** self.airmass_exponent
        return np.where(daylight, shape, 0.0)

    def clear_sky_energy(self, slot: int) -> float:
        """Clear-sky energy (J) of one-hour ``slot``: the forecaster's
        prior (trapezoidal over 13 samples, no weather)."""
        times = slot * SECONDS_PER_HOUR + np.linspace(0.0, SECONDS_PER_HOUR, 13)
        watts = self.kwp * 1000.0 * self.clear_sky_fraction(times)
        return float(np.trapezoid(watts, times))

    def weather_factor(self, day: int) -> float:
        """Cloudiness factor for a day: 1.0 clear, small under overcast."""
        if day not in self._weather_cache:
            rng = rng_for(self.seed, "weather", day)
            if rng.random() < 0.25:
                factor = float(rng.uniform(0.15, 0.55))  # overcast day
            else:
                factor = float(rng.uniform(0.75, 1.0))  # clear-ish day
            self._weather_cache[day] = factor
        return self._weather_cache[day]

    def power_watts(self, time_s: float | np.ndarray) -> np.ndarray:
        """Generated power (W) at absolute UTC seconds.

        Scalar in, 0-d array out; use ``float(...)`` for scalars.
        """
        time_arr = np.asarray(time_s, dtype=float)
        days = (time_arr // (24.0 * SECONDS_PER_HOUR)).astype(int)
        weather = np.vectorize(self.weather_factor)(days) if time_arr.size else days
        clear = self.clear_sky_fraction(time_arr)
        # Fast cloud flicker, deterministic in time.
        flicker = 1.0 - 0.08 * (0.5 + 0.5 * np.sin(time_arr / 522.0))
        return self.kwp * 1000.0 * clear * weather * flicker

    def slot_energy_joules(self, slot: int, steps: int = 60) -> float:
        """Energy generated during one-hour ``slot`` (trapezoidal)."""
        times = slot * SECONDS_PER_HOUR + np.linspace(0.0, SECONDS_PER_HOUR, steps)
        powers = self.power_watts(times)
        return float(np.trapezoid(powers, times))


def fleet_power_watts(
    arrays: list[PVArray], time_s: np.ndarray
) -> np.ndarray:
    """Generated power of several PV arrays at shared times.

    Returns shape ``(len(arrays),) + times.shape``; row ``i`` is
    bit-identical to ``arrays[i].power_watts(time_s)`` (the identical
    per-element expression is evaluated, with the time-only factors --
    day indices and the deterministic cloud flicker -- hoisted out and
    computed once for the whole fleet).  The per-site weather factors
    keep coming from each array's seeded per-day cache, but are drawn
    once per *unique* day instead of once per sample -- a slot's times
    span one or two days, not 720 -- and gathered back per sample,
    which leaves every element exactly the factor
    :meth:`PVArray.weather_factor` returns for its day.
    """
    times = np.asarray(time_s, dtype=float)
    out = np.empty((len(arrays),) + times.shape)
    if not arrays:
        return out
    days = (times // (24.0 * SECONDS_PER_HOUR)).astype(int)
    unique_days, inverse = np.unique(days, return_inverse=True)
    flicker = 1.0 - 0.08 * (0.5 + 0.5 * np.sin(times / 522.0))
    for row, array in enumerate(arrays):
        factors = np.array(
            [array.weather_factor(int(day)) for day in unique_days]
        )
        weather = factors[inverse].reshape(times.shape)
        clear = array.clear_sky_fraction(times)
        out[row] = array.kwp * 1000.0 * clear * weather * flicker
    return out
