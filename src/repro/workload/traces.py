"""Synthetic CPU utilization traces.

The paper samples "the VMs' utilization of a real DC every 5 seconds for
one day" and extends it "to 7 days by adding statistical variance with
the same mean as the original traces" (Section V-A).  The real trace is
not public, so this module synthesizes an equivalent library:

* each :class:`~repro.workload.vm.AppType` has a diurnal *profile* (mean
  utilization as a function of local hour) and a noise model;
* day 0 of each VM is the archetype profile plus AR(1) noise;
* days 1..6 replay day 0's hourly means and add fresh variance with the
  same mean -- exactly the extension step the paper applies to its
  measured day;
* traces are generated *per (vm, slot)* from a deterministic seed, so
  the library needs O(steps_per_slot) memory regardless of horizon;
* the generators of a call's (vm, slot) rows and day-0 offsets come
  from one batched seeding pass (:func:`repro.seeding.rngs_for`), equal
  to one ``rng_for`` per row; the normal draws stay per row, while the
  archetype means and noise scales are computed once per call and the
  day-0 means clipped together;
* the AR(1) recurrence runs once per call over every requested row,
  one step at a time with a per-row coefficient, so a batch of VMs
  costs one pass rather than one filter per VM.

Trace values are utilization fractions in [0, 1]; multiply by
``vm.cores`` to obtain the demand in core units (see
:meth:`TraceLibrary.slot_demand`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.seeding import rngs_for
from repro.workload.vm import AppType, VirtualMachine

#: Number of slots (hours) per day.
SLOTS_PER_DAY = 24


@dataclass(frozen=True)
class ApplicationProfile:
    """Diurnal shape and noise parameters for one archetype.

    Attributes
    ----------
    base:
        Utilization floor (fraction of peak).
    amplitude:
        Peak-to-floor swing of the diurnal wave.
    peak_hour:
        Local hour of maximum utilization.
    noise_sigma:
        Standard deviation of the AR(1) noise process.
    noise_rho:
        AR(1) coefficient; low values give the fast-changing loads of
        scale-out applications, high values give the slow drift of HPC.
    """

    base: float
    amplitude: float
    peak_hour: float
    noise_sigma: float
    noise_rho: float


#: Archetype profiles.  Scale-out (WEB) peaks in the afternoon with
#: fast-changing noise; BATCH (MapReduce-style) peaks overnight; HPC runs
#: hot and flat.  Parameters are chosen so same-type VMs have strongly
#: coincident peaks (high repulsion) while different types interleave.
PROFILES: dict[AppType, ApplicationProfile] = {
    AppType.WEB: ApplicationProfile(
        base=0.15, amplitude=0.55, peak_hour=15.0, noise_sigma=0.10, noise_rho=0.55
    ),
    AppType.BATCH: ApplicationProfile(
        base=0.20, amplitude=0.45, peak_hour=2.0, noise_sigma=0.07, noise_rho=0.85
    ),
    AppType.HPC: ApplicationProfile(
        base=0.60, amplitude=0.20, peak_hour=9.0, noise_sigma=0.03, noise_rho=0.95
    ),
}


def diurnal_mean(profile: ApplicationProfile, hour: np.ndarray | float) -> np.ndarray:
    """Mean utilization of ``profile`` at local ``hour`` (0-24, wraps).

    The shape is a raised cosine centered on ``peak_hour`` -- smooth,
    periodic and strictly inside (0, 1) for the profiles above.
    """
    phase = 2.0 * np.pi * (np.asarray(hour, dtype=float) - profile.peak_hour) / 24.0
    return profile.base + profile.amplitude * 0.5 * (1.0 + np.cos(phase))


class TraceLibrary:
    """Deterministic per-(vm, slot) utilization trace generator.

    Every (vm, slot) cell draws from its own seeded RNG, so a row never
    depends on which other VMs share a call; the rows of one call are
    then filtered together.

    Parameters
    ----------
    steps_per_slot:
        Samples per one-hour slot.  The paper's 5 s sampling gives 720;
        scaled experiments use 60 (one-minute sampling).
    extension_sigma:
        Extra same-mean variance injected on days 1..6, reproducing the
        paper's one-day-to-one-week extension.
    seed:
        Library-wide randomness root, mixed with each VM's own seed.
    """

    def __init__(
        self,
        steps_per_slot: int = 720,
        extension_sigma: float = 0.05,
        seed: int = 0,
    ) -> None:
        if steps_per_slot < 1:
            raise ValueError("steps_per_slot must be >= 1")
        self.steps_per_slot = steps_per_slot
        self.extension_sigma = extension_sigma
        self.seed = seed

    def _hour_of_day(self, vm: VirtualMachine, slot: int) -> float:
        return (slot + vm.phase_hours) % SLOTS_PER_DAY

    @staticmethod
    def _tags(vms: list[VirtualMachine]) -> tuple[np.ndarray, np.ndarray]:
        """Per-VM seed and id arrays, the batched seeding tags."""
        seeds = np.array([vm.seed for vm in vms], dtype=np.int64)
        ids = np.array([vm.vm_id for vm in vms], dtype=np.int64)
        return seeds, ids

    def _slot_means(self, vms: list[VirtualMachine], slot: int) -> np.ndarray:
        """Mean utilization (fraction) of each VM in ``vms`` during ``slot``.

        Day 0 realizes the archetype mean plus a per-hour offset, drawn
        from the ``(seed, vm.seed, vm.vm_id, "day0", hour)`` generator;
        later days replay day 0's value (same mean), matching the
        extension rule.  The archetype mean is computed once per
        (archetype, hour) of the call, since a service's VMs share
        both, and the means are clipped together after the draws.
        """
        hours = [self._hour_of_day(vm, slot) for vm in vms]
        day0 = rngs_for(
            self.seed, *self._tags(vms), "day0",
            np.array([int(hour) for hour in hours], dtype=np.int64),
        )
        # (archetype mean, day-0 offset sigma) per (archetype, hour).
        hour_models: dict[tuple[AppType, float], tuple[float, float]] = {}
        means = np.empty(len(vms))
        for index, (vm, hour, rng) in enumerate(zip(vms, hours, day0)):
            key = (vm.app_type, hour)
            model = hour_models.get(key)
            if model is None:
                profile = PROFILES[vm.app_type]
                model = hour_models[key] = (
                    float(diurnal_mean(profile, hour)),
                    profile.noise_sigma * 0.5,
                )
            base, offset_sigma = model
            means[index] = base + rng.normal(0.0, offset_sigma)
        return np.clip(means, 0.02, 0.98, out=means)

    def slot_mean(self, vm: VirtualMachine, slot: int) -> float:
        """Mean utilization (fraction) of ``vm`` during ``slot``.

        The one-VM case of :meth:`_slot_means`, part of the trace
        provider interface; tests use it as the trace ground truth.
        """
        return float(self._slot_means([vm], slot)[0])

    def _fractions(self, vms: list[VirtualMachine], slot: int) -> np.ndarray:
        """Utilization fractions of every VM in ``vms`` over ``slot``.

        Draws each row's AR(1) innovations and start level from the
        ``(seed, vm.seed, vm.vm_id, slot)`` generator, in ``vms``
        order, then filters all rows in one pass.  Days after the first
        add fresh same-mean variance (``extension_sigma``), the paper's
        week-extension rule.
        """
        count = len(vms)
        noise = np.empty((count, self.steps_per_slot))
        means = self._slot_means(vms, slot)
        # Per archetype: AR(1) coefficient, innovation scale and the
        # stationary marginal sigma of the start level, widened on days
        # after the first by the extension variance.
        noise_models = {}
        for app_type, profile in PROFILES.items():
            sigma = profile.noise_sigma
            if slot >= SLOTS_PER_DAY:
                sigma = float(np.hypot(sigma, self.extension_sigma))
            innovation = sigma * np.sqrt(1.0 - profile.noise_rho**2)
            noise_models[app_type] = (profile.noise_rho, innovation, sigma)
        rho = np.empty(count)
        level = np.empty(count)
        rngs = rngs_for(self.seed, *self._tags(vms), slot)
        for index, (vm, rng) in enumerate(zip(vms, rngs)):
            rho[index], innovation, sigma = noise_models[vm.app_type]
            noise[index] = rng.normal(0.0, innovation, self.steps_per_slot)
            level[index] = rng.normal(0.0, sigma)
        # In place, y[t] = x[t] + rho * y[t-1] from y[-1] = level, every
        # row at once.  Each step is one multiply and one add per
        # element, the two IEEE operations of lfilter([1], [1, -rho], x,
        # zi=[rho * level]), so each row equals that filter's output
        # bit for bit (tests/workload/test_traces.py keeps it as the
        # oracle).
        previous = level
        for step in range(self.steps_per_slot):
            column = noise[:, step]
            column += rho * previous
            previous = column
        noise += means[:, None]
        return np.clip(noise, 0.0, 1.0, out=noise)

    def slot_trace(self, vm: VirtualMachine, slot: int) -> np.ndarray:
        """Utilization fractions for ``vm`` over ``slot``.

        Returns an array of shape ``(steps_per_slot,)`` with values in
        [0, 1]: one row of :meth:`_fractions`.
        """
        return self._fractions([vm], slot)[0]

    def slot_demand(self, vm: VirtualMachine, slot: int) -> np.ndarray:
        """CPU demand in core units for ``vm`` over ``slot``."""
        return self.slot_trace(vm, slot) * vm.cores

    def slot_demand_many(
        self, vms: list[VirtualMachine], slot: int
    ) -> np.ndarray:
        """Stacked demand traces: shape ``(len(vms), steps_per_slot)``.

        Row ``i`` is :meth:`slot_demand` of ``vms[i]``, bit for bit;
        this is the array the correlation metrics and the power model
        consume.  RNG draws stay per (vm, slot), so no row depends on
        its neighbours, while the AR(1) filter runs over all rows
        together in one pass.
        """
        matrix = self._fractions(vms, slot)
        matrix *= np.array([vm.cores for vm in vms], dtype=float)[:, None]
        return matrix
