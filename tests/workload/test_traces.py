"""Trace library: shapes, ranges, determinism, diurnal structure."""

import dataclasses

import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

from tests.conftest import make_vm
from repro.seeding import rng_for
from repro.workload.traces import (
    PROFILES,
    SLOTS_PER_DAY,
    TraceLibrary,
    diurnal_mean,
)
from repro.workload.vm import AppType


@pytest.fixture
def library() -> TraceLibrary:
    return TraceLibrary(steps_per_slot=60, seed=11)


class TestDiurnalMean:
    def test_peak_at_peak_hour(self):
        profile = PROFILES[AppType.WEB]
        at_peak = diurnal_mean(profile, profile.peak_hour)
        off_peak = diurnal_mean(profile, (profile.peak_hour + 12.0) % 24.0)
        assert at_peak > off_peak

    def test_wraps_24h(self):
        profile = PROFILES[AppType.BATCH]
        assert diurnal_mean(profile, 1.0) == pytest.approx(
            float(diurnal_mean(profile, 25.0))
        )

    def test_within_unit_interval(self):
        hours = np.linspace(0, 24, 97)
        for profile in PROFILES.values():
            means = diurnal_mean(profile, hours)
            assert np.all(means > 0.0)
            assert np.all(means < 1.0)

    def test_hpc_flatter_than_web(self):
        hours = np.linspace(0, 24, 97)
        web = diurnal_mean(PROFILES[AppType.WEB], hours)
        hpc = diurnal_mean(PROFILES[AppType.HPC], hours)
        assert np.ptp(web) > np.ptp(hpc)


class TestSlotTrace:
    def test_shape(self, library):
        trace = library.slot_trace(make_vm(), 0)
        assert trace.shape == (60,)

    def test_bounded(self, library):
        for slot in (0, 30, 100):
            trace = library.slot_trace(make_vm(seed=5), slot)
            assert np.all(trace >= 0.0)
            assert np.all(trace <= 1.0)

    def test_deterministic(self, library):
        """A (vm, slot) trace depends only on the library seed and the
        VM: a fresh library reproduces it, alone or inside a batch."""
        vm = make_vm(seed=5)
        trace = library.slot_trace(vm, 3)
        fresh = TraceLibrary(steps_per_slot=60, seed=11)
        assert np.array_equal(fresh.slot_trace(vm, 3), trace)
        neighbours = [
            make_vm(vm_id=vm_id, app_type=app_type, seed=40 + vm_id)
            for vm_id, app_type in enumerate(AppType, start=1)
        ]
        batch = fresh.slot_demand_many(neighbours[:1] + [vm] + neighbours[1:], 3)
        assert np.array_equal(batch[1], trace * vm.cores)

    def test_different_slots_differ(self, library):
        vm = make_vm(seed=5)
        assert not np.array_equal(library.slot_trace(vm, 3), library.slot_trace(vm, 4))

    def test_different_vms_differ(self, library):
        a = make_vm(vm_id=0, seed=5)
        b = make_vm(vm_id=1, seed=6)
        assert not np.array_equal(library.slot_trace(a, 3), library.slot_trace(b, 3))

    def test_library_seed_changes_traces(self):
        vm = make_vm(seed=5)
        a = TraceLibrary(steps_per_slot=30, seed=1).slot_trace(vm, 0)
        b = TraceLibrary(steps_per_slot=30, seed=2).slot_trace(vm, 0)
        assert not np.array_equal(a, b)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            TraceLibrary(steps_per_slot=0)


def unclipped_day0_mean(library, vm, slot):
    """The archetype mean plus the day-0 offset, before the clip."""
    profile = PROFILES[vm.app_type]
    hour = (slot + vm.phase_hours) % SLOTS_PER_DAY
    day0 = rng_for(library.seed, vm.seed, vm.vm_id, "day0", int(hour))
    offset = float(day0.normal(0.0, profile.noise_sigma * 0.5))
    return float(diurnal_mean(profile, hour)) + offset


def lfiltic_slot_trace(library, vm, slot):
    """``slot_trace`` from one ``rng_for`` generator per draw site, with
    its filter state built by ``lfiltic``."""
    profile = PROFILES[vm.app_type]
    mean = float(np.clip(unclipped_day0_mean(library, vm, slot), 0.02, 0.98))
    rng = rng_for(library.seed, vm.seed, vm.vm_id, slot)
    sigma = profile.noise_sigma
    if slot >= SLOTS_PER_DAY:
        sigma = float(np.hypot(sigma, library.extension_sigma))
    rho = profile.noise_rho
    innovations = rng.normal(0.0, sigma * np.sqrt(1.0 - rho**2), library.steps_per_slot)
    level = rng.normal(0.0, sigma)
    zi = lfiltic([1.0], [1.0, -rho], [level])
    noise, _ = lfilter([1.0], [1.0, -rho], innovations, zi=zi)
    return np.clip(mean + noise, 0.0, 1.0)


class TestFilterState:
    """The closed-form AR(1) filter state equals ``lfiltic``'s exactly."""

    @pytest.mark.parametrize("slot", [7, SLOTS_PER_DAY + 7])
    @pytest.mark.parametrize("app_type", list(AppType))
    def test_slot_trace_matches_lfiltic(self, library, app_type, slot):
        for vm_id in range(10):
            vm = make_vm(vm_id=vm_id, app_type=app_type, seed=100 + vm_id)
            assert np.array_equal(
                library.slot_trace(vm, slot), lfiltic_slot_trace(library, vm, slot)
            )


class TestBatchedFilter:
    """``slot_demand_many`` filters all its rows in one AR(1) pass with
    a per-row coefficient; every row must still equal ``lfilter`` on
    that VM's own draws."""

    @staticmethod
    def mixed_vms(library, count=9):
        kinds = list(AppType)
        vms = [
            make_vm(
                vm_id=vm_id,
                app_type=kinds[vm_id % len(kinds)],
                cores=1.0 + vm_id % 4,
                # Fractional phases put the day-0 hour tag's truncation
                # under test.
                phase_hours=0.75 * vm_id,
                seed=200 + vm_id,
            )
            for vm_id in range(count)
        ]
        # Service peers of the first three: same archetype and phase, so
        # one call reuses each (archetype, hour) mean.
        vms += [
            dataclasses.replace(vm, vm_id=count + index, seed=300 + index)
            for index, vm in enumerate(vms[:3])
        ]
        # A web VM at its trough hour (3 at slots 7 and 31) whose day-0
        # offset pulls its mean under the 0.02 floor.
        trough = make_vm(vm_id=count + 3, app_type=AppType.WEB, phase_hours=20.0)
        candidates = (
            dataclasses.replace(trough, seed=seed) for seed in range(1000, 11000)
        )
        vms.append(
            next(vm for vm in candidates if unclipped_day0_mean(library, vm, 7) < 0.02)
        )
        return vms

    @pytest.mark.parametrize("steps", [1, 60, 720])
    @pytest.mark.parametrize("slot", [7, SLOTS_PER_DAY + 7])
    def test_rows_match_lfilter(self, steps, slot):
        library = TraceLibrary(steps_per_slot=steps, seed=11)
        vms = self.mixed_vms(library)
        assert unclipped_day0_mean(library, vms[-1], slot) < 0.02
        matrix = library.slot_demand_many(vms, slot)
        assert matrix.shape == (len(vms), steps)
        for row, vm in zip(matrix, vms):
            expected = lfiltic_slot_trace(library, vm, slot) * vm.cores
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("steps", [1, 60, 720])
    def test_empty_batch(self, steps):
        library = TraceLibrary(steps_per_slot=steps, seed=11)
        assert library.slot_demand_many([], 0).shape == (0, steps)


class TestWeekExtension:
    def test_same_mean_across_days(self, library):
        """Days 1..6 replay day 0's hourly mean (the paper's extension)."""
        vm = make_vm(seed=21, app_type=AppType.BATCH)
        for hour in (2, 14):
            assert library.slot_mean(vm, hour) == pytest.approx(
                library.slot_mean(vm, hour + SLOTS_PER_DAY)
            )

    def test_extension_adds_variance(self):
        library = TraceLibrary(steps_per_slot=400, extension_sigma=0.2, seed=2)
        vm = make_vm(seed=8, app_type=AppType.HPC)
        day0 = library.slot_trace(vm, 9)
        day3 = library.slot_trace(vm, 9 + 3 * SLOTS_PER_DAY)
        assert day3.std() > day0.std()

    def test_realized_trace_tracks_slot_mean(self, library):
        vm = make_vm(seed=31, app_type=AppType.HPC)
        trace = library.slot_trace(vm, 9)
        assert trace.mean() == pytest.approx(library.slot_mean(vm, 9), abs=0.1)


class TestDemand:
    def test_demand_scales_with_cores(self, library):
        vm = make_vm(cores=3.0, seed=4)
        assert np.allclose(
            library.slot_demand(vm, 2), library.slot_trace(vm, 2) * 3.0
        )

    def test_demand_matrix_alignment(self, library, six_vms):
        """``slot_demand_many`` rows are the stacked ``slot_demand``s."""
        for slot in (1, 30):  # day one and a week-extended day
            matrix = library.slot_demand_many(six_vms, slot)
            stacked = np.stack(
                [library.slot_demand(vm, slot) for vm in six_vms]
            )
            assert matrix.shape == (6, 60)
            assert np.array_equal(matrix, stacked)

    def test_demand_matrix_empty(self, library):
        assert library.slot_demand_many([], 0).shape == (0, 60)

    def test_phase_shifts_peak(self):
        library = TraceLibrary(steps_per_slot=30, seed=3)
        base = make_vm(vm_id=0, seed=9, phase_hours=0.0, app_type=AppType.WEB)
        shifted = make_vm(vm_id=0, seed=9, phase_hours=6.0, app_type=AppType.WEB)
        means_base = [library.slot_mean(base, s) for s in range(24)]
        means_shift = [library.slot_mean(shifted, s) for s in range(24)]
        assert int(np.argmax(means_base)) != int(np.argmax(means_shift))


class TestCorrelationStructure:
    def test_same_type_vms_positively_correlated(self):
        """Same archetype + phase -> coincident diurnal peaks."""
        library = TraceLibrary(steps_per_slot=30, seed=13)
        a = make_vm(vm_id=0, seed=1, app_type=AppType.WEB)
        b = make_vm(vm_id=1, seed=2, app_type=AppType.WEB)
        c = make_vm(vm_id=2, seed=3, app_type=AppType.BATCH)
        day_a = np.concatenate([library.slot_trace(a, s) for s in range(24)])
        day_b = np.concatenate([library.slot_trace(b, s) for s in range(24)])
        day_c = np.concatenate([library.slot_trace(c, s) for s in range(24)])
        same = np.corrcoef(day_a, day_b)[0, 1]
        cross = np.corrcoef(day_a, day_c)[0, 1]
        assert same > 0.5
        assert same > cross
