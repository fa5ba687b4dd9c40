"""Local phase: correlation-aware vs plain FFD allocation, DVFS."""

import numpy as np
import pytest

from repro.core.local import (
    ServerAllocation,
    allocate_correlation_aware,
    allocate_first_fit,
)
from repro.datacenter.server import XEON_E5410


def anti_phase_traces(n_pairs: int, steps: int = 40, high: float = 4.0):
    """Pairs of traces whose peaks never coincide."""
    half = steps // 2
    a = np.concatenate([np.full(half, high), np.full(steps - half, 0.2)])
    b = np.concatenate([np.full(half, 0.2), np.full(steps - half, high)])
    traces = []
    for _ in range(n_pairs):
        traces.extend([a, b])
    return np.stack(traces)


class TestInvariants:
    @pytest.mark.parametrize(
        "allocator", [allocate_correlation_aware, allocate_first_fit]
    )
    def test_every_vm_placed_once(self, allocator):
        rng = np.random.default_rng(0)
        demand = rng.uniform(0.2, 3.0, size=(12, 30))
        allocation = allocator(list(range(12)), demand, XEON_E5410, n_servers=10)
        allocation.validate()
        placed = sorted(
            vm_id for vms in allocation.server_vms for vm_id in vms
        )
        assert placed == list(range(12))

    @pytest.mark.parametrize(
        "allocator", [allocate_correlation_aware, allocate_first_fit]
    )
    def test_empty_input(self, allocator):
        allocation = allocator([], np.zeros((0, 10)), XEON_E5410, n_servers=5)
        assert allocation.active_servers == 0

    @pytest.mark.parametrize(
        "allocator", [allocate_correlation_aware, allocate_first_fit]
    )
    def test_never_more_than_physical_servers(self, allocator):
        rng = np.random.default_rng(1)
        demand = rng.uniform(3.0, 8.0, size=(30, 20))
        allocation = allocator(list(range(30)), demand, XEON_E5410, n_servers=4)
        assert allocation.active_servers <= 4

    @pytest.mark.parametrize(
        "allocator", [allocate_correlation_aware, allocate_first_fit]
    )
    def test_rows_must_match_ids(self, allocator):
        with pytest.raises(ValueError):
            allocator([1, 2], np.zeros((3, 10)), XEON_E5410, n_servers=2)

    @pytest.mark.parametrize(
        "allocator", [allocate_correlation_aware, allocate_first_fit]
    )
    def test_n_servers_positive(self, allocator):
        with pytest.raises(ValueError):
            allocator([1], np.ones((1, 5)), XEON_E5410, n_servers=0)


class TestCorrelationAwarePacking:
    def test_anti_correlated_pack_tighter_than_ffd(self):
        """The paper's core local-phase claim (Kim DATE'13)."""
        demand = anti_phase_traces(n_pairs=4, high=4.2)  # 8 VMs, peak 4.2
        ids = list(range(8))
        aware = allocate_correlation_aware(ids, demand, XEON_E5410, n_servers=8)
        blind = allocate_first_fit(ids, demand, XEON_E5410, n_servers=8)
        # Combined peak of an anti-phase pair is 4.4 <= 8, so two fit a
        # server; sum-of-peaks sizing sees 8.4 > 8 and refuses.
        assert aware.active_servers < blind.active_servers

    def test_combined_peak_respected(self):
        demand = anti_phase_traces(n_pairs=2, high=4.0)
        allocation = allocate_correlation_aware(
            list(range(4)), demand, XEON_E5410, n_servers=4
        )
        for vms in allocation.server_vms:
            rows = [vm_id for vm_id in vms]
            combined = demand[rows].sum(axis=0)
            assert combined.max() <= XEON_E5410.max_capacity + 1e-9

    def test_overload_path_picks_least_peak(self):
        demand = np.full((3, 10), 7.0)  # each VM nearly fills a server
        allocation = allocate_correlation_aware(
            [0, 1, 2], demand, XEON_E5410, n_servers=2
        )
        assert allocation.active_servers == 2
        assert any(len(vms) == 2 for vms in allocation.server_vms)


class TestFrequencySelection:
    def test_low_combined_peak_runs_low_frequency(self):
        demand = np.full((2, 10), 1.0)
        allocation = allocate_correlation_aware(
            [0, 1], demand, XEON_E5410, n_servers=2
        )
        assert allocation.frequencies == [0]
        assert allocation.saturated == [False]

    def test_high_peak_needs_top_frequency(self):
        demand = np.full((1, 10), 7.5)
        allocation = allocate_correlation_aware(
            [0], demand, XEON_E5410, n_servers=1
        )
        assert allocation.frequencies == [1]

    def test_saturation_flagged(self):
        demand = np.full((2, 10), 6.0)
        allocation = allocate_correlation_aware(
            [0, 1], demand, XEON_E5410, n_servers=1
        )
        assert allocation.saturated == [True]

    def test_ffd_sizes_by_sum_of_peaks(self):
        """Plain FFD picks frequency from the pessimistic load bound."""
        demand = anti_phase_traces(n_pairs=1, high=3.5)  # combined peak 3.7
        blind = allocate_first_fit([0, 1], demand, XEON_E5410, n_servers=2)
        if blind.active_servers == 1:
            # sum of peaks is 7.0 -> top frequency despite real peak 3.7
            assert blind.frequencies[0] == 1


class TestServerAllocationType:
    def test_vm_count(self):
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=2,
            server_vms=[[1, 2], [3]],
            frequencies=[0, 1],
            saturated=[False, False],
        )
        assert allocation.vm_count() == 3

    def test_validate_rejects_duplicates(self):
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=2,
            server_vms=[[1], [1]],
            frequencies=[0, 0],
            saturated=[False, False],
        )
        with pytest.raises(ValueError, match="twice"):
            allocation.validate()

    def test_validate_rejects_empty_server(self):
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=2,
            server_vms=[[]],
            frequencies=[0],
            saturated=[False],
        )
        with pytest.raises(ValueError, match="no VMs"):
            allocation.validate()

    def test_validate_rejects_too_many_servers(self):
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=1,
            server_vms=[[1], [2]],
            frequencies=[0, 0],
            saturated=[False, False],
        )
        with pytest.raises(ValueError, match="physical"):
            allocation.validate()

    def test_validate_rejects_length_mismatch(self):
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=2,
            server_vms=[[1]],
            frequencies=[],
            saturated=[False],
        )
        with pytest.raises(ValueError, match="frequencies"):
            allocation.validate()
