"""Property-based tests on the network/latency substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_specs
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel, global_data_latency
from repro.network.topology import GeoTopology


@pytest.fixture(scope="module")
def model():
    return LatencyModel(GeoTopology(make_specs()), BERProcess(seed=5))


class TestAlgorithm1Properties:
    @given(
        volume=st.floats(0.0, 1e5, allow_nan=False),
        bandwidth=st.floats(1e6, 1e11, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_latency_non_negative_and_finite(self, volume, bandwidth):
        latency = global_data_latency(volume, bandwidth, np.array([1e-4]))
        assert latency >= 0.0
        assert np.isfinite(latency)

    @given(
        volume=st.floats(0.1, 1e4, allow_nan=False),
        bandwidth=st.floats(1e7, 1e11, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_higher_ber_never_faster(self, volume, bandwidth):
        clean = global_data_latency(volume, bandwidth, np.array([1e-6]))
        dirty = global_data_latency(volume, bandwidth, np.array([1e-2]))
        assert dirty >= clean

    @given(
        small=st.floats(0.1, 100.0, allow_nan=False),
        extra=st.floats(0.1, 100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_volume(self, small, extra):
        bandwidth = 1e9
        samples = np.array([1e-4])
        a = global_data_latency(small, bandwidth, samples)
        b = global_data_latency(small + extra, bandwidth, samples)
        assert b >= a

    @given(volume=st.floats(0.1, 1e4, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_at_least_ideal_transfer_time(self, volume):
        bandwidth = 1e9
        latency = global_data_latency(volume, bandwidth, np.array([0.5]))
        ideal = volume * 8e6 / bandwidth
        assert latency >= ideal - 1e-12


class TestDestinationLatencyProperties:
    @given(
        volumes=st.dictionaries(
            st.integers(0, 2), st.floats(0.0, 5e3, allow_nan=False), max_size=3
        ),
        dst=st.integers(0, 2),
        slot=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_at_least_each_component(self, model, volumes, dst, slot):
        result = model.destination_latency(dst, volumes, slot)
        inflow = sum(volumes.values())
        assert result >= model.dest_local_latency(dst, inflow) - 1e-12
        for src, volume in volumes.items():
            if src == dst or volume == 0.0:
                continue
            term = model.source_local_latency(src, volume) + model.global_latency(
                src, dst, volume, slot
            )
            assert result >= term - 1e-12

    @given(
        volume=st.floats(0.1, 5e3, allow_nan=False),
        slot=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_migration_latency_positive_between_dcs(self, model, volume, slot):
        latency = model.destination_latency(1, {0: volume}, slot)
        assert latency > 0.0
        assert np.isfinite(latency)
