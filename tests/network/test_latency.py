"""Latency model: Eq. 1-4 and Algorithm 1."""

import numpy as np
import pytest

from repro.network.latency import LatencyModel, global_data_latency
from repro.units import FIBER_LIGHT_SPEED, mb_to_bits


class TestAlgorithm1:
    def test_zero_volume_zero_latency(self):
        assert global_data_latency(0.0, 1e10, np.array([1e-6])) == 0.0

    def test_small_volume_single_fragment(self):
        # 1 MB over a clean 10 Gb/s link: 8e6 / 1e10 = 0.8 ms.
        latency = global_data_latency(1.0, 1e10, np.array([0.0]))
        assert latency == pytest.approx(8e6 / 1e10)

    def test_ber_slows_transfer(self):
        clean = global_data_latency(100.0, 1e9, np.array([0.0]))
        noisy = global_data_latency(100.0, 1e9, np.array([1e-2]))
        assert noisy > clean

    def test_multi_second_fragmentation(self):
        # 3 seconds of a 1 Gb/s link needed for 3 Gb = 375 MB.
        latency = global_data_latency(375.0, 1e9, np.array([0.0]))
        assert latency == pytest.approx(3.0)

    def test_fragment_count_integer_plus_tail(self):
        latency = global_data_latency(200.0, 1e9, np.array([0.0]))
        # 1.6e9 bits over 1e9 bps -> 1 full second + 0.6 s tail.
        assert latency == pytest.approx(1.6)

    def test_callable_sampler_supported(self):
        latency = global_data_latency(375.0, 1e9, lambda: 0.0)
        assert latency == pytest.approx(3.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            global_data_latency(-1.0, 1e9, np.array([0.0]))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            global_data_latency(1.0, 1e9, np.array([]))

    def test_samples_cycle(self):
        # Alternating clean/dirty seconds still terminates correctly.
        samples = np.array([0.0, 0.5])
        latency = global_data_latency(375.0, 1e9, samples)
        assert latency > 3.0


class TestLocalTerms:
    def test_source_local_eq2(self, latency_model):
        latency = latency_model.source_local_latency(0, 100.0)
        expected = mb_to_bits(100.0) / 10.0e9
        assert latency == pytest.approx(expected)

    def test_dest_local_eq3(self, latency_model):
        latency = latency_model.dest_local_latency(1, 250.0)
        assert latency == pytest.approx(mb_to_bits(250.0) / 10.0e9)

    def test_negative_volume_rejected(self, latency_model):
        with pytest.raises(ValueError):
            latency_model.source_local_latency(0, -1.0)
        with pytest.raises(ValueError):
            latency_model.dest_local_latency(0, -1.0)


class TestGlobalTerm:
    def test_propagation_matches_distance(self, latency_model):
        expected = latency_model.topology.distance_m(0, 2) / FIBER_LIGHT_SPEED
        assert latency_model.propagation_latency(0, 2) == pytest.approx(expected)

    def test_same_dc_zero(self, latency_model):
        assert latency_model.global_latency(1, 1, 500.0, slot=0) == 0.0

    def test_includes_propagation_floor(self, latency_model):
        latency = latency_model.global_latency(0, 2, 0.001, slot=0)
        assert latency >= latency_model.propagation_latency(0, 2)

    def test_deterministic_per_slot(self, latency_model):
        a = latency_model.global_latency(0, 1, 800.0, slot=4)
        b = latency_model.global_latency(0, 1, 800.0, slot=4)
        assert a == b


def source_term(model, src: int, dst: int, volume_mb: float, slot: int) -> float:
    """One source's Eq. 1 term: Eq. 2 plus Eq. 4."""
    return model.source_local_latency(src, volume_mb) + model.global_latency(
        src, dst, volume_mb, slot
    )


class TestDestinationLatency:
    def test_empty_sources_zero(self, latency_model):
        assert latency_model.destination_latency(0, {}, slot=0) == 0.0

    def test_intra_dc_only_local_term(self, latency_model):
        result = latency_model.destination_latency(1, {1: 300.0}, slot=0)
        assert result == latency_model.dest_local_latency(1, 300.0)

    def test_worst_source_selected(self, latency_model):
        result = latency_model.destination_latency(
            1, {0: 5000.0, 2: 1.0}, slot=0
        )
        heavy = source_term(latency_model, 0, 1, 5000.0, 0)
        assert heavy > source_term(latency_model, 2, 1, 1.0, 0)
        assert result == heavy + latency_model.dest_local_latency(1, 5001.0)

    def test_total_is_worst_plus_dest_local(self, latency_model):
        volumes = {0: 500.0, 2: 100.0}
        result = latency_model.destination_latency(1, volumes, slot=3)
        worst = max(
            source_term(latency_model, src, 1, volume, 3)
            for src, volume in volumes.items()
        )
        assert result == worst + latency_model.dest_local_latency(1, 600.0)

    def test_dest_local_counts_all_inflow(self, latency_model):
        with_intra = latency_model.destination_latency(
            1, {0: 100.0, 1: 400.0}, slot=0
        )
        without = latency_model.destination_latency(1, {0: 100.0}, slot=0)
        assert with_intra - without == pytest.approx(
            latency_model.dest_local_latency(1, 500.0)
            - latency_model.dest_local_latency(1, 100.0)
        )

    def test_negative_volume_rejected(self, latency_model):
        with pytest.raises(ValueError):
            latency_model.destination_latency(0, {1: -5.0}, slot=0)


class TestMigrationLatency:
    """A migration's latency is Eq. 1 with its one source DC, the value
    the migration revision checks against the QoS window."""

    def test_zero_volume_zero(self, latency_model):
        assert latency_model.destination_latency(1, {0: 0.0}, slot=0) == 0.0

    def test_monotone_in_volume(self, latency_model):
        small = latency_model.destination_latency(1, {0: 2000.0}, slot=0)
        large = latency_model.destination_latency(1, {0: 8000.0}, slot=0)
        assert large > small

    def test_8gb_feasible_within_qos_window(self, latency_model):
        """An 8 GB image must fit the 72 s window of the paper's setup."""
        assert latency_model.destination_latency(2, {0: 8000.0}, slot=0) < 72.0
