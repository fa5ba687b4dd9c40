"""VM model: validation, lifetimes, sampling distributions."""

import numpy as np
import pytest

from tests.conftest import make_vm
from repro.workload.vm import (
    APP_TYPE_PROBS,
    IMAGE_SIZE_PROBS,
    IMAGE_SIZES_GB,
    AppType,
    sample_app_type,
    sample_image_size_gb,
)


class TestValidation:
    def test_valid_vm_constructs(self):
        vm = make_vm(vm_id=7)
        assert vm.vm_id == 7

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            make_vm(cores=0.0)

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            make_vm(cores=-1.0)

    def test_departure_before_arrival_rejected(self):
        with pytest.raises(ValueError, match="departure"):
            make_vm(arrival_slot=10, departure_slot=10)

    def test_zero_image_rejected(self):
        with pytest.raises(ValueError, match="image"):
            make_vm(image_gb=0.0)


class TestLifecycle:
    def test_alive_at_arrival(self):
        vm = make_vm(arrival_slot=3, departure_slot=10)
        assert vm.alive_at(3)

    def test_not_alive_before_arrival(self):
        vm = make_vm(arrival_slot=3, departure_slot=10)
        assert not vm.alive_at(2)

    def test_not_alive_at_departure(self):
        vm = make_vm(arrival_slot=3, departure_slot=10)
        assert not vm.alive_at(10)

    def test_alive_last_slot(self):
        vm = make_vm(arrival_slot=3, departure_slot=10)
        assert vm.alive_at(9)


class TestSampling:
    def test_image_sizes_from_support(self, rng):
        sizes = {sample_image_size_gb(rng) for _ in range(200)}
        assert sizes <= set(IMAGE_SIZES_GB)

    def test_image_size_distribution(self, rng):
        draws = np.array([sample_image_size_gb(rng) for _ in range(4000)])
        for size, prob in zip(IMAGE_SIZES_GB, IMAGE_SIZE_PROBS):
            frequency = float(np.mean(draws == size))
            assert frequency == pytest.approx(prob, abs=0.05)

    def test_image_probs_sum_to_one(self):
        assert sum(IMAGE_SIZE_PROBS) == pytest.approx(1.0)

    def test_app_types_from_enum(self, rng):
        draws = {sample_app_type(rng) for _ in range(100)}
        assert draws <= set(AppType)

    def test_app_type_distribution(self, rng):
        draws = [sample_app_type(rng) for _ in range(4000)]
        for app_type, prob in APP_TYPE_PROBS.items():
            frequency = draws.count(app_type) / len(draws)
            assert frequency == pytest.approx(prob, abs=0.05)

    def test_app_type_probs_sum_to_one(self):
        assert sum(APP_TYPE_PROBS.values()) == pytest.approx(1.0)

    def test_frozen_dataclass(self):
        vm = make_vm()
        with pytest.raises(AttributeError):
            vm.cores = 4.0
