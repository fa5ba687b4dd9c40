"""Arrival process: determinism, service structure, population queries."""

import numpy as np
import pytest

from repro.workload.arrivals import ArrivalModel, VMPopulation


@pytest.fixture(scope="module")
def population() -> VMPopulation:
    model = ArrivalModel(initial_services=10, arrival_rate=1.5)
    return VMPopulation.generate(model, horizon_slots=48, seed=42)


class TestArrivalModel:
    def test_defaults_valid(self):
        ArrivalModel()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            ArrivalModel(arrival_rate=-1.0)

    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            ArrivalModel(mean_lifetime_slots=0.0)

    def test_bad_service_size_rejected(self):
        with pytest.raises(ValueError, match="service size"):
            ArrivalModel(min_service_size=5, max_service_size=2)

    def test_bad_cores_rejected(self):
        with pytest.raises(ValueError, match="core"):
            ArrivalModel(min_cores=0.0)


class TestGeneration:
    def test_deterministic(self):
        model = ArrivalModel(initial_services=5)
        a = VMPopulation.generate(model, 24, seed=1)
        b = VMPopulation.generate(model, 24, seed=1)
        assert [vm.vm_id for vm in a.vms] == [vm.vm_id for vm in b.vms]
        assert [vm.seed for vm in a.vms] == [vm.seed for vm in b.vms]

    def test_seed_changes_population(self):
        model = ArrivalModel(initial_services=5)
        a = VMPopulation.generate(model, 24, seed=1)
        b = VMPopulation.generate(model, 24, seed=2)
        assert [vm.departure_slot for vm in a.vms] != [
            vm.departure_slot for vm in b.vms
        ]

    def test_unique_vm_ids(self, population):
        ids = [vm.vm_id for vm in population.vms]
        assert len(ids) == len(set(ids))

    def test_initial_services_alive_at_zero(self, population):
        services_at_zero = {vm.service_id for vm in population.alive(0)}
        assert len(services_at_zero) == 10

    def test_service_members_share_type_and_phase(self, population):
        by_service = {}
        for vm in population.vms:
            by_service.setdefault(vm.service_id, []).append(vm)
        for members in by_service.values():
            assert len({vm.app_type for vm in members}) == 1
            assert len({vm.phase_hours for vm in members}) == 1

    def test_service_sizes_within_bounds(self, population):
        by_service = {}
        for vm in population.vms:
            by_service.setdefault(vm.service_id, []).append(vm)
        model = ArrivalModel(initial_services=10, arrival_rate=1.5)
        for members in by_service.values():
            assert model.min_service_size <= len(members) <= model.max_service_size

    def test_cores_within_bounds(self, population):
        for vm in population.vms:
            assert 1.0 <= vm.cores <= 4.0

    def test_lifetimes_at_least_one(self, population):
        assert all(
            vm.departure_slot - vm.arrival_slot >= 1 for vm in population.vms
        )

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            VMPopulation.generate(ArrivalModel(), 0)


class TestQueries:
    def test_alive_consistent_with_flags(self, population):
        for slot in (0, 10, 47):
            alive = population.alive(slot)
            expected = [vm for vm in population.vms if vm.alive_at(slot)]
            assert alive == expected

    def test_alive_is_cached(self, population):
        assert population.alive(5) is population.alive(5)

    def test_arrivals_match_alive_transitions(self, population):
        arrivals = population.arrivals(10)
        assert all(vm.arrival_slot == 10 for vm in arrivals)

    def test_arrival_counts_roughly_poisson(self):
        model = ArrivalModel(initial_services=0, arrival_rate=2.0)
        population = VMPopulation.generate(model, 200, seed=3)
        service_arrivals = {}
        for vm in population.vms:
            service_arrivals[vm.service_id] = vm.arrival_slot
        counts = np.bincount(
            np.array(list(service_arrivals.values())), minlength=200
        )
        # Mean services per slot should be near the Poisson rate.
        assert counts[1:].mean() == pytest.approx(2.0, rel=0.2)
