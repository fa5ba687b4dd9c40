"""Baseline decision rules: Pri-aware, Ener-aware, Net-aware."""

import numpy as np
import pytest

from tests.conftest import make_observation, make_vm
from repro.baselines.ener_aware import EnerAwarePolicy
from repro.baselines.net_aware import (
    GROUP_THRESHOLD_MB,
    NetAwarePolicy,
    communication_groups,
)
from repro.baselines.pri_aware import PriAwarePolicy


@pytest.mark.parametrize(
    "policy_cls", [PriAwarePolicy, EnerAwarePolicy, NetAwarePolicy]
)
class TestCommonContract:
    def test_placement_valid(self, policy_cls, observation):
        placement = policy_cls().place(observation)
        placement.validate(observation)

    def test_names_match_paper(self, policy_cls, observation):
        assert policy_cls.name in {"Pri-aware", "Ener-aware", "Net-aware"}

    def test_deterministic(self, policy_cls, observation):
        a = policy_cls().place(observation).assignment
        b = policy_cls().place(observation).assignment
        assert a == b


class TestPriAware:
    def test_prefers_cheapest_dc(self, observation):
        placement = PriAwarePolicy().place(observation)
        prices = [
            dc.grid_price_at(observation.slot) for dc in observation.dcs
        ]
        cheapest = int(np.argmin(prices))
        counts = np.bincount(
            list(placement.assignment.values()), minlength=3
        )
        assert counts[cheapest] == counts.max()

    def test_spills_to_next_cheapest_when_full(
        self, datacenters, latency_model, trace_library, volume_process
    ):
        # 30 heavy VMs cannot fit the cheapest (2-server) DC.
        vms = [make_vm(vm_id=i, cores=4.0, seed=i) for i in range(30)]
        observation = make_observation(
            vms, datacenters, latency_model, trace_library, volume_process
        )
        placement = PriAwarePolicy().place(observation)
        used = set(placement.assignment.values())
        assert len(used) >= 2

    def test_fills_dcs_in_price_order(
        self, datacenters, latency_model, trace_library, volume_process
    ):
        """Heavy VMs spill from DC to DC by ascending grid price: a
        pricier DC holds VMs only once every cheaper one holds some."""
        vms = [make_vm(vm_id=i, cores=4.0, seed=i) for i in range(30)]
        observation = make_observation(
            vms, datacenters, latency_model, trace_library, volume_process
        )
        placement = PriAwarePolicy().place(observation)
        prices = [
            dc.grid_price_at(observation.slot) for dc in observation.dcs
        ]
        counts = np.bincount(
            list(placement.assignment.values()), minlength=3
        )
        by_price = [int(counts[dc]) for dc in np.argsort(prices, kind="stable")]
        used = [count > 0 for count in by_price]
        assert used == sorted(used, reverse=True)
        assert used[0] and used[1]


class TestEnerAware:
    def test_fills_first_dc_first(self, observation):
        placement = EnerAwarePolicy().place(observation)
        counts = np.bincount(list(placement.assignment.values()), minlength=3)
        assert counts[0] == counts.max()

    def test_ffd_spills_in_index_order(
        self, datacenters, latency_model, trace_library, volume_process
    ):
        vms = [make_vm(vm_id=i, cores=4.0, seed=i) for i in range(40)]
        observation = make_observation(
            vms, datacenters, latency_model, trace_library, volume_process
        )
        placement = EnerAwarePolicy().place(observation)
        counts = np.bincount(list(placement.assignment.values()), minlength=3)
        # DC0 takes the most, then DC1, then DC2 (fixed FFD order).
        assert counts[0] >= counts[1] >= counts[2]


class TestNetAware:
    def test_groups_stay_together(self, observation):
        placement = NetAwarePolicy().place(observation)
        groups = communication_groups(observation.volumes.volumes)
        for group in groups:
            dcs = {
                placement.assignment[observation.vms[row].vm_id] for row in group
            }
            assert len(dcs) == 1

    def test_balances_across_dcs(
        self, datacenters, latency_model, trace_library, volume_process
    ):
        vms = []
        for service in range(12):
            for member in range(2):
                vms.append(
                    make_vm(
                        vm_id=service * 2 + member,
                        service_id=service,
                        cores=2.0,
                        seed=service * 2 + member,
                    )
                )
        observation = make_observation(
            vms, datacenters, latency_model, trace_library, volume_process
        )
        placement = NetAwarePolicy().place(observation)
        counts = np.bincount(list(placement.assignment.values()), minlength=3)
        assert np.all(counts > 0)

    def test_stable_when_group_still_fits(
        self, six_vms, datacenters, latency_model, trace_library, volume_process
    ):
        previous = {vm.vm_id: 1 for vm in six_vms}
        observation = make_observation(
            six_vms,
            datacenters,
            latency_model,
            trace_library,
            volume_process,
            previous_assignment=previous,
        )
        placement = NetAwarePolicy().place(observation)
        assert all(dc == 1 for dc in placement.assignment.values())
        assert not placement.moves


class TestCommunicationGroups:
    def test_singletons_without_traffic(self):
        groups = communication_groups(np.zeros((3, 3)))
        assert groups == [[0], [1], [2]]

    def test_threshold_cuts_weak_edges(self):
        assert GROUP_THRESHOLD_MB == 2.0
        volumes = np.zeros((4, 4))
        volumes[0, 1] = 5.0
        volumes[1, 2] = 2.0  # not above the threshold
        volumes[2, 3] = volumes[3, 2] = 1.5  # above it both ways summed
        assert communication_groups(volumes) == [[0, 1], [2, 3]]

    def test_components_partition_vms(self, observation):
        groups = communication_groups(observation.volumes.volumes)
        flat = sorted(row for group in groups for row in group)
        assert flat == list(range(len(observation.vms)))
