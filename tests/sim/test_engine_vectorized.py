"""Slot-kernel hot paths against the loop oracles: bit-exact equivalence.

The production kernel has one implementation per step; the per-row,
per-server, per-pair and per-DC loops it must reproduce live in
``tests/oracles.py``.
"""

import numpy as np
import pytest

from repro.experiments.runner import default_policies
from repro.sim.config import EngineCoreConfig, build_datacenters, scaled_config
from repro.sim.engine import SimulationEngine, with_requests
from repro.sim.state import SlotObservation
from tests.oracles import loop_engine, loop_kernel


def run_pair(index, horizon=6, engine=EngineCoreConfig()):
    config = scaled_config("tiny").with_horizon(horizon)
    loops = loop_engine(config, default_policies()[index]).run()
    production = SimulationEngine(config, default_policies()[index]).run()
    return (
        with_requests(loops, config.seed, engine),
        with_requests(production, config.seed, engine),
    )


@pytest.mark.parametrize("index", range(4))
def test_full_run_bit_identical(index):
    """Every ledger value of every policy matches the loop oracle."""
    loops, production = run_pair(index)
    assert loops.horizon == production.horizon
    assert loops.to_dict() == production.to_dict()


def test_event_driver_matches_loop_oracle():
    loops, production = run_pair(0, engine=EngineCoreConfig(kind="event"))
    assert loops.to_dict() == production.to_dict()


def test_summary_metrics_identical():
    loops, production = run_pair(0)
    assert loops.headline() == production.headline()
    assert np.array_equal(
        loops.response_samples(), production.response_samples()
    )


def placed_slot(slot=0, horizon=2):
    """Engine, first-slot placement and demand for per-slot sweeps."""
    config = scaled_config("tiny").with_horizon(horizon)
    engine = SimulationEngine(config, default_policies()[1])
    kernel = engine.kernel
    vms = kernel.materialization.population.alive(slot)
    vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
    demand = kernel._demand(vms, slot)
    policy = default_policies()[1]
    policy.reset()
    observation = SlotObservation(
        slot=slot,
        vms=vms,
        demand_traces=demand,
        volumes=kernel.materialization.volumes.volumes(vms, slot),
        previous_assignment={},
        dcs=build_datacenters(kernel.site),
        latency_model=kernel.site.latency_model,
        latency_constraint_s=config.latency_constraint_s,
    )
    placement = policy.place(observation)
    return config, kernel, placement, vm_rows, demand


def driven_slots(policy_index=0, horizon=6):
    """Per-slot kernel inputs of a real run: (kernel, slot, vms,
    placement, vm_rows, demand, volumes), stepping the kernel between
    slots so placements carry migrations and previous assignments."""
    config = scaled_config("tiny").with_horizon(horizon)
    engine = SimulationEngine(config, default_policies()[policy_index])
    kernel = engine.kernel
    engine.policy.reset()
    dcs = build_datacenters(kernel.site)
    previous: dict[int, int] = {}
    for slot in range(horizon):
        vms = kernel.materialization.population.alive(slot)
        placement = engine.policy.place(
            kernel.observe(slot, vms, previous, dcs)
        )
        vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
        demand = kernel._demand(vms, slot)
        volumes = kernel._slot_volumes(vms, slot).volumes
        yield kernel, slot, vms, placement, vm_rows, demand, volumes
        kernel.step(slot, vms, placement, dcs)
        previous = dict(placement.assignment)


def test_dc_it_power_paths_agree_per_slot():
    for kernel, _, _, placement, vm_rows, demand, _ in driven_slots():
        power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
        oracle = loop_kernel(kernel)
        for dc_index in range(kernel.config.n_dcs):
            loop = oracle._dc_it_power(placement, dc_index, vm_rows, demand)
            assert np.array_equal(power[dc_index], loop[0])
            assert actives[dc_index] == loop[1]


def stub_placement(vms, n_dcs, seed):
    rng = np.random.default_rng(seed)
    return type(
        "Stub",
        (),
        {"assignment": {vm.vm_id: int(rng.integers(0, n_dcs)) for vm in vms}},
    )()


def test_response_latency_paths_agree_per_slot():
    for kernel, slot, vms, placement, _, _, volumes in driven_slots():
        loop = loop_kernel(kernel)._response_latencies(
            placement, vms, volumes, slot
        )
        assert kernel._response_latencies(
            placement, vms, volumes, slot
        ) == loop


def test_response_latency_empty_fleet():
    config = scaled_config("tiny").with_horizon(2)
    kernel = SimulationEngine(config, default_policies()[1]).kernel
    stub = type("Stub", (), {"assignment": {}})()
    empty = np.zeros((0, 0))
    loop = loop_kernel(kernel)._response_latencies(stub, [], empty, 0)
    fast = kernel._response_latencies(stub, [], empty, 0)
    assert loop == fast == [(0.0, 0)] * config.n_dcs


class TestDemandCacheEviction:
    def test_holds_only_the_window(self):
        """A standalone engine's materialization holds the matrices of
        the two newest slots requested; an older slot is recomputed."""
        config = scaled_config("tiny").with_horizon(3)
        kernel = SimulationEngine(config, default_policies()[1]).kernel
        vms = kernel.materialization.population.alive(0)
        first = kernel._demand(vms, 0)
        second = kernel._demand(vms, 1)
        assert kernel._demand(vms, 0) is first
        third = kernel._demand(vms, 2)
        assert kernel._demand(vms, 1) is second
        assert kernel._demand(vms, 2) is third
        again = kernel._demand(vms, 0)
        assert again is not first
        assert np.array_equal(again, first)

    def test_cache_consistent_after_run(self):
        config = scaled_config("tiny").with_horizon(4)
        engine = SimulationEngine(config, default_policies()[1])
        engine.run()
        materialization = engine.kernel.materialization
        hits = materialization.hits
        assert materialization.misses > 0
        assert {slot for slot, _ in materialization._volumes} == {2, 3}
        final = materialization.population.alive(3)
        materialization.demand(final, 3)
        assert materialization.hits == hits + 1


def it_power_case(server_vms_per_dc, n_vms, steps, seed=5):
    """A hand-built placement over ``n_vms`` rows of random demand.

    ``server_vms_per_dc`` lists each DC's per-server VM ids; VM ids map
    to shuffled demand rows, so placement order is not row order.  Some
    demand saturates a server, and a few samples are exactly zero.
    """
    from repro.core.local import ServerAllocation
    from repro.datacenter.server import XEON_E5410

    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.0, 3.0, (n_vms, steps))
    demand[rng.random((n_vms, steps)) < 0.05] = 0.0
    vm_rows = dict(enumerate(rng.permutation(n_vms).tolist()))
    levels = len(XEON_E5410.levels)
    allocations = [
        ServerAllocation(
            model=XEON_E5410,
            n_servers=max(len(servers), 1),
            server_vms=[list(vms) for vms in servers],
            frequencies=[
                int(level) for level in rng.integers(0, levels, len(servers))
            ],
        )
        for servers in server_vms_per_dc
    ]
    placement = type("Stub", (), {"allocations": allocations})()
    return placement, vm_rows, demand


#: Per-DC server layouts: (DC 0, DC 1, DC 2) lists of per-server VM ids.
IT_POWER_LAYOUTS = {
    "mixed-depths": (
        [[3, 0, 7], [], [1], [9, 4]],
        [],
        [[2], [8, 5, 6, 10, 11], [], [12]],
    ),
    "single-vm-servers": ([[0], [1], [2]], [[3]], [[4], [5]]),
    "empty-servers-only": ([[], []], [], [[]]),
    "one-server-holds-all": ([], [list(range(13))[::-1]], []),
}


class TestFleetItPower:
    """The fleet-wide per-server sums equal the per-server loops."""

    @pytest.mark.parametrize("layout", sorted(IT_POWER_LAYOUTS))
    def test_layouts_match_loop_oracle(self, layout):
        config = scaled_config("tiny").with_horizon(2)
        kernel = SimulationEngine(config, default_policies()[1]).kernel
        servers = IT_POWER_LAYOUTS[layout]
        n_vms = sum(len(vms) for dc in servers for vms in dc)
        placement, vm_rows, demand = it_power_case(
            servers, n_vms, config.steps_per_slot
        )
        power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
        oracle = loop_kernel(kernel)
        for dc_index in range(config.n_dcs):
            loop = oracle._dc_it_power(placement, dc_index, vm_rows, demand)
            assert np.array_equal(power[dc_index], loop[0])
            assert actives[dc_index] == loop[1]

    def test_matches_per_dc_paths(self):
        config, kernel, placement, vm_rows, demand = placed_slot()
        power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
        assert power.shape == (config.n_dcs, config.steps_per_slot)
        oracle = loop_kernel(kernel)
        for dc_index in range(config.n_dcs):
            loop = oracle._dc_it_power(placement, dc_index, vm_rows, demand)
            assert np.array_equal(power[dc_index], loop[0])
            assert actives[dc_index] == loop[1]

    def test_empty_placement(self):
        from repro.core.local import ServerAllocation
        from repro.datacenter.server import XEON_E5410

        config, kernel, placement, vm_rows, demand = placed_slot()
        placement.allocations = [
            ServerAllocation(model=XEON_E5410, n_servers=4)
            for _ in range(config.n_dcs)
        ]
        power, actives = kernel._fleet_it_power(
            placement, vm_rows, np.zeros((0, config.steps_per_slot))
        )
        assert not power.any()
        assert actives == [0] * config.n_dcs


class TestPairVolumes:
    """The grouped pair-volume gather must stay bit-identical to the
    per-pair block sums -- and the tempting reduceat alternative
    provably cannot."""

    def _blocked_case(self, n_vms, n_dcs, seed=11):
        rng = np.random.default_rng(seed)
        volumes = rng.uniform(0.0, 40.0, (n_vms, n_vms))
        np.fill_diagonal(volumes, 0.0)
        dc_of = rng.integers(0, n_dcs, n_vms)
        return volumes, dc_of

    def _reference_pairs(self, volumes, dc_of, n_dcs):
        pair = np.zeros((n_dcs, n_dcs))
        for src in range(n_dcs):
            senders = np.nonzero(dc_of == src)[0]
            for dst in range(n_dcs):
                members = np.nonzero(dc_of == dst)[0]
                if senders.size and members.size:
                    pair[src, dst] = volumes[np.ix_(senders, members)].sum()
        return pair

    @pytest.mark.parametrize("slot", [0, 1])
    def test_grouped_path_bit_identical_to_loop(self, slot):
        """Kernel path vs per-pair nonzero oracle, elementwise exact."""
        config = scaled_config("tiny").with_horizon(2)
        kernel = SimulationEngine(config, default_policies()[1]).kernel
        vms = kernel.materialization.population.alive(slot)
        # Drive the real entry points with a stub placement over the
        # kernel's own population (identity must hold end to end).
        stub = stub_placement(vms, config.n_dcs, seed=3)
        real = kernel.materialization.volumes.volumes(vms, slot).volumes
        loop = loop_kernel(kernel)._response_latencies(stub, vms, real, slot)
        assert kernel._response_latencies(stub, vms, real, slot) == loop

    def test_grouped_blocks_match_reference_at_large_sizes(self):
        """Blocks beyond numpy's buffered-iteration threshold (8192
        elements) are exactly where strided shortcuts break; the
        np.ix_ gather must stay exact there."""
        volumes, dc_of = self._blocked_case(300, 2)
        reference = self._reference_pairs(volumes, dc_of, 2)
        order = np.argsort(dc_of, kind="stable")
        counts = np.bincount(dc_of, minlength=2)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        groups = [order[bounds[dc]: bounds[dc + 1]] for dc in range(2)]
        for src in range(2):
            for dst in range(2):
                block_sum = volumes[np.ix_(groups[src], groups[dst])].sum()
                assert block_sum == reference[src, dst]

    def test_reduceat_is_not_bit_identical(self):
        """Documents why the kernel does NOT use np.add.reduceat: its
        strict left-to-right accumulation diverges (in the last ulps)
        from ndarray.sum()'s pairwise reduction on realistic blocks,
        so a reduceat implementation would break bit-identity with the
        per-pair oracle."""
        volumes, dc_of = self._blocked_case(300, 2, seed=5)
        reference = self._reference_pairs(volumes, dc_of, 2)
        order = np.argsort(dc_of, kind="stable")
        counts = np.bincount(dc_of, minlength=2)
        bounds = np.concatenate(([0], np.cumsum(counts)))[:-1]
        blocked = volumes[np.ix_(order, order)]
        # The classic two-pass reduceat: columns, then rows.
        by_cols = np.add.reduceat(blocked, bounds, axis=1)
        pair = np.add.reduceat(by_cols, bounds, axis=0)
        assert pair == pytest.approx(reference)  # close...
        assert not np.array_equal(pair, reference)  # ...but not equal
