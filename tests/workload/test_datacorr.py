"""Data correlation process: structure, statistics, VolumeMatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_vm
from tests.oracles import LoopVolumes
from repro.experiments.runner import default_policies
from repro.seeding import seed_states
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.workload import datacorr
from repro.workload.datacorr import (
    MEAN_VOLUME_MB,
    DataCorrelationProcess,
    VolumeMatrix,
)


@pytest.fixture
def process() -> DataCorrelationProcess:
    return DataCorrelationProcess(seed=17)


class TestVolumeMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            VolumeMatrix(vm_ids=[1, 2], volumes=np.zeros((3, 3)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            VolumeMatrix(vm_ids=[1, 2], volumes=np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            VolumeMatrix(
                vm_ids=[1, 2], volumes=np.array([[0.0, np.nan], [0.0, 0.0]])
            )


class TestPairBases:
    def test_intra_service_always_communicates(self, process):
        a = make_vm(vm_id=0, service_id=3)
        b = make_vm(vm_id=1, service_id=3)
        assert process.pair_base_mb(a, b) > 0.0

    def test_self_pair_zero(self, process):
        a = make_vm(vm_id=0)
        assert process.pair_base_mb(a, a) == 0.0

    def test_bidirectional_asymmetry(self, process):
        a = make_vm(vm_id=0, service_id=3)
        b = make_vm(vm_id=1, service_id=3)
        assert process.pair_base_mb(a, b) != process.pair_base_mb(b, a)

    def test_base_deterministic(self, process):
        """A pair's base depends on the seed and its two VMs alone."""
        a = make_vm(vm_id=0, service_id=3)
        b = make_vm(vm_id=1, service_id=3)
        base = process.pair_base_mb(a, b)
        assert process.pair_base_mb(a, b) == base
        assert DataCorrelationProcess(seed=17).pair_base_mb(a, b) == base

    def test_cross_service_mostly_silent(self, process):
        bases = [
            process.pair_base_mb(
                make_vm(vm_id=i, service_id=0), make_vm(vm_id=1000 + i, service_id=1)
            )
            for i in range(200)
        ]
        silent_fraction = sum(1 for base in bases if base == 0.0) / len(bases)
        assert silent_fraction > 0.9

    def test_cross_service_scaled_down(self):
        loud = DataCorrelationProcess(
            background_fraction=1.0, background_scale=0.1, seed=5
        )
        intra = [
            loud.pair_base_mb(
                make_vm(vm_id=2 * i, service_id=7),
                make_vm(vm_id=2 * i + 1, service_id=7),
            )
            for i in range(300)
        ]
        cross = [
            loud.pair_base_mb(
                make_vm(vm_id=10_000 + 2 * i, service_id=0),
                make_vm(vm_id=10_001 + 2 * i, service_id=1),
            )
            for i in range(300)
        ]
        assert np.mean(cross) < np.mean(intra)

    def test_lognormal_mean_near_10mb(self):
        """Intra-service base volumes average to the paper's 10 MB."""
        process = DataCorrelationProcess(seed=23)
        bases = [
            process.pair_base_mb(
                make_vm(vm_id=2 * i, service_id=i),
                make_vm(vm_id=2 * i + 1, service_id=i),
            )
            for i in range(4000)
        ]
        # Heavy-tailed: compare the median of batch means, loosely.
        assert np.mean(bases) == pytest.approx(MEAN_VOLUME_MB, rel=0.5)

    def test_dense_mode_all_pairs(self):
        dense = DataCorrelationProcess(dense=True, seed=3)
        a = make_vm(vm_id=0, service_id=0)
        b = make_vm(vm_id=1, service_id=99)
        assert dense.pair_base_mb(a, b) > 0.0


class TestVolumesMatrixGeneration:
    def test_alignment_and_diagonal(self, process, six_vms):
        matrix = process.volumes(six_vms, 4)
        assert matrix.vm_ids == [vm.vm_id for vm in six_vms]
        assert np.all(np.diag(matrix.volumes) == 0.0)

    def test_deterministic(self, six_vms):
        a = DataCorrelationProcess(seed=17).volumes(six_vms, 4)
        b = DataCorrelationProcess(seed=17).volumes(six_vms, 4)
        assert np.array_equal(a.volumes, b.volumes)

    def test_varies_over_slots(self, process, six_vms):
        a = process.volumes(six_vms, 4)
        b = process.volumes(six_vms, 5)
        assert not np.array_equal(a.volumes, b.volumes)

    def test_nonnegative(self, process, six_vms):
        matrix = process.volumes(six_vms, 4)
        assert np.all(matrix.volumes >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="background_fraction"):
            DataCorrelationProcess(background_fraction=1.5)
        with pytest.raises(ValueError, match="background_scale"):
            DataCorrelationProcess(background_scale=-0.1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("modulation_period_slots", 0.0),
            ("modulation_period_slots", -24.0),
            ("modulation_period_slots", np.nan),
            ("background_scale", np.nan),
            ("background_scale", np.inf),
            ("jitter_sigma", -0.1),
            ("jitter_sigma", np.nan),
        ],
    )
    def test_bad_parameters_rejected_at_construction(self, name, value):
        """Each used to fail only at the first ``volumes`` call, or to
        yield NaN volumes."""
        with pytest.raises(ValueError, match=name):
            DataCorrelationProcess(**{name: value})


class TestVolumeMatrixEdgeCases:
    def test_single_vm_population(self, process):
        matrix = process.volumes([make_vm(vm_id=3)], 0)
        assert matrix.vm_ids == [3]
        assert matrix.volumes.shape == (1, 1)
        assert matrix.volumes.sum() == 0.0

    def test_empty_pair_set(self, process):
        matrix = process.volumes([], 0)
        assert matrix.vm_ids == []
        assert matrix.volumes.shape == (0, 0)
        assert matrix.volumes.sum() == 0.0

    def test_directed_volumes_asymmetric(self, process, six_vms):
        matrix = process.volumes(six_vms, 2)
        assert matrix.vm_ids[:2] == [six_vms[0].vm_id, six_vms[1].vm_id]
        assert matrix.volumes[0, 1] != matrix.volumes[1, 0]


def make_population(n: int) -> list:
    """Mixed-service population with non-contiguous vm ids."""
    return [
        make_vm(vm_id=3 + 7 * i, service_id=i // 4, seed=i) for i in range(n)
    ]


#: The pool every population of the survivor-gather property is drawn
#: from, and the sizes it draws: tiny ones and those around
#: :attr:`DataCorrelationProcess.ROW_BLOCK`.
POOL = make_population(132)
POPULATION_SIZES = [0, 1, 2, 9, 63, 64, 65, 129]

#: The volume-process settings the property covers.
POPULATION_SETTINGS = [
    {"background_fraction": 0.0, "seed": 31},
    {"background_fraction": 0.05, "seed": 31},
    {"background_fraction": 1.0, "seed": 31},
    {"dense": True, "seed": 31},
]


@pytest.fixture(scope="module")
def population_loops() -> list[LoopVolumes]:
    """One loop oracle per setting, its per-pair bases kept across the
    property's examples."""
    return [
        LoopVolumes(DataCorrelationProcess(**setting))
        for setting in POPULATION_SETTINGS
    ]


class TestVectorizedEquivalence:
    """The batched volumes must be bit-identical to the per-pair loop."""

    @pytest.mark.parametrize("n", [1, 2, 50, 200])
    def test_bit_identical_across_sizes(self, n):
        vms = make_population(n)
        loop = LoopVolumes(DataCorrelationProcess(seed=17))
        process = DataCorrelationProcess(seed=17)
        for slot in (0, 7):
            reference = loop.volumes(vms, slot)
            batched = process.volumes(vms, slot)
            assert batched.vm_ids == reference.vm_ids
            assert np.array_equal(batched.volumes, reference.volumes)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_bit_identical_at_row_block_edges(self, n):
        """One row short of, exactly at and past the first-uniform
        pass's row block, with background-talking pairs."""
        vms = make_population(n)
        process = DataCorrelationProcess(background_fraction=0.05, seed=31)
        loop = LoopVolumes(DataCorrelationProcess(background_fraction=0.05, seed=31))
        for slot in (0, 5):
            assert np.array_equal(
                process.volumes(vms, slot).volumes, loop.volumes(vms, slot).volumes
            )
        base, _ = process._population_arrays(vms)
        services = np.array([vm.service_id for vm in vms])
        cross = services[:, None] != services[None, :]
        assert (base[cross] > 0).sum() > 0

    def test_bit_identical_dense(self):
        vms = make_population(12)
        loop = LoopVolumes(DataCorrelationProcess(dense=True, seed=5))
        process = DataCorrelationProcess(dense=True, seed=5)
        assert np.array_equal(
            process.volumes(vms, 3).volumes, loop.volumes(vms, 3).volumes
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_population_change_invalidates_nothing(self, population_loops, data):
        """Any sequence of populations from one pool, each keeping a
        subset of the last (none and all included) and adding arrivals
        in id order or shuffled, stays loop-identical: the survivors'
        gathered entries and the arrived VMs' fresh pairs alike."""
        setting = data.draw(st.integers(0, len(POPULATION_SETTINGS) - 1))
        process = DataCorrelationProcess(**POPULATION_SETTINGS[setting])
        loop = population_loops[setting]
        last: list = []
        for slot in range(data.draw(st.integers(1, 4))):
            size = data.draw(st.sampled_from(POPULATION_SIZES))
            last_ids = {vm.vm_id for vm in last}
            outside = [vm for vm in POOL if vm.vm_id not in last_ids]
            kept_count = data.draw(
                st.integers(max(0, size - len(outside)), min(size, len(last)))
            )
            kept = data.draw(st.permutations(range(len(last))))[:kept_count]
            arrivals = data.draw(st.permutations(outside))[: size - kept_count]
            if not data.draw(st.booleans()):
                arrivals.sort(key=lambda vm: vm.vm_id)
            vms = [last[index] for index in sorted(kept)] + arrivals
            assert np.array_equal(
                process.volumes(vms, slot).volumes, loop.volumes(vms, slot).volumes
            )
            last = vms

    @pytest.mark.parametrize(
        "scale, horizon, policy",
        [("tiny", 12, 0), ("small", 24, 2)],
        ids=["tiny", "small"],
    )
    def test_derivations_per_new_population(
        self, scale, horizon, policy, monkeypatch
    ):
        """Over a whole run, each new population derives the seeding
        states of exactly its pairs with an arrived VM -- n^2 - s^2
        tuples for n VMs of which s survive from the newest cached
        population -- in derivations of at most ROW_BLOCK * n tuples,
        and in at most two (one per candidate part) whenever they all
        fit in one."""
        populations: list[tuple[int, int]] = []
        derived: list[list[int]] = []

        def counted_states(*parts):
            states = seed_states(*parts)
            derived[-1].append(int(np.prod(states.shape)))
            return states

        population_arrays = DataCorrelationProcess._population_arrays

        def counted_population(process, vms):
            key = tuple(vm.vm_id for vm in vms)
            if key not in process._population_cache:
                previous = set(next(reversed(process._population_cache), ()))
                populations.append((len(key), len(previous.intersection(key))))
                derived.append([])
            return population_arrays(process, vms)

        monkeypatch.setattr(datacorr, "seed_states", counted_states)
        monkeypatch.setattr(
            DataCorrelationProcess, "_population_arrays", counted_population
        )
        config = scaled_config(scale).with_horizon(horizon)
        SimulationEngine(config, default_policies()[policy]).run()
        block = DataCorrelationProcess.ROW_BLOCK
        for (n, survivors), sizes in zip(populations, derived, strict=True):
            candidates = n**2 - survivors**2
            assert sum(sizes) == candidates
            assert all(0 < size <= block * n for size in sizes)
            if candidates <= block * n:
                assert len(sizes) <= 2
        assert sum(survivors > 0 for _, survivors in populations) > 2
        if scale == "small":
            # A few arrivals among ~126 VMs: every population after the
            # first takes at most two derivations; the cold first one
            # spans more than one block.
            assert all(len(sizes) <= 2 for sizes in derived[1:])
            assert len(derived[0]) > 1

    def test_population_cache_bounded(self):
        process = DataCorrelationProcess(seed=9)
        for start in range(process.POPULATION_CACHE_SIZE + 4):
            process.volumes(make_population(12)[start % 6 :], 0)
        assert len(process._population_cache) <= process.POPULATION_CACHE_SIZE
