"""Bidirectional, time-varying data volumes between VM pairs.

Section V-A: "Data correlation between each pair of VMs is generated by
a log-normal distribution with the mean of 10 MB and uniform variance
selection in the range of [1, 4]".

Interpretation (documented in DESIGN.md): each communicating ordered
pair (i -> j) draws, once, a log-sigma whose square is uniform in
[1, 4]; the log-mu is set so the log-normal mean equals 10 MB.  The
per-slot realized volume multiplies that base by a slow sinusoidal
modulation plus per-slot jitter, giving the "bidirectional data
correlations which change at runtime" of Section I.

Communication structure: the bulk of traffic flows *inside* services
(the groups created by :mod:`repro.workload.arrivals`); a small fraction
of cross-service pairs also communicates (``background_fraction``).  A
``dense=True`` switch recovers the literal all-pairs reading of the
paper's sentence.

Generation is batched per slot: :meth:`DataCorrelationProcess.volumes`
caches a per-population base matrix, indexes a 97-entry modulation
table built with scalar arithmetic, and multiplies in one batched
jitter draw.  A pair's base depends on its two VMs alone, so a new
population gathers its survivors' pairs from the newest cached base
matrix and realizes only the pairs with an arrived VM, in blocks of at
most ``ROW_BLOCK * n`` pairs, each with one seeding derivation
(:func:`repro.seeding.seed_states`).  A pair decides whether it
communicates from the service-equality mask and its generator's first
uniform, read from the states without building the generators; the
communicating pairs' generators, reseeded from the same states, then
make their draws.  A ``compare_small`` population (a few arrivals among
~126 VMs) is two blocks, one per part.  The result equals a per-pair
Python loop over :meth:`DataCorrelationProcess.pair_base_mb` bit for
bit (``tests/oracles.py`` keeps that loop as an oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.seeding import rng_for, seed_states
from repro.workload.vm import VirtualMachine

#: Paper's mean exchanged volume per pair per slot (MB).
MEAN_VOLUME_MB = 10.0


@dataclass
class VolumeMatrix:
    """Dense directed volume matrix for one slot.

    ``volumes[a, b]`` is the MB that ``vm_ids[a]`` sends to
    ``vm_ids[b]`` during the slot.  The matrix is generally asymmetric
    (bidirectional correlation with different amounts per direction).
    """

    vm_ids: list[int]
    volumes: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.vm_ids)
        if self.volumes.shape != (n, n):
            raise ValueError(
                f"volume matrix shape {self.volumes.shape} does not match "
                f"{n} vm ids"
            )
        # One pass that also rejects NaN, which compares false.
        if not (self.volumes >= 0).all():
            raise ValueError("volumes must be non-negative")


class DataCorrelationProcess:
    """Generates per-slot directed volume matrices for a VM population.

    Parameters
    ----------
    background_fraction:
        Probability that an ordered cross-service pair communicates at
        all (intra-service pairs always do).
    background_scale:
        Volume multiplier for cross-service pairs; background chatter
        (shared caches, monitoring) is much lighter than the
        intra-service flows that define the application's structure.
    dense:
        If True, every ordered pair communicates (the literal reading of
        the paper's generation sentence); service structure still
        modulates nothing in this mode.
    modulation_period_slots:
        Period of the slow sinusoidal traffic modulation.
    jitter_sigma:
        Log-sigma of the per-slot multiplicative jitter.
    seed:
        Process-wide randomness root.
    """

    #: Modulus of the per-pair phase hash; the phase takes one of this
    #: many values, which is what makes the modulation table exact.
    PHASE_MODULUS = 97

    #: Distinct VM populations whose base/phase arrays stay cached.
    #: Every caller asks for a population's volumes back to back (a
    #: slot's ``observe`` and ``step`` both read the alive set of that
    #: slot), so two -- the current population and the one before --
    #: suffice.  The newest entry also supplies the next population's
    #: survivors' base entries.
    POPULATION_CACHE_SIZE = 2

    #: A new population's candidate pairs take one seeding derivation
    #: per block of at most ROW_BLOCK * n of them, so its temporaries
    #: are O(ROW_BLOCK * n), not O(n^2).
    ROW_BLOCK = 64

    def __init__(
        self,
        background_fraction: float = 0.005,
        background_scale: float = 0.1,
        dense: bool = False,
        modulation_period_slots: float = 24.0,
        jitter_sigma: float = 0.3,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= background_fraction <= 1.0:
            raise ValueError("background_fraction must be in [0, 1]")
        if not (np.isfinite(background_scale) and background_scale >= 0):
            raise ValueError("background_scale must be finite and non-negative")
        if not (np.isfinite(modulation_period_slots) and modulation_period_slots > 0):
            raise ValueError("modulation_period_slots must be finite and positive")
        if not (np.isfinite(jitter_sigma) and jitter_sigma >= 0):
            raise ValueError("jitter_sigma must be finite and non-negative")
        self.background_fraction = background_fraction
        self.background_scale = background_scale
        self.dense = dense
        self.modulation_period_slots = modulation_period_slots
        self.jitter_sigma = jitter_sigma
        self.seed = seed
        #: Per-population (base matrix, phase-index matrix) pairs keyed
        #: by the vm-id tuple; a bounded FIFO.
        self._population_cache: dict[
            tuple[int, ...], tuple[np.ndarray, np.ndarray]
        ] = {}

    def _pair_rng(self, src: VirtualMachine, dst: VirtualMachine) -> np.random.Generator:
        return rng_for(self.seed, "pair", src.vm_id, dst.vm_id)

    def _slot_rng(self, slot: int) -> np.random.Generator:
        return rng_for(self.seed, "slot", slot)

    def pair_base_mb(self, src: VirtualMachine, dst: VirtualMachine) -> float:
        """Static base volume (MB) for the ordered pair, 0 if silent.

        Communicating pairs draw ``LogNormal(mu, sigma)`` with
        ``sigma^2 ~ U[1, 4]`` and ``mu = ln(10) - sigma^2 / 2`` so the
        distribution mean is exactly 10 MB.  The scalar definition of
        one pair; :meth:`volumes` realizes the same draws in batches.
        """
        if src.vm_id == dst.vm_id:
            return 0.0
        rng = self._pair_rng(src, dst)
        communicates = (
            self.dense
            or src.service_id == dst.service_id
            or rng.random() < self.background_fraction
        )
        if not communicates:
            return 0.0
        sigma_sq = rng.uniform(1.0, 4.0)
        sigma = float(np.sqrt(sigma_sq))
        mu = float(np.log(MEAN_VOLUME_MB) - sigma_sq / 2.0)
        base = float(np.exp(mu + sigma * rng.normal()))
        if not self.dense and src.service_id != dst.service_id:
            base *= self.background_scale
        return base

    def _modulation(self, slot: int, phase: float) -> float:
        angle = 2.0 * np.pi * (slot / self.modulation_period_slots + phase)
        return 1.0 + 0.5 * np.sin(angle)

    def _slot_jitter(self, n: int, slot: int) -> np.ndarray:
        """The slot's multiplicative jitter matrix (one batched draw).

        In-place subtract/exp keep the values identical to
        ``exp(normal(...) - sigma^2 / 2)`` while avoiding two (n, n)
        temporaries on the per-slot hot path.
        """
        slot_rng = self._slot_rng(slot)
        jitter = slot_rng.normal(0.0, self.jitter_sigma, size=(n, n))
        np.subtract(jitter, self.jitter_sigma**2 / 2.0, out=jitter)
        np.exp(jitter, out=jitter)
        return jitter

    def _candidate_blocks(
        self, n: int, arrived: np.ndarray, survivors: np.ndarray
    ):
        """Yield the pairs with an arrived VM as ``(rows, columns)``
        position arrays, each block their product, of at most
        ``ROW_BLOCK * n`` pairs and built only when reached: the
        arrived rows against every column, then the surviving rows
        against the arrived columns.  A block's tags broadcast through
        the seeding derivation instead of being stored per pair.
        ``arrived`` is not empty.
        """
        capacity = self.ROW_BLOCK * n
        for rows, columns in ((arrived, np.arange(n)), (survivors, arrived)):
            height = capacity // columns.size
            for start in range(0, rows.size, height):
                yield rows[start : start + height], columns

    def _arrived_bases(
        self,
        base: np.ndarray,
        ids: np.ndarray,
        services: np.ndarray,
        arrived: np.ndarray,
        survivors: np.ndarray,
    ) -> None:
        """Write :meth:`pair_base_mb` of every pair with an arrived VM
        into ``base``.

        Each block of candidates (:meth:`_candidate_blocks`) takes one
        seeding derivation, read twice.  A pair communicates if it joins
        two distinct VMs and they share a service or its generator's
        first uniform is below ``background_fraction`` (every distinct
        pair when ``dense``).  After the last block, the communicating
        pairs' generators, reseeded from their blocks' states, make the
        draws :meth:`pair_base_mb` makes: the talk test's uniform
        (cross-service pairs, unless ``dense``), then ``uniform(1, 4)``,
        then ``normal()``.  The rest is elementwise arithmetic in
        :meth:`pair_base_mb`'s order; numpy's ``exp`` runs the same
        inner loop on an array as on one scalar, so each base keeps
        :meth:`pair_base_mb`'s bits (the volume tests compare with that
        scalar loop).
        """
        if not arrived.size:
            return
        kept, src, dst = [], [], []
        for rows, columns in self._candidate_blocks(ids.size, arrived, survivors):
            src_ids, dst_ids = ids[rows, None], ids[None, columns]
            states = seed_states(self.seed, "pair", src_ids, dst_ids)
            talks = src_ids != dst_ids
            if not self.dense:
                talks &= (services[rows, None] == services[None, columns]) | (
                    states.first_randoms() < self.background_fraction
                )
            picked = np.flatnonzero(talks)
            # Keep only the talking pairs' states, so the next block's
            # derivation does not run beside this one's arrays.
            kept.append(states[picked])
            talking_rows, talking_columns = np.divmod(picked, columns.size)
            src.append(rows[talking_rows])
            dst.append(columns[talking_columns])
        src, dst = np.concatenate(src), np.concatenate(dst)
        tested = (services[src] != services[dst]) & (not self.dense)
        sigma_sq = np.empty(src.size)
        normals = np.empty(src.size)
        # One draw loop after the last block: a loop per block, between
        # the blocks' array work, made a cold paper population ~8% slower.
        generators = chain.from_iterable(states.generators() for states in kept)
        for index, (rng, test) in enumerate(zip(generators, tested.tolist())):
            if test:
                rng.random()
            sigma_sq[index] = rng.uniform(1.0, 4.0)
            normals[index] = rng.normal()
        mu = np.log(MEAN_VOLUME_MB) - sigma_sq / 2.0
        bases = np.exp(mu + np.sqrt(sigma_sq) * normals)
        bases[tested] *= self.background_scale
        base[src, dst] = bases

    def _population_arrays(
        self, vms: list[VirtualMachine]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Base-volume and phase-index matrices for one population.

        The survivors -- the VMs also in the newest cached population --
        gather their pairs' base entries from that population's matrix
        by vm id.  Only the pairs with an arrived VM are realized
        (:meth:`_arrived_bases`): the arrived rows against every
        column, then the surviving rows against the arrived columns.  A
        population with nothing cached before it is the case with no
        survivors.  Cached per vm-id tuple: the alive set changes slot
        to slot but repeats heavily, so this runs once per population
        instead of twice per slot.
        """
        key = tuple(vm.vm_id for vm in vms)
        cached = self._population_cache.get(key)
        if cached is not None:
            return cached
        n = len(vms)
        ids = np.array(key, dtype=np.int64).reshape(n)
        services = np.array([vm.service_id for vm in vms], dtype=np.int64)
        previous = next(reversed(self._population_cache), ())
        previous_base = (
            self._population_cache[previous][0] if previous else np.zeros((0, 0))
        )
        # Each VM's row in the previous base matrix, -1 if it arrived.
        row_of = {vm_id: row for row, vm_id in enumerate(previous)}
        previous_rows = np.array(
            [row_of.get(vm_id, -1) for vm_id in key], dtype=np.int64
        )
        survivors = np.flatnonzero(previous_rows >= 0)
        arrived = np.flatnonzero(previous_rows < 0)
        gathered = previous_rows[survivors]
        base = np.zeros((n, n))
        base[np.ix_(survivors, survivors)] = previous_base[np.ix_(gathered, gathered)]
        self._arrived_bases(base, ids, services, arrived, survivors)
        phase_index = (ids[:, None] * 31 + ids[None, :] * 17) % self.PHASE_MODULUS
        while len(self._population_cache) >= self.POPULATION_CACHE_SIZE:
            self._population_cache.pop(next(iter(self._population_cache)))
        self._population_cache[key] = (base, phase_index)
        return base, phase_index

    def volumes(self, vms: list[VirtualMachine], slot: int) -> VolumeMatrix:
        """Directed volume matrix (MB) for ``vms`` during ``slot``.

        Entry ``(a, b)`` is ``pair_base_mb(a, b) * modulation *
        jitter[a, b]``: the base matrix holds the per-pair seeded
        draws; the modulation is a table of the :data:`PHASE_MODULUS`
        possible phases, each computed by the scalar
        :meth:`_modulation` (an exact lookup, immune to SIMD
        transcendental differences); the jitter is one batched draw
        per slot; and the product multiplies left to right
        elementwise.
        """
        n = len(vms)
        jitter = self._slot_jitter(n, slot)
        base, phase_index = self._population_arrays(vms)
        modulus = self.PHASE_MODULUS
        modulation_table = np.array(
            [self._modulation(slot, k / modulus) for k in range(modulus)]
        )
        # (base * modulation) * jitter, left to right; in-place into
        # the jitter buffer to skip one (n, n) temporary.
        matrix = base * modulation_table[phase_index]
        np.multiply(matrix, jitter, out=jitter)
        return VolumeMatrix(vm_ids=[vm.vm_id for vm in vms], volumes=jitter)
