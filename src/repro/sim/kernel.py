"""Per-slot simulation kernel.

The :class:`SlotKernel` owns everything the engine's slot loop needs to
advance one hour-slot of the paper's protocol:

* workload access -- every realized demand matrix and data-volume
  matrix comes from the run's
  :class:`~repro.workload.materialize.WorkloadMaterialization` (shared
  by a lockstep group), which alone decides what is kept and for how
  long; the kernel holds no workload state of its own;
* site access -- every slot's PV power, PUE, tariff peak mask and
  price, each site's clear-sky prior and the Eq. 1 BER windows come
  from the fleet's :class:`SiteConditions` (shared by the engines of
  a lockstep group that run that fleet), which evaluates each once per
  slot;
* the per-slot physics, one implementation per step -- every DC's IT
  power from per-server sequential sums over the whole placement
  (:meth:`SlotKernel._fleet_it_power`), times the slot's PUE, one
  fleet-wide green controller pass
  (:meth:`~repro.core.green.GreenController.run_slot_fleet`), and the
  Eq. 1 response latencies from a grouped ``n_dcs x n_dcs`` pair-volume
  matrix (:meth:`SlotKernel._response_latencies`);
* the accounting -- assembling the :class:`~repro.sim.results.SlotRecord`
  ledger entry for a slot.

One caller consumes it: :meth:`~repro.sim.engine.SimulationEngine.advance`,
stepped by the one slot loop
(:func:`~repro.sim.engine.run_lockstep`), calls the :meth:`observe` /
:meth:`step` pair once per slot.  An event-kind run is the same slot
ledger plus a request draw (:func:`~repro.sim.engine.with_requests`),
so both run kinds' slot-boundary ledgers are byte-identical by
construction -- the kernel is the single place slot physics happens.

Every floating-point reduction in the physics accumulates in the order
of the plain per-server, per-DC loops it replaced, so the ledgers equal
those loops' bit for bit.  The loops live in ``tests/oracles.py``, and
``tests/sim/test_engine_vectorized.py`` asserts full-run equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.green import GreenController
from repro.datacenter.pue import fleet_pue
from repro.datacenter.pv import PVArray, fleet_power_watts
from repro.sim.config import ExperimentConfig, build_latency_model
from repro.sim.results import DCSlotRecord, SlotRecord
from repro.sim.state import FleetPlacement, SlotObservation
from repro.units import SECONDS_PER_HOUR
from repro.workload.materialize import WorkloadMaterialization, _freeze
from repro.workload.vm import VirtualMachine


@dataclass(frozen=True)
class SlotConditions:
    """One slot's site inputs, read-only, as a group's engines see them.

    Attributes
    ----------
    times:
        ``(steps,)`` mid-step times (UTC seconds) of the slot.
    pv_power_w:
        ``(n_dcs, steps)`` PV power (W) of each site at ``times``.
    pue:
        ``(n_dcs, steps)`` free-cooling PUE of each site at ``times``.
    peak:
        ``(steps, n_dcs)`` whether each site's peak tariff applies.
    price:
        ``(steps, n_dcs)`` each site's grid price (EUR/kWh).
    """

    times: np.ndarray
    pv_power_w: np.ndarray
    pue: np.ndarray
    peak: np.ndarray
    price: np.ndarray


class SiteConditions:
    """A fleet's per-slot site inputs, shared by a lockstep group.

    Every policy of a comparison sees the same sites (Section V-A): PV
    output, PUE, two-level prices and BER draws are pure functions of
    the fleet's specs, the seed and the slot.  The engines of a group
    that run one fleet share one object, so each slot's site inputs
    are evaluated once for all of them.  It owns the fleet's
    :class:`~repro.network.latency.LatencyModel` (BER windows) and one
    :class:`~repro.datacenter.pv.PVArray` per site (weather), and
    keeps the read-only arrays of the last slot asked for
    (:meth:`at`, :meth:`clear_sky_prior`) in one ``(slot, arrays)``
    memo that a new slot replaces whole, like the latency model's; a
    group advances on one thread, in slot order.

    Parameters
    ----------
    config:
        Its ``specs`` (the fleet), ``seed`` and ``steps_per_slot``.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.specs = config.specs
        self.seed = config.seed
        self.steps_per_slot = config.steps_per_slot
        self.latency_model = build_latency_model(config)
        self.arrays = [
            PVArray(
                kwp=spec.pv_kwp,
                tz_offset_hours=spec.tz_offset_hours,
                seed=config.seed + index,
            )
            for index, spec in enumerate(config.specs)
        ]
        #: ``(slot, {"conditions" | "prior": value})`` of the last slot
        #: asked for.
        self._memo: tuple[int, dict] = (-1, {})

    def serves(self, config: ExperimentConfig) -> bool:
        """Whether these are ``config``'s sites: the same specs, seed
        and steps per slot."""
        return (
            self.specs == config.specs
            and self.seed == config.seed
            and self.steps_per_slot == config.steps_per_slot
        )

    def _slot_memo(self, slot: int) -> dict:
        memo = self._memo
        if memo[0] != slot:
            memo = self._memo = (slot, {})
        return memo[1]

    def at(self, slot: int) -> SlotConditions:
        """The site inputs of every step of ``slot``."""
        memo = self._slot_memo(slot)
        conditions = memo.get("conditions")
        if conditions is None:
            steps = self.steps_per_slot
            times = slot * SECONDS_PER_HOUR + (
                (np.arange(steps) + 0.5) * (SECONDS_PER_HOUR / steps)
            )
            tariffs = [spec.tariff for spec in self.specs]
            peak = [tariff.is_peak(times) for tariff in tariffs]
            price = [tariff.price_per_kwh(times) for tariff in tariffs]
            conditions = memo["conditions"] = SlotConditions(
                times=_freeze(times),
                pv_power_w=_freeze(fleet_power_watts(self.arrays, times)),
                pue=_freeze(
                    fleet_pue([spec.pue_model for spec in self.specs], times)
                ),
                peak=_freeze(np.stack(peak, axis=1)),
                price=_freeze(np.stack(price, axis=1)),
            )
        return conditions

    def clear_sky_prior(self, slot: int) -> np.ndarray:
        """``(n_dcs,)`` clear-sky energy (J) of each site in ``slot``:
        the PV forecasters' prior
        (:meth:`~repro.datacenter.pv.PVArray.clear_sky_energy`).
        Evaluated on first ask, since a forecaster needs it only for an
        hour of day it has no history for."""
        memo = self._slot_memo(slot)
        prior = memo.get("prior")
        if prior is None:
            prior = memo["prior"] = _freeze(
                np.array([array.clear_sky_energy(slot) for array in self.arrays])
            )
        return prior


class SlotKernel:
    """Per-slot physics and accounting of one run.

    Parameters
    ----------
    config:
        The (already workload-configured) experiment configuration.
    materialization:
        The run's workload: population, traces, volumes and every
        realized per-slot matrix.
    site:
        The fleet's :class:`SiteConditions`: per-slot PV, PUE and
        tariffs, and the Eq. 1 latency model.
    green:
        The green controller stepping batteries/tariffs inside a slot.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        materialization: WorkloadMaterialization,
        site: SiteConditions,
        green: GreenController,
    ) -> None:
        self.config = config
        self.materialization = materialization
        self.site = site
        self.green = green
        #: Per-ServerModel (capacity, idle, peak) level arrays, keyed
        #: by object id; the value keeps the model alive so ids stay
        #: unique.  Server models are fixed per spec, so the fleet
        #: kernel gathers per-server coefficients without rebuilding
        #: these arrays every slot.
        self._level_cache: dict[int, tuple] = {}

    def _level_arrays(self, model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached per-level (capacity, idle W, peak W) arrays of a model."""
        cached = self._level_cache.get(id(model))
        if cached is None or cached[0] is not model:
            cached = (
                model,
                np.array(
                    [model.capacity(index) for index in range(len(model.levels))]
                ),
                np.array([spec.idle_watts for spec in model.levels]),
                np.array([spec.peak_watts for spec in model.levels]),
            )
            self._level_cache[id(model)] = cached
        return cached[1], cached[2], cached[3]

    # -- workload access ------------------------------------------------

    def _demand(self, vms: list[VirtualMachine], slot: int) -> np.ndarray:
        return self.materialization.demand(vms, slot)

    def _slot_volumes(self, vms: list[VirtualMachine], slot: int):
        return self.materialization.volume_matrix(vms, slot)

    # -- per-slot physics -------------------------------------------------

    def _fleet_it_power(
        self,
        placement: FleetPlacement,
        vm_rows: dict[int, int],
        demand_now: np.ndarray,
    ) -> tuple[np.ndarray, list[int]]:
        """IT power traces (W) of *every* DC in one pass.

        Sums each server's VM rows over the whole placement -- servers
        in DC index order, then placement order -- evaluates every
        server's power trace at once and adds the traces per DC.
        Returns the ``(n_dcs, steps)`` power matrix and the per-DC
        active-server counts.

        Bit-identical to per-server Python loops (add each server's VM
        rows onto a zero row in placement order, evaluate the server's
        power trace, add the traces per DC).  Servers are ranked by VM
        count, deepest first, so the servers holding a ``depth``-th VM
        are a prefix of the ranking: one slice-add per depth adds every
        server's ``depth``-th row, and each server still sums its rows
        in placement order.  The per-server power expression is
        elementwise, and each DC's reduction is ``sum(axis=0)`` over
        its *contiguous block* of per-server rows, which adds the rows
        in order.  Not ``np.add.reduceat``: it does not sum
        sequentially along axis 0, so its sums differ from the loops'
        in the last ulps.
        """
        steps = self.config.steps_per_slot
        allocations = placement.allocations
        actives = [allocation.active_servers for allocation in allocations]
        counts = [len(allocation.server_vms) for allocation in allocations]
        power = np.zeros((self.config.n_dcs, steps))
        if sum(counts) == 0:
            return power, actives

        servers = [
            vms for allocation in allocations for vms in allocation.server_vms
        ]
        sizes = np.array([len(vms) for vms in servers], dtype=int)
        row_of_vm = np.array(
            [vm_rows[vm_id] for vms in servers for vm_id in vms], dtype=int
        )
        rank = np.argsort(-sizes, kind="stable")
        first_rows = (np.cumsum(sizes) - sizes)[rank]
        # widths[depth]: how many servers hold more than ``depth`` VMs.
        widths = len(servers) - np.cumsum(np.bincount(sizes))[:-1]
        ranked = np.zeros((len(servers), steps))
        for depth, width in enumerate(widths):
            ranked[:width] += demand_now[row_of_vm[first_rows[:width] + depth]]
        aggregate = np.empty_like(ranked)
        aggregate[rank] = ranked

        cap_rows, idle_rows, peak_rows = [], [], []
        for allocation in allocations:
            if not allocation.server_vms:
                continue
            levels = np.asarray(allocation.frequencies, dtype=int)
            level_caps, level_idle, level_peak = self._level_arrays(
                allocation.model
            )
            cap_rows.append(level_caps[levels])
            idle_rows.append(level_idle[levels])
            peak_rows.append(level_peak[levels])
        caps = np.concatenate(cap_rows)
        idle = np.concatenate(idle_rows)
        peaks = np.concatenate(peak_rows)
        # clip(x, 0, 1) reduced to the saturation bound with buffer
        # reuse.  The lower clip is dropped: aggregates are sums of
        # non-negative demand over positive capacities, so utilization
        # can only differ from clip's by the sign of a zero -- and
        # ``idle + span * u`` maps both zeros to the same bits.
        utilization = np.divide(aggregate, caps[:, None], out=aggregate)
        np.minimum(utilization, 1.0, out=utilization)
        per_server = np.multiply(
            utilization, (peaks - idle)[:, None], out=utilization
        )
        per_server += idle[:, None]

        bounds = np.concatenate(([0], np.cumsum(counts)))
        for dc_index in range(self.config.n_dcs):
            block = per_server[bounds[dc_index] : bounds[dc_index + 1]]
            if block.shape[0]:
                power[dc_index] = block.sum(axis=0)
        return power, actives

    def _response_latencies(
        self,
        placement: FleetPlacement,
        vms: list[VirtualMachine],
        volumes_now: np.ndarray,
        slot: int,
    ) -> list[tuple[float, int]]:
        """Eq. 1 latency and receiving-VM count per destination DC.

        One stable argsort yields each DC's member indices in ascending
        order; each (src, dst) pair volume is then one fused
        ``volumes[np.ix_(src_members, dst_members)].sum()``, the same
        gather-and-sum a per-pair ``np.nonzero`` scan would do.

        Deliberately *not* ``np.add.reduceat``: reduceat accumulates
        strictly left-to-right while ndarray ``.sum()`` reduces
        pairwise, so their float64 results differ in the last ulps for
        any realistic block (see test_reduceat_is_not_bit_identical).
        """
        n_dcs = self.config.n_dcs
        dc_of = np.array([placement.assignment[vm.vm_id] for vm in vms], dtype=int)
        n_vms = dc_of.size
        received = volumes_now.sum(axis=0)  # MB flowing into each VM
        if n_vms == 0:
            member_counts = np.zeros(n_dcs, dtype=int)
            receiving_counts = np.zeros(n_dcs, dtype=int)
            pair_volumes = np.zeros((n_dcs, n_dcs))
        else:
            member_counts = np.bincount(dc_of, minlength=n_dcs)
            receiving_counts = np.bincount(
                dc_of[received > 0.0], minlength=n_dcs
            )
            order = np.argsort(dc_of, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(member_counts)))
            groups = [
                order[bounds[dc] : bounds[dc + 1]] for dc in range(n_dcs)
            ]
            pair_volumes = np.zeros((n_dcs, n_dcs))
            for src in range(n_dcs):
                if member_counts[src] == 0:
                    continue
                for dst in range(n_dcs):
                    if member_counts[dst] == 0:
                        continue
                    pair_volumes[src, dst] = volumes_now[
                        np.ix_(groups[src], groups[dst])
                    ].sum()

        results: list[tuple[float, int]] = []
        for dst in range(n_dcs):
            if member_counts[dst] == 0:
                results.append((0.0, 0))
                continue
            volumes_from = {
                src: float(pair_volumes[src, dst])
                for src in range(n_dcs)
                if pair_volumes[src, dst] > 0.0
            }
            latency = self.site.latency_model.destination_latency(
                dst, volumes_from, slot
            )
            results.append((latency, int(receiving_counts[dst])))
        return results

    # -- driver interface -------------------------------------------------

    def observe(
        self,
        slot: int,
        vms: list[VirtualMachine],
        previous_assignment: dict[int, int],
        dcs: list,
        clairvoyant: bool = False,
    ) -> SlotObservation:
        """Assemble the policy-facing observation for ``slot``.

        Carries the *previous* slot's realized traces and volumes
        (Section IV-A's last-interval protocol) unless ``clairvoyant``,
        and the previous assignment restricted to still-alive VMs.
        """
        observed_slot = slot if clairvoyant else max(slot - 1, 0)
        return SlotObservation(
            slot=slot,
            vms=vms,
            demand_traces=self._demand(vms, observed_slot),
            volumes=self._slot_volumes(vms, observed_slot),
            previous_assignment={
                vm.vm_id: previous_assignment[vm.vm_id]
                for vm in vms
                if vm.vm_id in previous_assignment
            },
            dcs=dcs,
            latency_model=self.site.latency_model,
            latency_constraint_s=self.config.latency_constraint_s,
        )

    def step(
        self,
        slot: int,
        vms: list[VirtualMachine],
        placement: FleetPlacement,
        dcs: list,
    ) -> SlotRecord:
        """Advance one slot of physics and return its ledger entry.

        Replays ``placement`` against the realized current-slot traces:
        IT power at the chosen DVFS levels, times the time-varying PUE,
        through the green controller (renewables, battery, grid, cost),
        plus the Eq. 1 response latencies.  Mutates the battery state
        held in ``dcs`` (built on this kernel's site) and the per-DC
        history -- the engine calls this exactly once per slot, in slot
        order.
        """
        config = self.config
        vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
        demand_now = self._demand(vms, slot)
        volumes_now = self._slot_volumes(vms, slot)
        latencies = self._response_latencies(
            placement, vms, volumes_now.volumes, slot
        )

        slot_record = SlotRecord(
            slot=slot,
            n_vms=len(vms),
            migrations=len(placement.moves),
            migration_volume_mb=sum(move.image_mb for move in placement.moves),
        )

        conditions = self.site.at(slot)
        step_s = SECONDS_PER_HOUR / config.steps_per_slot
        it_matrix, actives = self._fleet_it_power(
            placement, vm_rows, demand_now
        )
        facility_matrix = it_matrix * conditions.pue
        greens = self.green.run_slot_fleet(dcs, conditions, facility_matrix)
        for dc in dcs:
            green = greens[dc.index]
            dc.record_slot(slot, green.facility_energy, green.pv_generated)
            latency, receiving = latencies[dc.index]
            slot_record.dc_records.append(
                DCSlotRecord(
                    green=green,
                    it_energy_joules=float(
                        it_matrix[dc.index].sum() * step_s
                    ),
                    active_servers=actives[dc.index],
                    response_latency_s=latency,
                    receiving_vms=receiving,
                )
            )
        return slot_record
