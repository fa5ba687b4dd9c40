"""Reference loops the slot engine is checked against, bit for bit.

The engine ships one implementation per slot step.  The plain loops
those implementations were derived from live here, as test oracles:

* :func:`green_run_slot` -- the scalar green controller: one DC, one
  control step at a time, through the :class:`Battery` methods;
* :class:`LoopVolumes` -- the per-pair data-volume loop over a
  :class:`DataCorrelationProcess`'s own seeded draws;
* :class:`LoopKernel` -- a :class:`SlotKernel` whose demand rows, IT
  power, response latencies and green pass are per-row, per-server,
  per-pair and per-DC loops;
* :func:`loop_engine` -- a :class:`SimulationEngine` running on
  :class:`LoopKernel` and :class:`LoopVolumes`.

Every production path must equal its oracle exactly; the tests compare
with ``==`` / ``np.array_equal``, never with a tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.green import GreenController, GreenSlotResult
from repro.datacenter.datacenter import Datacenter
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SlotKernel
from repro.sim.results import DCSlotRecord, SlotRecord
from repro.units import SECONDS_PER_HOUR
from repro.workload.datacorr import DataCorrelationProcess, VolumeMatrix


def green_run_slot(
    controller: GreenController,
    dc: Datacenter,
    slot: int,
    facility_power_w: np.ndarray,
    slot_duration_s: float = SECONDS_PER_HOUR,
) -> GreenSlotResult:
    """Source one DC's slot step by step; mutates the DC's battery."""
    facility_power_w = np.asarray(facility_power_w, dtype=float)
    steps = facility_power_w.size
    dt = slot_duration_s / steps
    times = slot * slot_duration_s + (np.arange(steps) + 0.5) * dt
    pv_power = np.asarray(dc.pv.power_watts(times), dtype=float)
    tariff = dc.spec.tariff
    battery = dc.battery

    soc_start = battery.soc_joules
    pv_used = pv_stored = pv_curtailed = 0.0
    battery_discharged = grid_to_load = grid_to_battery = 0.0
    grid_cost = 0.0
    for k in range(steps):
        load_j = facility_power_w[k] * dt
        pv_j = float(pv_power[k]) * dt
        time_s = float(times[k])
        grid_j = 0.0
        if pv_j >= load_j:
            pv_used += load_j
            surplus = pv_j - load_j
            stored = battery.charge(surplus, dt)
            pv_stored += stored
            pv_curtailed += surplus - stored
        else:
            pv_used += pv_j
            deficit = load_j - pv_j
            if tariff.is_peak(time_s):
                delivered = battery.discharge(deficit, dt)
                battery_discharged += delivered
                grid_to_load += deficit - delivered
                grid_j = deficit - delivered
            else:
                offer = (
                    battery.max_charge_joules(dt)
                    * controller.grid_charge_fraction
                )
                charged = battery.charge(offer, dt)
                grid_to_battery += charged
                grid_to_load += deficit
                grid_j = deficit + charged
        if grid_j:
            grid_cost += tariff.cost_of(grid_j, time_s)

    result = GreenSlotResult(
        facility_energy=float(facility_power_w.sum() * dt),
        pv_generated=float(pv_power.sum() * dt),
        pv_used=pv_used,
        pv_stored=pv_stored,
        pv_curtailed=pv_curtailed,
        battery_discharged=battery_discharged,
        grid_to_load=grid_to_load,
        grid_to_battery=grid_to_battery,
        grid_energy=grid_to_load + grid_to_battery,
        grid_cost_eur=grid_cost,
        soc_start=soc_start,
        soc_end=battery.soc_joules,
    )
    result.sanity_check()
    return result


class LoopVolumes:
    """The per-pair volume loop over ``process``'s seeded draws."""

    def __init__(self, process: DataCorrelationProcess) -> None:
        self.process = process

    def volumes(self, vms, slot: int) -> VolumeMatrix:
        process = self.process
        n = len(vms)
        matrix = np.zeros((n, n))
        jitter = process._slot_jitter(n, slot)
        modulus = process.PHASE_MODULUS
        for a, src in enumerate(vms):
            for b, dst in enumerate(vms):
                if a == b:
                    continue
                base = process.pair_base_mb(src, dst)
                if base == 0.0:
                    continue
                phase = ((src.vm_id * 31 + dst.vm_id * 17) % modulus) / modulus
                matrix[a, b] = (
                    base * process._modulation(slot, phase) * jitter[a, b]
                )
        return VolumeMatrix(vm_ids=[vm.vm_id for vm in vms], volumes=matrix)


class LoopKernel(SlotKernel):
    """A :class:`SlotKernel` whose every physics step is a plain loop."""

    def _demand(self, vms, slot: int) -> np.ndarray:
        """One ``slot_demand`` call per row, on the run's own traces."""
        if not vms:
            return np.zeros((0, self.config.steps_per_slot))
        traces = self.materialization.traces
        return np.stack([traces.slot_demand(vm, slot) for vm in vms])

    def _slot_volumes(self, vms, slot: int) -> VolumeMatrix:
        """:class:`LoopVolumes` over the run's own volume process."""
        return LoopVolumes(self.materialization.volumes).volumes(vms, slot)

    def _dc_it_power(
        self, placement, dc_index: int, vm_rows: dict, demand_now: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """IT power trace (W) and active server count of one DC."""
        allocation = placement.allocations[dc_index]
        power = np.zeros(self.config.steps_per_slot)
        model = allocation.model
        for server_vms, level in zip(
            allocation.server_vms, allocation.frequencies
        ):
            aggregate = np.zeros(self.config.steps_per_slot)
            for vm_id in server_vms:
                aggregate += demand_now[vm_rows[vm_id]]
            power += model.power_trace(level, aggregate)
        return power, allocation.active_servers

    def _response_latencies(
        self, placement, vms, volumes_now: np.ndarray, slot: int
    ) -> list[tuple[float, int]]:
        """Per-(src, dst) ``np.nonzero`` scans and dict accumulation."""
        n_dcs = self.config.n_dcs
        dc_of = np.array(
            [placement.assignment[vm.vm_id] for vm in vms], dtype=int
        )
        results: list[tuple[float, int]] = []
        received = volumes_now.sum(axis=0)
        for dst in range(n_dcs):
            members = np.nonzero(dc_of == dst)[0]
            if members.size == 0:
                results.append((0.0, 0))
                continue
            volumes_from = {}
            for src in range(n_dcs):
                senders = np.nonzero(dc_of == src)[0]
                if senders.size == 0:
                    continue
                volume = float(volumes_now[np.ix_(senders, members)].sum())
                if volume > 0.0:
                    volumes_from[src] = volume
            latency = self.latency_model.destination_latency(
                dst, volumes_from, slot
            ).total_s
            receiving = int(np.count_nonzero(received[members] > 0.0))
            results.append((latency, receiving))
        return results

    def step(self, slot: int, vms, placement, dcs) -> SlotRecord:
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
        times = slot * SECONDS_PER_HOUR + (
            (np.arange(config.steps_per_slot) + 0.5)
            * (SECONDS_PER_HOUR / config.steps_per_slot)
        )
        step_s = SECONDS_PER_HOUR / config.steps_per_slot
        for dc in dcs:
            it_power, active = self._dc_it_power(
                placement, dc.index, vm_rows, demand_now
            )
            facility_power = it_power * dc.spec.pue_model.pue(times)
            green = green_run_slot(self.green, dc, slot, facility_power)
            dc.record_slot(slot, green.facility_energy, green.pv_generated)
            latency, receiving = latencies[dc.index]
            slot_record.dc_records.append(
                DCSlotRecord(
                    green=green,
                    it_energy_joules=float(it_power.sum() * step_s),
                    active_servers=active,
                    response_latency_s=latency,
                    receiving_vms=receiving,
                )
            )
        return slot_record


def loop_kernel(kernel: SlotKernel) -> LoopKernel:
    """A :class:`LoopKernel` over ``kernel``'s workload and models."""
    return LoopKernel(
        kernel.config,
        materialization=kernel.materialization,
        latency_model=kernel.latency_model,
        green=kernel.green,
    )


def loop_engine(config, policy, **options) -> SimulationEngine:
    """A :class:`SimulationEngine` whose kernel runs the loops."""
    engine = SimulationEngine(config, policy, **options)
    engine.kernel = loop_kernel(engine.kernel)
    return engine
