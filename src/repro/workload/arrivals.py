"""VM arrival and lifetime process.

Section V-A: "Arrival and life-time of each VM, given in time slots, are
generated by poisson and exponential distributions, respectively."

VMs arrive in *services* -- small groups (a web tier and its backends, a
MapReduce job's workers) that share an application archetype and a
diurnal phase, and that exchange the bulk of the data volumes.  The
whole horizon is pre-generated deterministically from a seed so that
every policy in a comparison sees exactly the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workload.vm import (
    VirtualMachine,
    sample_app_type,
    sample_image_size_gb,
)

@dataclass(frozen=True)
class ArrivalModel:
    """Parameters of the service arrival process.

    Attributes
    ----------
    initial_services:
        Services already running at slot 0.
    arrival_rate:
        Poisson rate of new service arrivals per slot.
    mean_lifetime_slots:
        Mean of the exponential VM lifetime (in slots).
    min_service_size / max_service_size:
        Uniform bounds on the number of VMs per service.
    min_cores / max_cores:
        Uniform bounds on each VM's peak core demand.
    app_mix:
        Optional archetype weights (:class:`~repro.workload.vm.AppType`
        -> weight); defaults to the library's generic cloud mix.
    """

    initial_services: int = 20
    arrival_rate: float = 2.0
    mean_lifetime_slots: float = 48.0
    min_service_size: int = 2
    max_service_size: int = 6
    min_cores: float = 1.0
    max_cores: float = 4.0
    app_mix: dict | None = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if self.mean_lifetime_slots <= 0:
            raise ValueError("mean_lifetime_slots must be positive")
        if not 1 <= self.min_service_size <= self.max_service_size:
            raise ValueError("invalid service size bounds")
        if not 0 < self.min_cores <= self.max_cores:
            raise ValueError("invalid core bounds")


@dataclass
class VMPopulation:
    """The full, pre-generated VM population over a horizon.

    Use :func:`VMPopulation.generate` to build one; then :meth:`alive`
    gives the VM set a controller sees at each slot.
    """

    vms: list[VirtualMachine]
    horizon_slots: int
    _by_slot: dict[int, list[VirtualMachine]] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def generate(
        cls,
        model: ArrivalModel,
        horizon_slots: int,
        seed: int = 0,
    ) -> "VMPopulation":
        """Generate the population for ``horizon_slots`` slots.

        Initial services are alive at slot 0 with a residual lifetime;
        afterwards ``Poisson(arrival_rate)`` services arrive per slot.
        Every VM in a service shares the archetype, diurnal phase and
        service id; sizes, cores and lifetimes are per-VM.
        """
        if horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        rng = np.random.default_rng(seed)
        vms: list[VirtualMachine] = []
        next_vm_id = 0
        next_service_id = 0

        def spawn_service(arrival_slot: int) -> None:
            nonlocal next_vm_id, next_service_id
            size = int(
                rng.integers(model.min_service_size, model.max_service_size + 1)
            )
            app_type = sample_app_type(rng, model.app_mix)
            phase = float(rng.uniform(0.0, 3.0))
            for _ in range(size):
                lifetime = max(1, int(rng.exponential(model.mean_lifetime_slots)))
                vms.append(
                    VirtualMachine(
                        vm_id=next_vm_id,
                        app_type=app_type,
                        cores=float(
                            rng.uniform(model.min_cores, model.max_cores)
                        ),
                        image_gb=sample_image_size_gb(rng),
                        arrival_slot=arrival_slot,
                        departure_slot=arrival_slot + lifetime,
                        service_id=next_service_id,
                        phase_hours=phase,
                        seed=int(rng.integers(0, 2**31 - 1)),
                    )
                )
                next_vm_id += 1
            next_service_id += 1

        for _ in range(model.initial_services):
            spawn_service(0)
        for slot in range(1, horizon_slots):
            for _ in range(int(rng.poisson(model.arrival_rate))):
                spawn_service(slot)

        return cls(vms=vms, horizon_slots=horizon_slots)

    def alive(self, slot: int) -> list[VirtualMachine]:
        """VMs that exist during ``slot``, ordered by vm_id (cached)."""
        if slot not in self._by_slot:
            self._by_slot[slot] = [vm for vm in self.vms if vm.alive_at(slot)]
        return self._by_slot[slot]

    def arrivals(self, slot: int) -> list[VirtualMachine]:
        """VMs whose first slot is ``slot``."""
        return [vm for vm in self.vms if vm.arrival_slot == slot]
