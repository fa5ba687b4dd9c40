"""Virtual machine model.

A :class:`VirtualMachine` is the unit of placement.  It carries the
static attributes the paper's controllers consume:

* a migration image size in GB (2/4/8 GB with probabilities 60/30/10 %,
  Section V-A), which determines how long an inter-DC migration takes;
* a peak CPU demand expressed in *core units* of the reference server;
* an application archetype that selects the diurnal utilization profile
  used by :class:`repro.workload.traces.TraceLibrary`;
* a *service* identifier grouping VMs that exchange data (the data
  correlation process generates most of its traffic inside services).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

#: Migration image sizes in GB with their sampling probabilities
#: (Section V-A: "the size of the VMs are in the range of 2, 4, and 8 GB
#: according to the distribution of 60%, 30%, and 10%").
IMAGE_SIZES_GB = (2.0, 4.0, 8.0)
IMAGE_SIZE_PROBS = (0.60, 0.30, 0.10)


class AppType(enum.Enum):
    """Application archetypes hosted by the virtualized DCs.

    The paper motivates the correlation-aware design with the contrast
    between scale-out services (web search, MapReduce) and HPC jobs
    (Section I).  Each archetype maps to a diurnal CPU profile in
    :mod:`repro.workload.traces`.
    """

    WEB = "web"
    BATCH = "batch"
    HPC = "hpc"


#: Sampling weights for archetypes in a generic cloud mix.
APP_TYPE_PROBS = {AppType.WEB: 0.5, AppType.BATCH: 0.3, AppType.HPC: 0.2}


@dataclass(frozen=True)
class VirtualMachine:
    """A virtual machine known to the global controller.

    Attributes
    ----------
    vm_id:
        Unique, stable integer identifier.
    app_type:
        Workload archetype driving the CPU trace shape.
    cores:
        Peak CPU demand in core units of the reference server (a trace
        value of 1.0 means the VM uses ``cores`` full cores).
    image_gb:
        Migration image size in GB (drawn from 2/4/8 @ 60/30/10 %).
    arrival_slot:
        First slot in which the VM exists.
    departure_slot:
        First slot in which the VM no longer exists (exclusive bound).
    service_id:
        Communication group; VMs of the same service exchange the bulk
        of the data volumes.
    phase_hours:
        Per-VM shift of the diurnal profile, in hours.  VMs of the same
        service share a phase so their CPU peaks coincide, which is what
        makes the repulsion force meaningful.
    seed:
        Per-VM randomness root for deterministic trace generation.
    """

    vm_id: int
    app_type: AppType
    cores: float
    image_gb: float
    arrival_slot: int
    departure_slot: int
    service_id: int
    phase_hours: float = 0.0
    seed: int = field(default=0)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"VM {self.vm_id}: cores must be positive")
        if self.departure_slot <= self.arrival_slot:
            raise ValueError(
                f"VM {self.vm_id}: departure_slot ({self.departure_slot}) must "
                f"be after arrival_slot ({self.arrival_slot})"
            )
        if self.image_gb <= 0:
            raise ValueError(f"VM {self.vm_id}: image_gb must be positive")

    def alive_at(self, slot: int) -> bool:
        """Whether the VM exists during ``slot``."""
        return self.arrival_slot <= slot < self.departure_slot


def sample_image_size_gb(rng: np.random.Generator) -> float:
    """Draw a migration image size from the paper's 2/4/8 GB distribution."""
    return float(rng.choice(IMAGE_SIZES_GB, p=IMAGE_SIZE_PROBS))


def sample_app_type(
    rng: np.random.Generator,
    mix: dict[AppType, float] | None = None,
) -> AppType:
    """Draw an application archetype.

    ``mix`` overrides the default cloud mix; weights are normalized and
    must be non-negative with a positive sum.
    """
    mix = mix or APP_TYPE_PROBS
    types = list(mix)
    weights = np.array([mix[t] for t in types], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative with a positive sum")
    probs = weights / weights.sum()
    return types[int(rng.choice(len(types), p=probs))]
