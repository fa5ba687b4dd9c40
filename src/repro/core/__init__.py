"""The paper's contribution: two-phase multi-objective VM placement.

* :mod:`repro.core.correlation` -- CPU-load and data correlation metrics
  feeding Eq. 5,
* :mod:`repro.core.forces` -- the force-directed 2D embedding
  (Eqs. 5-7),
* :mod:`repro.core.capacity` -- per-DC energy capacity caps,
* :mod:`repro.core.kmeans` -- the capacity-constrained modified k-means,
* :mod:`repro.core.migration` -- the migration revision step
  (paper Algorithm 2),
* :mod:`repro.core.local` -- the local, correlation-aware server
  allocation with DVFS (reimplementation of Kim et al., DATE 2013),
* :mod:`repro.core.green` -- the rule-based green controller,
* :mod:`repro.core.controller` -- the complete "Proposed" policy.
"""

from repro.core.capacity import CapacityCap, compute_capacity_caps
from repro.core.controller import ProposedPolicy
from repro.core.correlation import (
    attraction_matrix,
    peak_coincidence,
    repulsion_matrix,
)
from repro.core.forces import EmbeddingResult, ForceDirectedEmbedding, ForceParameters
from repro.core.green import GreenController, GreenSlotResult
from repro.core.kmeans import ClusterResult, constrained_kmeans
from repro.core.local import (
    ServerAllocation,
    allocate_correlation_aware,
    allocate_first_fit,
)
from repro.core.migration import MigrationPlan, revise_migrations

__all__ = [
    "CapacityCap",
    "ClusterResult",
    "EmbeddingResult",
    "ForceDirectedEmbedding",
    "ForceParameters",
    "GreenController",
    "GreenSlotResult",
    "MigrationPlan",
    "ProposedPolicy",
    "ServerAllocation",
    "allocate_correlation_aware",
    "allocate_first_fit",
    "attraction_matrix",
    "compute_capacity_caps",
    "constrained_kmeans",
    "peak_coincidence",
    "repulsion_matrix",
    "revise_migrations",
]
