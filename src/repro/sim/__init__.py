"""Simulation: configs, the slot engine, metrics and results.

* :mod:`repro.sim.config` -- experiment configurations (Table I fleet
  and CI-scale variants) and fleet builders,
* :mod:`repro.sim.state` -- the observation/placement interface between
  the engine and placement policies,
* :mod:`repro.sim.engine` -- the hour-slotted simulation loop,
* :mod:`repro.sim.kernel` -- per-slot physics and the site conditions
  a lockstep group shares,
* :mod:`repro.sim.metrics` / :mod:`repro.sim.results` -- per-slot
  records and aggregate results (cost, energy, response time).
"""

from repro.sim.config import (
    ExperimentConfig,
    build_datacenters,
    build_latency_model,
    paper_config,
    scaled_config,
)
from repro.sim.audit import AuditReport, audit_run
from repro.sim.engine import SimulationEngine, run_policies
from repro.sim.kernel import SiteConditions
from repro.sim.metrics import (
    format_comparison,
    improvements,
    normalized_costs,
    response_time_pdf,
)
from repro.sim.results import OBJECTIVES, RunResult, SlotRecord
from repro.sim.state import FleetPlacement, PlacementPolicy, SlotObservation

__all__ = [
    "AuditReport",
    "OBJECTIVES",
    "ExperimentConfig",
    "FleetPlacement",
    "PlacementPolicy",
    "RunResult",
    "SimulationEngine",
    "SiteConditions",
    "SlotObservation",
    "SlotRecord",
    "audit_run",
    "build_datacenters",
    "build_latency_model",
    "format_comparison",
    "improvements",
    "normalized_costs",
    "paper_config",
    "response_time_pdf",
    "run_policies",
    "scaled_config",
]
