"""repro -- reproduction of Pahlevan et al., DATE 2016.

"Exploiting CPU-Load and Data Correlations in Multi-Objective VM
Placement for Geo-Distributed Data Centers."

Public API tour
---------------

Build a fleet and compare the paper's four policies on one workload::

    from repro import (
        scaled_config, run_policies,
        ProposedPolicy, EnerAwarePolicy, PriAwarePolicy, NetAwarePolicy,
        format_comparison,
    )

    config = scaled_config("small").with_horizon(48)
    results = run_policies(config, [
        ProposedPolicy(), EnerAwarePolicy(), PriAwarePolicy(), NetAwarePolicy(),
    ])
    print(format_comparison(results))

Sub-packages:

* :mod:`repro.core` -- the paper's contribution (force-directed
  clustering, capacity caps, modified k-means, Algorithm 2, the
  correlation-aware local phase, the green controller),
* :mod:`repro.baselines` -- Pri-aware / Ener-aware / Net-aware,
* :mod:`repro.datacenter` -- servers, power, PUE, PV, battery, tariffs,
* :mod:`repro.network` -- geo topology and the Eq. 1-4 latency model,
* :mod:`repro.workload` -- VMs, traces, arrival and data processes,
  unified behind versioned, content-hashed trace packs
  (:mod:`repro.workload.packs`),
* :mod:`repro.sim` -- configs, engine, metrics, results,
* :mod:`repro.experiments` -- one runner per paper figure, plus the
  orchestration layer (parallel run fan-out and the fingerprint-keyed
  persistent result store) every experiment executes through.
"""

from repro.analysis import (
    alpha_sweep,
    operational_cost_lower_bound,
    pareto_front,
)
from repro.baselines import EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy
from repro.core import ProposedPolicy
from repro.core.forces import ForceParameters
from repro.experiments import (
    Orchestrator,
    ResultStore,
    RunRequest,
    run_comparison,
    run_replicated_comparison,
)
from repro.sim import (
    ExperimentConfig,
    RunResult,
    SimulationEngine,
    format_comparison,
    normalized_costs,
    paper_config,
    run_policies,
    scaled_config,
)
from repro.workload.packs import (
    TracePack,
    available_packs,
    default_pack,
    get_pack,
    register_pack,
)

__version__ = "1.0.0"

__all__ = [
    "EnerAwarePolicy",
    "alpha_sweep",
    "operational_cost_lower_bound",
    "pareto_front",
    "ExperimentConfig",
    "ForceParameters",
    "NetAwarePolicy",
    "Orchestrator",
    "PriAwarePolicy",
    "ProposedPolicy",
    "ResultStore",
    "RunRequest",
    "RunResult",
    "SimulationEngine",
    "TracePack",
    "__version__",
    "available_packs",
    "default_pack",
    "format_comparison",
    "get_pack",
    "normalized_costs",
    "paper_config",
    "register_pack",
    "run_comparison",
    "run_policies",
    "run_replicated_comparison",
    "scaled_config",
]
