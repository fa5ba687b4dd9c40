"""Physics audit of every policy, including extension modes.

The auditor (:mod:`repro.sim.audit`) checks conservation, SoC
continuity, server bounds and metric signs for every slot of a run;
this integration test runs it across the full policy matrix.
"""

import pytest

from repro.baselines import EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy
from repro.core.controller import ProposedPolicy
from repro.core.forces import ForceParameters
from repro.core.local import allocate_first_fit
from repro.sim.audit import audit_run
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine

POLICIES = [
    pytest.param(lambda: ProposedPolicy(), id="proposed"),
    pytest.param(
        lambda: ProposedPolicy(force_params=ForceParameters(alpha=0.9)),
        id="proposed-alpha09",
    ),
    pytest.param(
        lambda: ProposedPolicy(local_allocator=allocate_first_fit),
        id="proposed-blind-local",
    ),
    pytest.param(lambda: EnerAwarePolicy(), id="ener"),
    pytest.param(lambda: PriAwarePolicy(), id="pri"),
    pytest.param(lambda: NetAwarePolicy(), id="net"),
]


@pytest.fixture(scope="module")
def config():
    return scaled_config("tiny").with_horizon(5)


@pytest.mark.parametrize("make_policy", POLICIES)
def test_policy_run_passes_audit(config, make_policy):
    result = SimulationEngine(config, make_policy()).run()
    audit_run(result, config).raise_if_failed()


def test_clairvoyant_run_passes_audit(config):
    engine = SimulationEngine(config, ProposedPolicy(), clairvoyant=True)
    audit_run(engine.run(), config).raise_if_failed()


def test_other_seed_passes_audit():
    config = scaled_config("tiny", seed=1234).with_horizon(5)
    result = SimulationEngine(config, ProposedPolicy()).run()
    audit_run(result, config).raise_if_failed()
