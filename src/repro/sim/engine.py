"""Hour-slotted simulation engine.

Each slot the engine (Section IV-A's protocol):

1. updates the alive VM set (Poisson arrivals / exponential departures);
2. assembles the :class:`~repro.sim.state.SlotObservation` -- the
   *previous* slot's demand traces and data volumes plus the live DC
   states -- and asks the policy for a placement;
3. replays the placement against the *realized* current-slot traces:
   per-server power at the chosen DVFS level, times the site's
   time-varying PUE, gives each DC's facility power;
4. runs the green controller over the slot (renewables, battery, grid,
   cost);
5. evaluates the response-time model: current-slot data volumes are
   aggregated per DC pair and Eq. 1 gives each destination DC's
   worst-case latency, sampled once per receiving VM.

The engine owns all mutation (battery state, forecaster history);
policies only read the observation.

The per-slot physics and accounting live in the
:class:`~repro.sim.kernel.SlotKernel`, one implementation per step,
and the workload in a
:class:`~repro.workload.materialize.WorkloadMaterialization`.  This
module holds the one slot loop, :func:`run_lockstep`: it advances a
group of engines that share one materialization through
:meth:`SimulationEngine.advance` slot by slot, so the paper's
comparison protocol -- every policy on the same alive set, demand and
volumes -- realizes each slot's workload once for the whole group.
:meth:`SimulationEngine.run` is the group of one.  An ``--engine
event`` run (``EngineCoreConfig(kind="event")``) goes through the same
loop and additionally samples the slot's user requests after each
step into the per-request latency ledger
(:attr:`~repro.sim.results.RunResult.requests`), so its slot ledgers
are byte-identical to a slot-kind run's.  Tests and tools that need
the physics internals address them on ``engine.kernel``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.green import GreenController
from repro.sim.config import (
    EngineCoreConfig,
    ExperimentConfig,
    build_datacenters,
    build_latency_model,
)
from repro.sim.kernel import SlotKernel
from repro.sim.results import RunResult, SlotRecord
from repro.sim.state import PlacementPolicy
from repro.units import SECONDS_PER_HOUR
from repro.workload.materialize import build_materialization

#: Third word of the request stream's seed sequence: keeps the request
#: Poisson draws disjoint from the workload streams, which derive from
#: ``config.seed`` alone, so sampling requests never perturbs physics.
_REQUEST_SALT = 0xE7


class SimulationEngine:
    """Runs one policy over one configuration.

    Parameters
    ----------
    config:
        The experiment configuration (fleet, horizon, workload).
    policy:
        The placement policy under test.
    clairvoyant:
        When True the observation carries the *current* slot's traces
        and volumes instead of the previous slot's -- a perfect
        load/communication forecast.  The paper's controllers plan on
        last-interval data (Section IV-A); the clairvoyant mode bounds
        what better forecasting could buy.
    materialization:
        The :class:`~repro.workload.materialize.WorkloadMaterialization`
        supplying the population, traces, volumes and realized
        per-slot matrices -- the one a lockstep group
        (:func:`run_lockstep`) shares, built by
        :func:`~repro.workload.materialize.build_materialization` from
        the run's :class:`~repro.workload.packs.TracePack`.  It must
        realize this ``config``'s workload
        (:meth:`~repro.workload.materialize.WorkloadMaterialization.realizes`:
        the same seed, horizon, slot resolution and arrival model) --
        configs differing only in workload-irrelevant fields (fleet
        specs, tariffs, QoS) share materializations.  Its pack may
        rewrite the config (``configure``), e.g. a scenario pack
        overriding the arrival model's archetype mix.  Without one the
        engine builds the default (synthetic) pack's.
    engine:
        The :class:`~repro.sim.config.EngineCoreConfig` selecting the
        run kind: ``kind="slot"`` (default) records the slot ledgers
        only; ``kind="event"`` runs the same loop and additionally
        samples per-request latencies after each slot.  Slot ledgers
        are byte-identical either way.

    Attributes
    ----------
    result:
        The ledger of the run in progress, set by :meth:`begin`.
    elapsed_s:
        Seconds spent in this engine's own :meth:`advance` calls.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        policy: PlacementPolicy,
        clairvoyant: bool = False,
        materialization=None,
        engine: EngineCoreConfig | None = None,
    ) -> None:
        if materialization is None:
            materialization = build_materialization(config, None)
        elif not materialization.realizes(config):
            # The sharing contract is the workload, not config
            # equality: configs differing only in workload-irrelevant
            # fields (fleet specs, tariffs, QoS -- a battery sweep)
            # share one materialization.  The engine keeps ITS config
            # for the physics and only adopts the pack's configure
            # overrides.
            raise ValueError(
                "materialization was built for a different workload "
                "(seed, horizon, slot resolution or arrival model)"
            )
        config = materialization.pack.configure(config)
        if engine is None:
            engine = EngineCoreConfig()
        self.config = config
        self.policy = policy
        self.clairvoyant = clairvoyant
        self.engine_config = engine
        self.kernel = SlotKernel(
            config,
            materialization=materialization,
            latency_model=build_latency_model(config),
            green=GreenController(
                step_s=SECONDS_PER_HOUR / config.steps_per_slot
            ),
        )
        self.latency_model = self.kernel.latency_model
        self.green = self.kernel.green
        self.result: RunResult | None = None
        self.elapsed_s = 0.0

    # -- the slot step -----------------------------------------------------

    def begin(self) -> None:
        """Reset the policy and start an empty ledger at slot 0."""
        self.policy.reset()
        self._dcs = build_datacenters(self.config)
        self._previous_assignment: dict[int, int] = {}
        self.elapsed_s = 0.0
        self.result = RunResult(
            policy_name=self.policy.name,
            config_name=self.config.name,
            requests=[] if self.engine_config.kind == "event" else None,
        )

    def advance(self, slot: int) -> None:
        """Simulate ``slot`` and append its record to :attr:`result`.

        One kernel ``observe``, the policy's placement (validated
        against the observation), one kernel ``step``; an event-kind
        run also appends the slot's request batches
        (:meth:`_sample_requests`).  Slots must come in order, after
        :meth:`begin`.
        """
        started = time.perf_counter()
        kernel = self.kernel
        vms = kernel.materialization.population.alive(slot)
        observation = kernel.observe(
            slot,
            vms,
            self._previous_assignment,
            self._dcs,
            clairvoyant=self.clairvoyant,
        )
        placement = self.policy.place(observation)
        placement.validate(observation)
        record = kernel.step(slot, vms, placement, self._dcs)
        self.result.slots.append(record)
        self._previous_assignment = dict(placement.assignment)
        if self.result.requests is not None:
            self.result.requests.extend(self._sample_requests(record))
        self.elapsed_s += time.perf_counter() - started

    def run(self) -> RunResult:
        """Simulate the full horizon and return the result ledger.

        The lockstep group of one: a failed slot re-raises its error.
        """
        [outcome] = run_lockstep([self])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _sample_requests(self, record: SlotRecord) -> list[list]:
        """The slot's ``[slot, dc, latency_s, count]`` request batches.

        One Poisson count per DC with receiving VMs, in DC order, of
        mean ``receiving_vms * requests_per_vm_hour``, drawn from the
        slot's own ``default_rng([seed, slot, _REQUEST_SALT])`` stream;
        each nonzero count is ledgered at the DC's Eq. 1 latency.
        """
        slot = record.slot
        rate = self.engine_config.requests_per_vm_hour
        rng = np.random.default_rng([self.config.seed, slot, _REQUEST_SALT])
        rows = []
        for dc_index, dc_record in enumerate(record.dc_records):
            if dc_record.receiving_vms == 0:
                continue
            count = int(rng.poisson(dc_record.receiving_vms * rate))
            if count:
                rows.append(
                    [slot, dc_index, dc_record.response_latency_s, count]
                )
        return rows


def run_lockstep(
    engines: Sequence[SimulationEngine],
) -> list[RunResult | Exception]:
    """Advance engines that share one materialization, slot by slot.

    The one slot loop.  Each slot, every engine still running advances
    in turn, so the materialization's two-slot window serves the whole
    group: each (vm, slot) demand row and (population, slot) volume
    matrix is computed once.  An engine that raises drops out with its
    exception as its outcome; the others run on.  Returns each
    engine's :class:`~repro.sim.results.RunResult` or exception, in
    engine order.
    """
    if not engines:
        return []
    materialization = engines[0].kernel.materialization
    if any(
        engine.kernel.materialization is not materialization
        for engine in engines
    ):
        raise ValueError("a lockstep group shares one materialization")
    failed: dict[int, Exception] = {}
    for index, engine in enumerate(engines):
        try:
            engine.begin()
        except Exception as error:
            failed[index] = error
    for slot in range(materialization.config.horizon_slots):
        for index, engine in enumerate(engines):
            if index in failed:
                continue
            try:
                engine.advance(slot)
            except Exception as error:
                failed[index] = error
    return [
        failed.get(index, engine.result)
        for index, engine in enumerate(engines)
    ]


def run_policies(
    config: ExperimentConfig,
    policies: list[PlacementPolicy],
    engine: EngineCoreConfig | None = None,
) -> list[RunResult]:
    """Run several policies over the *same* workload realization.

    The paper's comparison protocol: the policies advance in lockstep
    (:func:`run_lockstep`) on one materialization of the default pack,
    so they see identical VMs, traces and volumes -- and every engine
    derives its weather and BER streams from ``config.seed`` too.  The
    ``engine`` kind is forwarded to every :class:`SimulationEngine`
    constructed.  The first failed run's error re-raises once every run
    has finished.
    """
    materialization = build_materialization(config, None)
    outcomes = run_lockstep(
        [
            SimulationEngine(
                config,
                policy,
                materialization=materialization,
                engine=engine,
            )
            for policy in policies
        ]
    )
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
