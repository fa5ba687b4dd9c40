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
the workload in a
:class:`~repro.workload.materialize.WorkloadMaterialization` and the
site inputs (PV, PUE, tariffs, clear-sky priors, BER windows) in a
:class:`~repro.sim.kernel.SiteConditions`.  This module holds the one
slot loop, :func:`run_lockstep`: it advances a group of engines that
share one materialization through :meth:`SimulationEngine.advance`
slot by slot, on one thread, so the paper's comparison protocol --
every policy on the same alive set, demand and volumes, at the same
sites -- realizes each slot's workload once for the whole group, and
its site inputs once for the engines that run one fleet: they share
one ``SiteConditions`` and with it one latency model.
:meth:`SimulationEngine.run` is the group of one.  The engine records
slot ledgers only.  An event-kind run (``EngineCoreConfig(kind="event")``,
reachable through a suite's ``engines`` axis and ``RunRequest.options``)
is its slot ledger plus one request draw: :func:`with_requests`
projects a finished ledger onto the per-request latency ledger
(:attr:`~repro.sim.results.RunResult.requests`), so the orchestrator
runs a slot run and its event twins as one simulation.  Tests and
tools that need the physics internals address them on
``engine.kernel``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

import numpy as np

from repro.core.green import GreenController
from repro.sim.config import (
    EngineCoreConfig,
    ExperimentConfig,
    build_datacenters,
)
from repro.sim.kernel import SiteConditions, SlotKernel
from repro.sim.results import RunResult
from repro.sim.state import PlacementPolicy
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
    site:
        The :class:`~repro.sim.kernel.SiteConditions` of this
        ``config``'s fleet (the same specs, seed and steps per slot:
        :meth:`~repro.sim.kernel.SiteConditions.serves`), shared by the
        engines of a lockstep group that run one fleet.  Without one
        the engine builds its own.

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
        site: SiteConditions | None = None,
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
        if site is None:
            site = SiteConditions(config)
        elif not site.serves(config):
            raise ValueError(
                "site conditions were built for another fleet "
                "(specs, seed or steps per slot)"
            )
        self.config = config
        self.policy = policy
        self.clairvoyant = clairvoyant
        self.kernel = SlotKernel(
            config,
            materialization=materialization,
            site=site,
            green=GreenController(),
        )
        self.result: RunResult | None = None
        self.elapsed_s = 0.0

    # -- the slot step -----------------------------------------------------

    def begin(self) -> None:
        """Reset the policy and start an empty ledger at slot 0."""
        self.policy.reset()
        self._dcs = build_datacenters(self.kernel.site)
        self._previous_assignment: dict[int, int] = {}
        self.elapsed_s = 0.0
        self.result = RunResult(
            policy_name=self.policy.name, config_name=self.config.name
        )

    def advance(self, slot: int) -> None:
        """Simulate ``slot`` and append its record to :attr:`result`.

        One kernel ``observe``, the policy's placement (validated
        against the observation), one kernel ``step``.  Slots must come
        in order, after :meth:`begin`.
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
        self.elapsed_s += time.perf_counter() - started

    def run(self) -> RunResult:
        """Simulate the full horizon and return the result ledger.

        The lockstep group of one: a failed slot re-raises its error.
        """
        [outcome] = run_lockstep([self])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def with_requests(
    result: RunResult, seed: int, engine: EngineCoreConfig
) -> RunResult:
    """``result`` as a run of the ``engine`` kind.

    A slot kind returns ``result`` itself.  An event kind returns a new
    run sharing ``result``'s slot records, plus its request ledger: per
    slot, one Poisson count per DC with receiving VMs, in DC order, of
    mean ``receiving_vms * requests_per_vm_hour``, drawn from the
    slot's own ``default_rng([seed, slot, _REQUEST_SALT])`` stream;
    each nonzero count is ledgered as a ``[slot, dc, latency_s,
    count]`` row at the DC's Eq. 1 latency.
    """
    if engine.kind == "slot":
        return result
    rate = engine.requests_per_vm_hour
    rows = []
    for record in result.slots:
        rng = np.random.default_rng([seed, record.slot, _REQUEST_SALT])
        for dc_index, dc_record in enumerate(record.dc_records):
            if dc_record.receiving_vms == 0:
                continue
            count = int(rng.poisson(dc_record.receiving_vms * rate))
            if count:
                latency_s = dc_record.response_latency_s
                rows.append([record.slot, dc_index, latency_s, count])
    return dataclasses.replace(result, requests=rows)


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
    config: ExperimentConfig, policies: list[PlacementPolicy]
) -> list[RunResult]:
    """Run several policies over the *same* workload realization.

    The paper's comparison protocol: the policies advance in lockstep
    (:func:`run_lockstep`, one thread) on one materialization of the
    default pack and one :class:`~repro.sim.kernel.SiteConditions`, so
    they see identical VMs, traces and volumes, and identical weather,
    PUE, prices and BER windows, each computed once per slot for the
    group: the engines share one latency model.  The first failed
    run's error re-raises once every run has finished.
    """
    materialization = build_materialization(config, None)
    site = SiteConditions(config)
    outcomes = run_lockstep(
        [
            SimulationEngine(
                config, policy, materialization=materialization, site=site
            )
            for policy in policies
        ]
    )
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
