"""Experiment configurations and fleet builders.

:func:`paper_config` reproduces Table I exactly: Lisbon (DC1, 1500
servers, 150 kWp PV, 960 kWh battery), Zurich (DC2, 1000/100/720) and
Helsinki (DC3, 500/50/480), 5 s control sampling, one-week horizon.

:func:`scaled_config` keeps the *shape* of the fleet (the 3:2:1 server
ratio, 0.1 kWp and 0.64 kWh per server, the same sites, tariffs and
time zones) at a size that runs on a laptop; this is what the test
suite and the benchmark harness use, as recorded in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.datacenter.datacenter import Datacenter, DatacenterSpec
from repro.datacenter.price import TwoLevelTariff
from repro.datacenter.pue import FreeCoolingPUE
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.units import SECONDS_PER_HOUR
from repro.workload.arrivals import ArrivalModel

#: Site constants: (name, latitude, longitude, tz offset, tariff, PUE).
#: Tariff levels are realistic two-level retail prices; only their
#: ratios and phase offsets drive the placement policies.
SITES = {
    "Lisbon": dict(
        latitude=38.7223,
        longitude=-9.1393,
        tz_offset_hours=0.0,
        tariff=TwoLevelTariff(
            peak_price=0.24, offpeak_price=0.12, tz_offset_hours=0.0
        ),
        pue=FreeCoolingPUE(mean_temp_c=16.0, daily_swing_c=6.0, tz_offset_hours=0.0),
    ),
    "Zurich": dict(
        latitude=47.3769,
        longitude=8.5417,
        tz_offset_hours=1.0,
        tariff=TwoLevelTariff(
            peak_price=0.20, offpeak_price=0.10, tz_offset_hours=1.0
        ),
        pue=FreeCoolingPUE(mean_temp_c=13.0, daily_swing_c=6.0, tz_offset_hours=1.0),
    ),
    "Helsinki": dict(
        latitude=60.1699,
        longitude=24.9384,
        tz_offset_hours=2.0,
        tariff=TwoLevelTariff(
            peak_price=0.16, offpeak_price=0.08, tz_offset_hours=2.0
        ),
        pue=FreeCoolingPUE(mean_temp_c=11.0, daily_swing_c=6.0, tz_offset_hours=2.0),
    ),
}

#: Table I per-server energy-source densities.  PV is proportional to
#: fleet size (150/100/50 kWp over 1500/1000/500 servers = 0.1 kWp per
#: server); the battery is NOT (960/720/480 kWh is a 4:3:2 ratio), so
#: each site keeps its own kWh-per-server density.
PV_KWP_PER_SERVER = 0.1
BATTERY_KWH_PER_SERVER = {
    "Lisbon": 960.0 / 1500.0,
    "Zurich": 720.0 / 1000.0,
    "Helsinki": 480.0 / 500.0,
}


def _make_spec(site: str, n_servers: int) -> DatacenterSpec:
    info = SITES[site]
    return DatacenterSpec(
        name=site,
        latitude=info["latitude"],
        longitude=info["longitude"],
        n_servers=n_servers,
        pv_kwp=PV_KWP_PER_SERVER * n_servers,
        battery_kwh=BATTERY_KWH_PER_SERVER[site] * n_servers,
        tariff=info["tariff"],
        pue_model=info["pue"],
        tz_offset_hours=info["tz_offset_hours"],
    )


@dataclass(frozen=True)
class EngineCoreConfig:
    """Which kind of run a request asks for, and its knobs.

    Part of :class:`~repro.experiments.orchestrator.EngineOptions`, so
    the kind joins the run fingerprint and the service wire
    round-trip: a ``kind="event"`` run is a *different artifact* from a
    ``kind="slot"`` run (it additionally carries the per-request
    latency ledger), but not a different simulation: the engine runs
    slots only, and :func:`~repro.sim.engine.with_requests` projects
    the finished slot ledger onto this kind.  A suite's ``engines``
    axis and a hand-built ``RunRequest.options`` are the only ways to
    ask for an event run.

    Attributes
    ----------
    kind:
        ``"slot"`` -- the slot ledgers only (default); ``"event"`` --
        the same slot ledgers plus one draw of each slot's user
        requests into the per-request latency ledger
        (:attr:`~repro.sim.results.RunResult.requests`).  The name
        stays ``"event"`` because it is part of stored fingerprints
        and suite specs (``engines = ["slot", "event"]``).
    requests_per_vm_hour:
        Mean simulated user requests per receiving VM per hour-slot;
        the Poisson request stream's intensity.  Must be finite and
        positive.  Only the request ledger depends on it -- slot
        physics never does.
    """

    kind: str = "slot"
    requests_per_vm_hour: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in ("slot", "event"):
            raise ValueError(
                f"engine kind must be 'slot' or 'event', got {self.kind!r}"
            )
        if not (
            math.isfinite(self.requests_per_vm_hour)
            and self.requests_per_vm_hour > 0.0
        ):
            raise ValueError(
                "requests_per_vm_hour must be finite and positive, got "
                f"{self.requests_per_vm_hour!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulation run depends on.

    Attributes
    ----------
    name:
        Config label recorded into results.
    specs:
        The DC fleet (index order = DC1, DC2, DC3...).
    horizon_slots:
        Number of one-hour slots to simulate.
    steps_per_slot:
        Trace samples / green-controller steps per slot (paper: 720,
        i.e. 5 s granularity).
    arrival_model:
        The VM arrival/lifetime process.
    qos:
        Migration QoS level; the hard latency window is
        ``(1 - qos) * slot`` (98 % -> 72 s).
    seed:
        Root seed; workload, traces, volumes, weather and BER derive
        their own streams from it.
    """

    name: str
    specs: tuple[DatacenterSpec, ...]
    horizon_slots: int = 168
    steps_per_slot: int = 720
    arrival_model: ArrivalModel = field(default_factory=ArrivalModel)
    qos: float = 0.98
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("at least one DC spec required")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if self.steps_per_slot < 1:
            raise ValueError("steps_per_slot must be >= 1")
        if not 0.0 < self.qos < 1.0:
            raise ValueError("qos must be in (0, 1)")

    @property
    def latency_constraint_s(self) -> float:
        """The hard migration window per slot."""
        return (1.0 - self.qos) * SECONDS_PER_HOUR

    @property
    def n_dcs(self) -> int:
        """Number of data centers."""
        return len(self.specs)

    def with_horizon(self, horizon_slots: int) -> "ExperimentConfig":
        """Copy with a different horizon (for quick experiments)."""
        return replace(self, horizon_slots=horizon_slots)


def paper_config(seed: int = 0) -> ExperimentConfig:
    """The exact Table I setup: full fleet, 5 s sampling, one week.

    This configuration is faithful but heavy (thousands of VMs); the
    benchmark harness uses :func:`scaled_config` and records the scale
    in EXPERIMENTS.md.
    """
    return ExperimentConfig(
        name="paper",
        specs=(
            _make_spec("Lisbon", 1500),
            _make_spec("Zurich", 1000),
            _make_spec("Helsinki", 500),
        ),
        horizon_slots=168,
        steps_per_slot=720,
        arrival_model=ArrivalModel(
            initial_services=300,
            arrival_rate=10.0,
            mean_lifetime_slots=48.0,
        ),
        seed=seed,
    )


def scaled_config(scale: str = "small", seed: int = 0) -> ExperimentConfig:
    """Laptop-scale variants preserving the paper fleet's shape.

    * ``"small"`` -- 24/16/8 servers, ~150 simultaneous VMs, one-week
      horizon at 60 s sampling (the benchmark default);
    * ``"tiny"`` -- 6/4/2 servers, ~20 VMs, one-day horizon at 120 s
      sampling (the test-suite default).
    """
    if scale == "small":
        return ExperimentConfig(
            name="small",
            specs=(
                _make_spec("Lisbon", 24),
                _make_spec("Zurich", 16),
                _make_spec("Helsinki", 8),
            ),
            horizon_slots=168,
            steps_per_slot=60,
            arrival_model=ArrivalModel(
                initial_services=20,
                arrival_rate=1.1,
                mean_lifetime_slots=48.0,
            ),
            seed=seed,
        )
    if scale == "tiny":
        return ExperimentConfig(
            name="tiny",
            specs=(
                _make_spec("Lisbon", 6),
                _make_spec("Zurich", 4),
                _make_spec("Helsinki", 2),
            ),
            horizon_slots=24,
            steps_per_slot=30,
            arrival_model=ArrivalModel(
                initial_services=6,
                arrival_rate=0.5,
                mean_lifetime_slots=12.0,
            ),
            seed=seed,
        )
    raise ValueError(f"unknown scale {scale!r} (use 'small' or 'tiny')")


def config_for_scale(
    scale: str, seed: int = 0, horizon: int | None = None
) -> ExperimentConfig:
    """The config a named scale (``tiny``, ``small`` or ``paper``) runs.

    ``horizon`` overrides the scale's horizon in slots; ``None`` keeps
    it.  The CLI's ``--scale``/``--seed``/``--horizon`` and a suite's
    ``[matrix]`` resolve through here.
    """
    if scale == "paper":
        config = paper_config(seed=seed)
    else:
        config = scaled_config(scale, seed=seed)
    if horizon is not None:
        config = config.with_horizon(horizon)
    return config


def build_datacenters(site) -> list[Datacenter]:
    """Fresh live DCs (full batteries, empty forecast history) on the
    fleet of ``site``, a :class:`~repro.sim.kernel.SiteConditions`."""
    return [Datacenter(site, index) for index in range(len(site.specs))]


def build_latency_model(config: ExperimentConfig) -> LatencyModel:
    """Topology + BER process for the config's fleet."""
    topology = GeoTopology(list(config.specs))
    return LatencyModel(topology, BERProcess(seed=config.seed))
