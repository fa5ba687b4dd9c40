"""Per-slot records and aggregate run results.

A :class:`RunResult` is the unit every experiment and benchmark
consumes: it carries one :class:`SlotRecord` per simulated hour and
exposes the aggregates the paper's figures are built from --
operational cost (Fig. 1), hourly/total energy (Fig. 2) and the
response-time distribution (Fig. 3).

What a run measured is declared here once:

* :data:`OBJECTIVES` -- the paper's three objectives, each a reading
  of a run (lower is better), which every figure, table and analysis
  reads;
* :data:`HEADLINE_MEASURES` -- the headline projection's keys, each
  with the accessor that computes it.  :meth:`RunResult.headline`
  evaluates it and :class:`HeadlineResult` answers from it.

Every record type round-trips losslessly through plain dictionaries
(``to_dict`` / ``from_dict``): all fields are Python floats/ints, so
JSON (which preserves doubles exactly via shortest-repr) reproduces a
run bit-for-bit.  The orchestrator's persistent result store
(:mod:`repro.experiments.orchestrator`) relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import methodcaller
from typing import Callable

import numpy as np

from repro.core.green import GreenSlotResult
from repro.units import joules_to_gj

#: The performance objective's reading: this percentile of the per-VM
#: Eq. 1 response-time samples, the paper's "worst-case response time"
#: (a high percentile rather than the literal maximum, which one slot
#: decides).
PERFORMANCE_PERCENTILE = 99.0

#: The paper's three objectives, each a reading of a run; lower is
#: better.  Energy stays in joules, the unit Figs. 4-6 compare.
OBJECTIVES: dict[str, Callable] = {
    "cost": methodcaller("total_grid_cost_eur"),
    "energy": methodcaller("total_facility_energy_joules"),
    "performance": methodcaller(
        "percentile_response_s", PERFORMANCE_PERCENTILE
    ),
}

#: Response-time percentiles a headline projection carries verbatim,
#: the performance reading among them.
HEADLINE_PERCENTILES = tuple(sorted({95.0, PERFORMANCE_PERCENTILE}))

#: The run identity every headline opens with.
HEADLINE_IDENTITY = ("policy_name", "config_name", "horizon")

#: The headline projection's measures, in key order: each key maps to
#: the ``RunResult`` accessor and arguments that compute it.
HEADLINE_MEASURES: dict[str, tuple] = {
    **{
        name: (name,)
        for name in (
            "total_grid_cost_eur",
            "total_facility_energy_joules",
            "total_energy_gj",
            "total_grid_energy_joules",
            "renewable_utilization",
            "mean_response_s",
            "worst_response_s",
            "total_migrations",
            "total_migration_volume_mb",
            "mean_active_servers",
        )
    },
    **{
        f"p{percentile:g}_response_s": ("percentile_response_s", percentile)
        for percentile in HEADLINE_PERCENTILES
    },
    "total_requests": ("total_requests",),
}


@dataclass
class DCSlotRecord:
    """One DC's ledger for one slot.

    Attributes
    ----------
    green:
        Energy-source ledger from the green controller.
    it_energy_joules:
        IT-only energy (facility energy divided by the PUE path).
    active_servers:
        Powered-on servers this slot.
    response_latency_s:
        Eq. 1 worst-case latency of this DC as a data destination.
    receiving_vms:
        VMs in this DC that waited for data this slot.
    """

    green: GreenSlotResult
    it_energy_joules: float
    active_servers: int
    response_latency_s: float
    receiving_vms: int

    def to_dict(self) -> dict:
        """Plain-dict form (nested green ledger included), in field
        order."""
        return {
            "green": vars(self.green).copy(),
            "it_energy_joules": self.it_energy_joules,
            "active_servers": self.active_servers,
            "response_latency_s": self.response_latency_s,
            "receiving_vms": self.receiving_vms,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DCSlotRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        fields = dict(payload)
        fields["green"] = GreenSlotResult(**fields["green"])
        return cls(**fields)


@dataclass
class SlotRecord:
    """Fleet-wide ledger for one slot."""

    slot: int
    n_vms: int
    migrations: int
    migration_volume_mb: float
    dc_records: list[DCSlotRecord] = field(default_factory=list)

    @property
    def grid_cost_eur(self) -> float:
        """Fleet grid cost this slot."""
        return sum(record.green.grid_cost_eur for record in self.dc_records)

    @property
    def facility_energy_joules(self) -> float:
        """Fleet facility energy this slot."""
        return sum(record.green.facility_energy for record in self.dc_records)

    @property
    def grid_energy_joules(self) -> float:
        """Fleet grid draw this slot (incl. battery charging)."""
        return sum(record.green.grid_energy for record in self.dc_records)

    def response_samples(self) -> np.ndarray:
        """Per-VM response-time samples for this slot (seconds)."""
        parts = [
            np.full(record.receiving_vms, record.response_latency_s)
            for record in self.dc_records
            if record.receiving_vms > 0
        ]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def to_dict(self) -> dict:
        """Plain-dict form with one entry per DC record."""
        return {
            "slot": self.slot,
            "n_vms": self.n_vms,
            "migrations": self.migrations,
            "migration_volume_mb": self.migration_volume_mb,
            "dc_records": [record.to_dict() for record in self.dc_records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SlotRecord":
        """Rebuild a slot record from :meth:`to_dict` output."""
        fields = dict(payload)
        fields["dc_records"] = [
            DCSlotRecord.from_dict(record) for record in fields["dc_records"]
        ]
        return cls(**fields)


@dataclass
class RunResult:
    """Complete output of one (config, policy) simulation run."""

    policy_name: str
    config_name: str
    slots: list[SlotRecord] = field(default_factory=list)
    #: Per-request latency ledger, event-kind runs only: one
    #: ``[slot, dc_index, latency_s, count]`` row per (slot, DC) batch
    #: of simulated requests.  ``None`` on slot-kind runs -- the slot
    #: abstraction has no request stream -- and :meth:`total_requests`
    #: answers ``None`` accordingly.
    requests: list[list] | None = None

    @property
    def horizon(self) -> int:
        """Number of simulated slots."""
        return len(self.slots)

    # -- Fig. 1: operational cost ------------------------------------
    def total_grid_cost_eur(self) -> float:
        """Operational cost of the whole run (EUR)."""
        return sum(slot.grid_cost_eur for slot in self.slots)

    def hourly_cost_eur(self) -> np.ndarray:
        """Grid cost per slot."""
        return np.array([slot.grid_cost_eur for slot in self.slots])

    # -- Fig. 2: energy ------------------------------------------------
    def total_facility_energy_joules(self) -> float:
        """Total facility energy over the run."""
        return sum(slot.facility_energy_joules for slot in self.slots)

    def total_energy_gj(self) -> float:
        """Total facility energy in GJ (the Fig. 2 unit)."""
        return joules_to_gj(self.total_facility_energy_joules())

    def hourly_energy_joules(self) -> np.ndarray:
        """Facility energy per slot (the Fig. 2 series)."""
        return np.array([slot.facility_energy_joules for slot in self.slots])

    def total_grid_energy_joules(self) -> float:
        """Total grid draw over the run."""
        return sum(slot.grid_energy_joules for slot in self.slots)

    def renewable_utilization(self) -> float:
        """Fraction of generated PV energy actually used or stored."""
        generated = used = 0.0
        for slot in self.slots:
            for record in slot.dc_records:
                generated += record.green.pv_generated
                used += record.green.pv_used + record.green.pv_stored
        return used / generated if generated > 0 else 0.0

    # -- Fig. 3: response time ----------------------------------------
    def response_samples(self) -> np.ndarray:
        """All per-VM response-time samples of the run (seconds)."""
        parts = [slot.response_samples() for slot in self.slots]
        parts = [part for part in parts if part.size]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def mean_response_s(self) -> float:
        """Mean per-VM response time."""
        samples = self.response_samples()
        return float(samples.mean()) if samples.size else 0.0

    def percentile_response_s(self, percentile: float) -> float:
        """Percentile of the per-VM response-time distribution."""
        samples = self.response_samples()
        return float(np.percentile(samples, percentile)) if samples.size else 0.0

    def worst_response_s(self) -> float:
        """Worst-case response time (the SLA quantity of Section V-B3)."""
        samples = self.response_samples()
        return float(samples.max()) if samples.size else 0.0

    # -- request ledger (event kind only) ------------------------------
    def total_requests(self) -> int | None:
        """Simulated user requests over the run; ``None`` without a ledger."""
        if self.requests is None:
            return None
        return int(sum(row[3] for row in self.requests))

    # -- misc -----------------------------------------------------------
    def total_migrations(self) -> int:
        """Inter-DC migrations executed over the run."""
        return sum(slot.migrations for slot in self.slots)

    def total_migration_volume_mb(self) -> float:
        """Total migrated image volume (MB)."""
        return sum(slot.migration_volume_mb for slot in self.slots)

    def mean_active_servers(self) -> float:
        """Average powered-on servers per slot (fleet-wide)."""
        if not self.slots:
            return 0.0
        return float(
            np.mean(
                [
                    sum(record.active_servers for record in slot.dc_records)
                    for slot in self.slots
                ]
            )
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form of the whole run (JSON-serializable).

        The request ledger only appears when one exists, so
        slot-kind dumps carry no ``requests`` key at all (stored
        fingerprinted artifacts from before request ledgers existed
        stay valid).
        """
        payload = {
            "policy_name": self.policy_name,
            "config_name": self.config_name,
            "slots": [slot.to_dict() for slot in self.slots],
        }
        if self.requests is not None:
            payload["requests"] = [list(row) for row in self.requests]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunResult":
        """Rebuild a run from :meth:`to_dict` output."""
        return cls(
            policy_name=payload["policy_name"],
            config_name=payload["config_name"],
            slots=[SlotRecord.from_dict(slot) for slot in payload["slots"]],
            requests=payload.get("requests"),
        )

    def headline(self) -> dict:
        """The headline-metrics projection of this run.

        :data:`HEADLINE_IDENTITY`, then every :data:`HEADLINE_MEASURES`
        key computed by its accessor from the full slot ledger, so a
        consumer reading a headline sees exactly the numbers it would
        have computed from the full result.  The experiment service
        ships this block for ``detail=headline`` responses
        (:class:`HeadlineResult` is the consumer-side view).
        """
        return {
            **{name: getattr(self, name) for name in HEADLINE_IDENTITY},
            **{
                key: getattr(self, accessor)(*args)
                for key, (accessor, *args) in HEADLINE_MEASURES.items()
            },
        }


#: The headline key of each ``(accessor, *args)`` reading.
_KEY_OF = {reading: key for key, reading in HEADLINE_MEASURES.items()}
_ACCESSORS = {accessor for accessor, *_ in HEADLINE_MEASURES.values()}


class HeadlineResult:
    """A run's headline metrics, standing in for a :class:`RunResult`.

    Backed by a :meth:`RunResult.headline` dictionary instead of the
    full slot ledger -- the experiment service's ``detail=headline``
    wire form, ~two orders of magnitude smaller than a full ledger.
    Every :data:`HEADLINE_IDENTITY` name and :data:`HEADLINE_MEASURES`
    reading (``total_grid_cost_eur()``, ``percentile_response_s(99)``,
    every :data:`OBJECTIVES` entry, ...) answers from the headline.

    Anything else (``slots``, any other ``RunResult`` method, a
    percentile or key the headline lacks) raises, naming
    ``detail='full'``: a consumer that needs the ledger asks for it up
    front.
    """

    def __init__(self, headline: dict) -> None:
        self._headline = dict(headline)

    def headline(self) -> dict:
        """The projection itself."""
        return dict(self._headline)

    def _beyond(self, name: str) -> ValueError:
        return ValueError(
            f"{name!r} is not in this detail=headline projection; "
            f"request detail='full'"
        )

    def _measure(self, accessor: str, *args):
        key = _KEY_OF.get((accessor, *args))
        if key not in self._headline:
            raise self._beyond(f"{accessor}{args!r}")
        return self._headline[key]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in HEADLINE_IDENTITY and name in self._headline:
            return self._headline[name]
        if name in _ACCESSORS:
            return partial(self._measure, name)
        raise self._beyond(name)

    def __repr__(self) -> str:
        return (
            f"HeadlineResult({self.policy_name!r}, {self.config_name!r}, "
            f"detail=headline)"
        )
