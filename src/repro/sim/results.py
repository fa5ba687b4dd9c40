"""Per-slot records and aggregate run results.

A :class:`RunResult` is the unit every experiment and benchmark
consumes: it carries one :class:`SlotRecord` per simulated hour and
exposes the aggregates the paper's figures are built from --
operational cost (Fig. 1), hourly/total energy (Fig. 2) and the
response-time distribution (Fig. 3).

Every record type round-trips losslessly through plain dictionaries
(``to_dict`` / ``from_dict``): all fields are Python floats/ints, so
JSON (which preserves doubles exactly via shortest-repr) reproduces a
run bit-for-bit.  The orchestrator's persistent result store
(:mod:`repro.experiments.orchestrator`) relies on this.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.green import GreenSlotResult
from repro.units import joules_to_gj

#: Response-time percentiles a headline projection carries verbatim.
#: Any other percentile requires the full ledger.
HEADLINE_PERCENTILES = (95.0, 99.0)

#: Per-request latency percentiles a headline projection carries
#: (event-engine runs only; ``None`` on slot-engine ledgers).
REQUEST_PERCENTILES = (50.0, 99.0, 99.9)

#: Sentinel distinguishing "key absent from the headline" (an old
#: producer that predates request ledgers -- upgrade to the full
#: result) from "key present with value None" (a slot-engine run: the
#: ledger genuinely does not exist -- answer None, no upgrade).
_MISSING = object()


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
        """Plain-dict form (nested green ledger included)."""
        payload = dataclasses.asdict(self)
        payload["green"] = dataclasses.asdict(self.green)
        return payload

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
    #: Per-request latency ledger, event-engine runs only: one
    #: ``[slot, dc_index, latency_s, count]`` row per (slot, DC) batch
    #: of simulated requests.  ``None`` on slot-engine runs -- the slot
    #: abstraction has no request stream -- and the percentile
    #: accessors degrade to ``None`` accordingly.
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

    # -- per-request latency tail (event engine only) ------------------
    def total_requests(self) -> int | None:
        """Simulated user requests over the run; ``None`` without a ledger."""
        if self.requests is None:
            return None
        return int(sum(row[3] for row in self.requests))

    def request_percentile_s(self, percentile: float) -> float | None:
        """Percentile of the per-request latency distribution.

        ``None`` on slot-engine runs (no request ledger); ``0.0`` for
        an event-engine run that happened to serve zero requests.
        """
        if self.requests is None:
            return None
        if not self.requests:
            return 0.0
        from repro.sim.metrics import weighted_percentile

        return weighted_percentile(
            np.array([row[2] for row in self.requests]),
            np.array([row[3] for row in self.requests]),
            percentile,
        )

    def p50_request_s(self) -> float | None:
        """Median per-request latency (event engine only)."""
        return self.request_percentile_s(50.0)

    def p99_request_s(self) -> float | None:
        """99th-percentile per-request latency (event engine only)."""
        return self.request_percentile_s(99.0)

    def p999_request_s(self) -> float | None:
        """99.9th-percentile per-request latency (event engine only)."""
        return self.request_percentile_s(99.9)

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

    def summary(self) -> dict:
        """One-line dictionary for tables and logs."""
        return {
            "policy": self.policy_name,
            "config": self.config_name,
            "cost_eur": self.total_grid_cost_eur(),
            "energy_gj": self.total_energy_gj(),
            "grid_energy_gj": joules_to_gj(self.total_grid_energy_joules()),
            "mean_rt_s": self.mean_response_s(),
            "p95_rt_s": self.percentile_response_s(95.0),
            "worst_rt_s": self.worst_response_s(),
            "migrations": self.total_migrations(),
            "mean_active_servers": self.mean_active_servers(),
            "renewable_utilization": self.renewable_utilization(),
        }

    def headline(self) -> dict:
        """The headline-metrics projection of this run.

        A strict subset of the information in :meth:`to_dict`: every
        value is computed from the full slot ledger by the aggregate
        accessors above, so a consumer reading a headline sees exactly
        the numbers it would have computed from the full result.  The
        experiment service ships this block for ``detail=headline``
        responses (:class:`HeadlineResult` is the consumer-side view).
        """
        return {
            "policy_name": self.policy_name,
            "config_name": self.config_name,
            "horizon": self.horizon,
            "total_grid_cost_eur": self.total_grid_cost_eur(),
            "total_facility_energy_joules": (
                self.total_facility_energy_joules()
            ),
            "total_energy_gj": self.total_energy_gj(),
            "total_grid_energy_joules": self.total_grid_energy_joules(),
            "renewable_utilization": self.renewable_utilization(),
            "mean_response_s": self.mean_response_s(),
            "worst_response_s": self.worst_response_s(),
            "total_migrations": self.total_migrations(),
            "total_migration_volume_mb": self.total_migration_volume_mb(),
            "mean_active_servers": self.mean_active_servers(),
            **{
                f"p{percentile:g}_response_s": self.percentile_response_s(
                    percentile
                )
                for percentile in HEADLINE_PERCENTILES
            },
            "total_requests": self.total_requests(),
            **{
                f"p{percentile:g}_request_s": self.request_percentile_s(
                    percentile
                )
                for percentile in REQUEST_PERCENTILES
            },
        }


class HeadlineResult:
    """A run's headline metrics, standing in for a :class:`RunResult`.

    Exposes the same aggregate accessors (``total_grid_cost_eur``,
    ``total_energy_gj``, ``percentile_response_s`` for the
    :data:`HEADLINE_PERCENTILES`, ...) backed by a
    :meth:`RunResult.headline` dictionary instead of the full slot
    ledger -- the experiment service's ``detail=headline`` wire form,
    ~two orders of magnitude smaller than a full ledger.

    Anything the headline cannot answer (``slots``, per-slot series,
    arbitrary percentiles) upgrades lazily: when the projection was
    built with a ``fetch_full`` callback (the service client supplies
    one), the first such access fetches the full ledger once and
    delegates to it from then on; without a callback the access raises
    so a consumer that silently needed ``detail=full`` fails loudly.
    """

    def __init__(
        self,
        headline: dict,
        fetch_full: Callable[[], "RunResult"] | None = None,
    ) -> None:
        self._headline = dict(headline)
        self._fetch_full = fetch_full
        self._full_result: RunResult | None = None

    # -- identity ------------------------------------------------------
    @property
    def policy_name(self) -> str:
        return self._headline["policy_name"]

    @property
    def config_name(self) -> str:
        return self._headline["config_name"]

    @property
    def horizon(self) -> int:
        return int(self._headline["horizon"])

    # -- headline accessors (mirror RunResult's aggregate API) ---------
    def total_grid_cost_eur(self) -> float:
        """Fleet grid cost over the horizon, EUR."""
        return self._headline["total_grid_cost_eur"]

    def total_facility_energy_joules(self) -> float:
        """Total facility-side energy, joules."""
        return self._headline["total_facility_energy_joules"]

    def total_energy_gj(self) -> float:
        """Total facility-side energy, gigajoules."""
        return self._headline["total_energy_gj"]

    def total_grid_energy_joules(self) -> float:
        """Energy drawn from the grid, joules."""
        return self._headline["total_grid_energy_joules"]

    def renewable_utilization(self) -> float:
        """Fraction of generated PV energy actually used or stored."""
        return self._headline["renewable_utilization"]

    def mean_response_s(self) -> float:
        """Mean VM response time, seconds."""
        return self._headline["mean_response_s"]

    def worst_response_s(self) -> float:
        """Worst observed VM response time, seconds."""
        return self._headline["worst_response_s"]

    def percentile_response_s(self, percentile: float) -> float:
        """Response-time percentile; non-headline percentiles upgrade."""
        key = f"p{float(percentile):g}_response_s"
        value = self._headline.get(key)
        if value is not None:
            return value
        return self.full().percentile_response_s(percentile)

    def total_requests(self) -> int | None:
        """Simulated request count; ``None`` on slot-engine runs.

        A headline lacking the key entirely (produced before request
        ledgers existed) upgrades to the full result; a present-but-
        ``None`` value is authoritative -- the run has no ledger and
        fetching the full result could not change that.
        """
        value = self._headline.get("total_requests", _MISSING)
        if value is _MISSING:
            return self.full().total_requests()
        return None if value is None else int(value)

    def request_percentile_s(self, percentile: float) -> float | None:
        """Per-request latency percentile, mirroring the RunResult rule."""
        key = f"p{float(percentile):g}_request_s"
        value = self._headline.get(key, _MISSING)
        if value is not _MISSING:
            return value
        if "total_requests" in self._headline:
            # A request-aware headline without this percentile: answer
            # from the full ledger only when one exists.
            if self._headline["total_requests"] is None:
                return None
        return self.full().request_percentile_s(percentile)

    def p50_request_s(self) -> float | None:
        """Median per-request latency (event engine only)."""
        return self.request_percentile_s(50.0)

    def p99_request_s(self) -> float | None:
        """99th-percentile per-request latency (event engine only)."""
        return self.request_percentile_s(99.0)

    def p999_request_s(self) -> float | None:
        """99.9th-percentile per-request latency (event engine only)."""
        return self.request_percentile_s(99.9)

    def total_migrations(self) -> int:
        """Count of VM migrations over the horizon."""
        return int(self._headline["total_migrations"])

    def total_migration_volume_mb(self) -> float:
        """Total migrated image volume, MB."""
        return self._headline["total_migration_volume_mb"]

    def mean_active_servers(self) -> float:
        """Mean count of powered-on servers."""
        return self._headline["mean_active_servers"]

    def headline(self) -> dict:
        """The projection itself (already computed -- no upgrade)."""
        return dict(self._headline)

    # -- lazy upgrade to the full ledger -------------------------------
    def full(self) -> RunResult:
        """The full :class:`RunResult`, fetched on first demand."""
        if self._full_result is None:
            if self._fetch_full is None:
                raise ValueError(
                    "this result is a detail=headline projection with no "
                    "way back to the full ledger; request detail='full'"
                )
            self._full_result = self._fetch_full()
        return self._full_result

    def __getattr__(self, name: str):
        # Anything beyond the headline surface (slots, per-slot
        # series, to_dict, summary, ...) answers from the full ledger.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.full(), name)

    def __repr__(self) -> str:
        state = "full" if self._full_result is not None else "headline"
        return (
            f"HeadlineResult({self.policy_name!r}, {self.config_name!r}, "
            f"detail={state})"
        )
