"""The data-center aggregate: fleet + energy sources + site properties.

A :class:`DatacenterSpec` is the static description (Table I row plus
site attributes); a :class:`Datacenter` adds the mutable state used
during simulation (battery charge, forecaster history).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datacenter.battery import Battery
from repro.datacenter.forecast import WCMAForecaster
from repro.datacenter.price import TwoLevelTariff
from repro.datacenter.pue import FreeCoolingPUE
from repro.datacenter.server import XEON_E5410, ServerModel
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class DatacenterSpec:
    """Static description of one data center.

    Attributes
    ----------
    name:
        Human-readable site name (e.g. "Lisbon").
    latitude / longitude:
        Site coordinates in degrees; the network model derives
        inter-DC distances from them.
    n_servers:
        Number of (homogeneous) servers.
    server_model:
        The server type (paper: Xeon E5410).
    pv_kwp:
        PV nameplate in kW-peak.
    battery_kwh:
        Battery nameplate in kWh.
    tariff:
        The site's electricity tariff.
    pue_model:
        The site's free-cooling PUE model.
    local_bandwidth_bps:
        Intra-DC (storage access) bandwidth B_L, bits per second.
    tz_offset_hours:
        Site time zone relative to simulation UTC.
    """

    name: str
    latitude: float
    longitude: float
    n_servers: int
    server_model: ServerModel = XEON_E5410
    pv_kwp: float = 0.0
    battery_kwh: float = 0.0
    tariff: TwoLevelTariff = field(default_factory=TwoLevelTariff)
    pue_model: FreeCoolingPUE = field(default_factory=FreeCoolingPUE)
    local_bandwidth_bps: float = 10.0e9
    tz_offset_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError("latitude out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError("longitude out of range")
        if self.local_bandwidth_bps <= 0:
            raise ValueError("local bandwidth must be positive")

    @property
    def total_capacity_cores(self) -> float:
        """Fleet CPU capacity in core units at the highest frequency."""
        return self.n_servers * self.server_model.max_capacity

    def max_it_power_watts(self) -> float:
        """Fleet IT power with every server at peak (highest level)."""
        return self.n_servers * self.server_model.levels[-1].peak_watts

    def max_slot_energy_joules(self) -> float:
        """Upper bound on facility energy in one slot (peak PUE guess)."""
        return self.max_it_power_watts() * self.pue_model.ceiling * SECONDS_PER_HOUR


class Datacenter:
    """A data center with live state (battery, forecaster).

    Parameters
    ----------
    site:
        The fleet's site conditions
        (:class:`~repro.sim.kernel.SiteConditions`), which a lockstep
        group's engines share: the DC's spec is ``site.specs[index]``,
        its PV array ``site.arrays[index]``, and its forecaster reads
        the site's per-slot clear-sky prior.
    index:
        Position of this DC in the fleet (stable across the run; the
        placement vectors index DCs by this number).
    """

    def __init__(self, site, index: int) -> None:
        spec = site.specs[index]
        self.spec = spec
        self.index = index
        self.pv = site.arrays[index]
        self.battery = Battery.from_kwh(spec.battery_kwh) if spec.battery_kwh else (
            Battery(capacity_joules=0.0)
        )
        self.forecaster = WCMAForecaster(
            lambda slot: float(site.clear_sky_prior(slot)[index])
        )
        #: Facility energy consumed during the previous slot (Joules);
        #: the last-value demand predictor reads this.
        self.last_slot_energy_joules: float = 0.0

    @property
    def name(self) -> str:
        """Site name from the spec."""
        return self.spec.name

    def renewable_forecast_joules(self, slot: int) -> float:
        """WCMA forecast of PV energy for the upcoming slot."""
        return self.forecaster.forecast(slot)

    def grid_price_at(self, slot: int) -> float:
        """EUR/kWh during ``slot``."""
        return self.spec.tariff.price_at_slot(slot)

    def record_slot(self, slot: int, facility_energy_joules: float,
                    pv_energy_joules: float) -> None:
        """Bookkeeping after a slot: feed forecaster + demand predictor."""
        if facility_energy_joules < 0 or pv_energy_joules < 0:
            raise ValueError("energies must be non-negative")
        self.forecaster.record(slot, pv_energy_joules)
        self.last_slot_energy_joules = facility_energy_joules
