"""Lithium-ion battery bank model.

Table I gives each DC a battery capacity (960/720/480 kWh) "with 50% of
DoD, keeping the remaining capacity in case of outage".  The bank is
modeled with:

* a depth-of-discharge floor: only ``capacity * dod`` is usable;
* charge/discharge efficiencies (round-trip losses);
* C-rate limits on charge and discharge power.

All amounts are Joules at the battery terminals; :meth:`discharge`
returns the energy *delivered to the load* and :meth:`charge` accepts
the energy *taken from the source*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import kwh_to_joules


@dataclass
class Battery:
    """A stateful battery bank.

    Attributes
    ----------
    capacity_joules:
        Nameplate capacity.
    dod:
        Usable fraction (depth of discharge); the floor below which the
        bank never discharges is ``capacity * (1 - dod)``.
    charge_efficiency / discharge_efficiency:
        One-way efficiencies.
    max_c_rate:
        Maximum charge/discharge power as a multiple of capacity per
        hour (0.5 C means a full charge takes two hours).
    soc_joules:
        Current state of charge; defaults to full.
    """

    capacity_joules: float
    dod: float = 0.5
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.95
    max_c_rate: float = 0.5
    soc_joules: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.capacity_joules < 0:
            raise ValueError("capacity must be non-negative")
        if not 0.0 < self.dod <= 1.0:
            raise ValueError("dod must be in (0, 1]")
        if not 0.0 < self.charge_efficiency <= 1.0:
            raise ValueError("charge_efficiency must be in (0, 1]")
        if not 0.0 < self.discharge_efficiency <= 1.0:
            raise ValueError("discharge_efficiency must be in (0, 1]")
        if self.max_c_rate <= 0:
            raise ValueError("max_c_rate must be positive")
        if self.soc_joules < 0:
            self.soc_joules = self.capacity_joules
        if self.soc_joules > self.capacity_joules:
            raise ValueError("soc cannot exceed capacity")

    @classmethod
    def from_kwh(cls, capacity_kwh: float, **kwargs) -> "Battery":
        """Build a bank from a kWh nameplate (Table I units)."""
        return cls(capacity_joules=kwh_to_joules(capacity_kwh), **kwargs)

    @property
    def floor_joules(self) -> float:
        """SoC below which the bank never discharges (outage reserve)."""
        return self.capacity_joules * (1.0 - self.dod)

    @property
    def usable_joules(self) -> float:
        """Energy deliverable to the load right now (efficiency included)."""
        above_floor = max(self.soc_joules - self.floor_joules, 0.0)
        return above_floor * self.discharge_efficiency

    @property
    def headroom_joules(self) -> float:
        """Energy the bank can still absorb (at the terminals)."""
        return self.capacity_joules - self.soc_joules

    def max_discharge_joules(self, duration_s: float) -> float:
        """Deliverable energy over ``duration_s`` given the C-rate limit."""
        rate_limit = self.max_c_rate * self.capacity_joules * duration_s / 3600.0
        return min(self.usable_joules, rate_limit * self.discharge_efficiency)

    def max_charge_joules(self, duration_s: float) -> float:
        """Acceptable source energy over ``duration_s`` (C-rate limited)."""
        rate_limit = self.max_c_rate * self.capacity_joules * duration_s / 3600.0
        if self.charge_efficiency == 0:
            return 0.0
        return min(self.headroom_joules / self.charge_efficiency, rate_limit)

    def discharge(self, requested_joules: float, duration_s: float = 3600.0) -> float:
        """Discharge toward a load request; returns energy delivered."""
        if requested_joules < 0:
            raise ValueError("requested energy must be non-negative")
        deliverable = min(requested_joules, self.max_discharge_joules(duration_s))
        self.soc_joules -= deliverable / self.discharge_efficiency
        return deliverable

    def charge(self, offered_joules: float, duration_s: float = 3600.0) -> float:
        """Charge from an offered source energy; returns energy consumed."""
        if offered_joules < 0:
            raise ValueError("offered energy must be non-negative")
        accepted = min(offered_joules, self.max_charge_joules(duration_s))
        self.soc_joules += accepted * self.charge_efficiency
        return accepted

