"""Green controller walkthrough: one DC, two days, hour by hour.

Shows the Section IV-B.3 rules in action for a single data center with
a PV array and a battery bank under a two-level tariff:

* daylight surplus charges the battery,
* high-price deficits discharge it,
* low-price periods buy cheap grid energy for the load *and* the
  battery.

Run:  python examples/green_energy_walkthrough.py
"""

import dataclasses

import numpy as np

from repro.core.green import GreenController
from repro.datacenter.datacenter import Datacenter
from repro.sim.config import scaled_config
from repro.sim.kernel import SiteConditions
from repro.units import SECONDS_PER_HOUR, joules_to_kwh


def main() -> None:
    config = scaled_config("small", seed=42)
    site = SiteConditions(dataclasses.replace(config, specs=config.specs[:1]))
    dc = Datacenter(site, index=0)  # Lisbon
    spec = dc.spec
    controller = GreenController()

    # A plausible diurnal facility load for a fraction of the fleet.
    hours = np.arange(48)
    base_watts = 0.35 * spec.max_it_power_watts()
    swing = 0.20 * spec.max_it_power_watts()
    load_watts = base_watts + swing * np.sin(2 * np.pi * (hours - 9) / 24.0)

    print(f"Site: {spec.name}  PV {spec.pv_kwp:.1f} kWp  "
          f"battery {spec.battery_kwh:.1f} kWh (DoD 50 %)")
    print(f"Tariff: {spec.tariff.peak_price:.2f} EUR/kWh peak / "
          f"{spec.tariff.offpeak_price:.2f} off-peak\n")
    header = (
        f"{'hour':>4} {'tariff':>7} {'load kWh':>9} {'pv kWh':>7} "
        f"{'batt kWh':>9} {'grid kWh':>9} {'cost EUR':>9} {'SoC %':>6}"
    )
    print(header)
    print("-" * len(header))

    total_cost = 0.0
    for slot in range(48):
        power = np.full((1, config.steps_per_slot), load_watts[slot])
        (ledger,) = controller.run_slot_fleet([dc], site.at(slot), power)
        dc.record_slot(slot, ledger.facility_energy, ledger.pv_generated)
        total_cost += ledger.grid_cost_eur
        tariff = "peak" if spec.tariff.is_peak((slot + 0.5) * SECONDS_PER_HOUR) else "off"
        soc_pct = 100.0 * dc.battery.soc_joules / dc.battery.capacity_joules
        print(
            f"{slot:>4} {tariff:>7} {joules_to_kwh(ledger.facility_energy):>9.2f} "
            f"{joules_to_kwh(ledger.pv_generated):>7.2f} "
            f"{joules_to_kwh(ledger.battery_discharged - ledger.pv_stored - ledger.grid_to_battery):>9.2f} "
            f"{joules_to_kwh(ledger.grid_energy):>9.2f} "
            f"{ledger.grid_cost_eur:>9.3f} {soc_pct:>6.1f}"
        )

    print(f"\ntwo-day grid cost: {total_cost:.2f} EUR")
    print("(battery column: + means net discharge toward the load, "
          "- means net charging)")


if __name__ == "__main__":
    main()
