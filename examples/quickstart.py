"""Quickstart: run the proposed placement over one simulated day.

Builds the scaled 3-site fleet (same shape as the paper's Table I),
runs the two-phase multi-objective controller for 24 hourly slots and
prints the operational ledger.

Run:  python examples/quickstart.py
"""

from repro import ProposedPolicy, SimulationEngine, scaled_config
from repro.units import joules_to_gj


def main() -> None:
    config = scaled_config("small").with_horizon(24)
    print(f"Fleet: {[spec.name for spec in config.specs]}")
    print(f"Servers per DC: {[spec.n_servers for spec in config.specs]}")
    print(f"Horizon: {config.horizon_slots} hourly slots\n")

    engine = SimulationEngine(config, ProposedPolicy())
    result = engine.run()

    grid_gj = joules_to_gj(result.total_grid_energy_joules())
    print("--- one day with the Proposed controller ---")
    print(f"operational cost:        {result.total_grid_cost_eur():8.2f} EUR")
    print(f"facility energy:         {result.total_energy_gj():8.3f} GJ")
    print(f"grid energy:             {grid_gj:8.3f} GJ")
    print(f"renewable utilization:   {result.renewable_utilization():8.1%}")
    print(f"mean response time:      {result.mean_response_s():8.4f} s")
    print(f"worst response time:     {result.worst_response_s():8.4f} s")
    print(f"inter-DC migrations:     {result.total_migrations():8d}")
    print(f"mean active servers:     {result.mean_active_servers():8.1f}")

    print("\nhourly grid cost (EUR):")
    for slot, cost in enumerate(result.hourly_cost_eur()):
        bar = "#" * int(40 * cost / max(result.hourly_cost_eur().max(), 1e-9))
        print(f"  h{slot:02d} {cost:6.3f} |{bar}")


if __name__ == "__main__":
    main()
