"""Table I: DC fleet and energy-source specification.

Regenerates the paper's Table I from :func:`repro.sim.config.paper_config`
and verifies it matches the published numbers exactly; the benchmark
measures fleet construction (specs + live DCs + topology).
"""

from conftest import write_report

from repro.experiments.figures import table1_rows
from repro.sim.config import build_datacenters, paper_config
from repro.sim.kernel import SiteConditions


def test_table1_setup(benchmark, report_dir):
    config = paper_config()

    def build():
        site = SiteConditions(config)
        return build_datacenters(site), site.latency_model

    dcs, latency_model = benchmark(build)
    assert len(dcs) == 3
    assert latency_model.topology.n_dcs == 3

    report = table1_rows(config)
    lines = ["== Table I: DCs number of servers and energy sources =="]
    lines.append(
        f"{'DC':<5} {'site':<10} {'servers':>8} {'PV kWp':>8} {'batt kWh':>9}"
        f"   (paper: servers / PV / battery)"
    )
    for measured, paper in zip(report["measured"], report["paper"]):
        lines.append(
            f"{measured['dc']:<5} {measured['site']:<10} "
            f"{measured['servers']:>8} {measured['pv_kwp']:>8.0f} "
            f"{measured['battery_kwh']:>9.0f}   "
            f"({paper['servers']} / {paper['pv_kwp']:.0f} / "
            f"{paper['battery_kwh']:.0f})"
        )
        assert measured["servers"] == paper["servers"]
        assert measured["pv_kwp"] == paper["pv_kwp"]
        assert measured["battery_kwh"] == paper["battery_kwh"]
    write_report(report_dir, "table1.txt", lines)
