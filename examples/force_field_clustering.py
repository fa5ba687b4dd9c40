"""Inside the global phase: forces, the 2D plane, clustering, migration.

Walks one slot of the proposed controller step by step on a handmade
workload whose structure is easy to eyeball:

* three services (web / batch / HPC) whose members exchange data
  (attraction) and whose same-type peers peak together (repulsion);
* the force-directed embedding separates CPU-correlated groups while
  pulling communicating VMs together;
* the capacity-constrained k-means carves the plane into DC clusters;
* Algorithm 2 turns the clustering into latency-feasible migrations.

Run:  python examples/force_field_clustering.py
"""

import dataclasses

import numpy as np

from repro.core.capacity import compute_capacity_caps
from repro.core.correlation import attraction_matrix, repulsion_matrix
from repro.core.forces import ForceDirectedEmbedding, ForceParameters
from repro.core.kmeans import constrained_kmeans, warm_start_centroids
from repro.core.migration import revise_migrations
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.sim.config import build_datacenters, scaled_config
from repro.sim.kernel import SiteConditions
from repro.workload.arrivals import ArrivalModel, VMPopulation
from repro.workload.datacorr import DataCorrelationProcess
from repro.workload.traces import TraceLibrary


def ascii_scatter(positions, assignment, width=64, height=20):
    """Plot cluster membership in the 2D plane with ASCII glyphs."""
    glyphs = "ABC"
    xs, ys = positions[:, 0], positions[:, 1]
    x0, x1 = xs.min(), xs.max() + 1e-9
    y0, y1 = ys.min(), ys.max() + 1e-9
    grid = [[" "] * width for _ in range(height)]
    for (x, y), cluster in zip(positions, assignment):
        col = int((x - x0) / (x1 - x0) * (width - 1))
        row = int((y - y0) / (y1 - y0) * (height - 1))
        grid[height - 1 - row][col] = glyphs[cluster % 3]
    return "\n".join("".join(row) for row in grid)


def main() -> None:
    rng_config = scaled_config("small")
    population = VMPopulation.generate(
        ArrivalModel(initial_services=9, arrival_rate=0.0), 4, seed=11
    )
    vms = population.alive(1)
    library = TraceLibrary(steps_per_slot=60, seed=3)
    volumes = DataCorrelationProcess(seed=5)

    demand = library.slot_demand_many(vms, 0)
    volume_matrix = volumes.volumes(vms, 0)

    print(f"{len(vms)} VMs in {len({vm.service_id for vm in vms})} services\n")

    # Step 1: forces.
    attraction = attraction_matrix(volume_matrix.volumes)
    repulsion = repulsion_matrix(demand)
    print(f"attraction range: [{attraction.min():.2f}, {attraction.max():.2f}]")
    print(f"repulsion  range: [{repulsion[repulsion > 0].min():.2f}, "
          f"{repulsion.max():.2f}]")

    embedding = ForceDirectedEmbedding(ForceParameters(alpha=0.5))
    start = np.random.default_rng(1).normal(size=(len(vms), 2))
    result = embedding.run(start, attraction, repulsion)
    print(f"embedding: {result.iterations} iterations, "
          f"converged={result.converged}\n")

    # Step 2: capacity caps + clustering.
    dcs = build_datacenters(
        SiteConditions(dataclasses.replace(rng_config, seed=7))
    )
    caps = compute_capacity_caps(dcs, slot=12)
    print("capacity caps (core units):",
          [f"{cap.cap_cores:.0f}" for cap in caps])
    loads = demand.mean(axis=1)
    centroids = warm_start_centroids(result.positions, None, 3)
    clustering = constrained_kmeans(
        result.positions,
        loads,
        np.array([cap.cap_cores for cap in caps]),
        centroids,
    )
    print("cluster loads:", np.round(clustering.loads, 1).tolist())
    print("\nthe 2D plane (letter = assigned DC):")
    print(ascii_scatter(result.positions, clustering.assignment))

    # Step 3: migration revision against the previous placement.
    previous = np.array([vm.vm_id % 3 for vm in vms])
    latency_model = LatencyModel(
        GeoTopology(list(rng_config.specs)), BERProcess(seed=9)
    )
    plan = revise_migrations(
        vms=vms,
        target=clustering.assignment,
        previous=previous,
        positions=result.positions,
        centroids=clustering.centroids,
        loads=loads,
        caps_cores=np.array([cap.cap_cores for cap in caps]),
        latency_model=latency_model,
        slot=1,
        latency_constraint_s=72.0,
    )
    print(f"\nAlgorithm 2: {len(plan.moves)} migrations executed, "
          f"{len(plan.rejected_vm_ids)} rejected by the 72 s window")
    for move in plan.moves[:10]:
        print(f"  vm {move.vm_id}: DC{move.src_dc + 1} -> DC{move.dst_dc + 1} "
              f"({move.image_mb / 1000:.0f} GB image)")


if __name__ == "__main__":
    main()
