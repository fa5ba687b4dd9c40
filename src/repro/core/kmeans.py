"""Capacity-constrained modified k-means (step 2 of the global phase).

"We utilize a modified version of the k-means algorithm to cluster VMs
with respect to each cluster capacity cap, VMs load, and the distance
between two VMs obtained from the repulsion and attraction phase in the
2D plane.  In the modified k-means, the initial centroid of each
cluster is calculated based on the last position of points available in
that cluster in the previous time slot."

The number of clusters equals the number of DCs.  The modification over
vanilla k-means is the assignment step: points are assigned greedily,
hardest-to-place first (largest load), each to the *nearest centroid
with remaining load capacity*; when no cluster has room the nearest
centroid takes the point anyway and the overflow is recorded (the
migration step and the local phase deal with it).  Network latency is
deliberately not considered here -- that is Algorithm 2's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ClusterResult:
    """Output of the constrained clustering.

    Attributes
    ----------
    assignment:
        Cluster index per point, shape ``(n_points,)``.
    centroids:
        Final centroid coordinates, shape ``(k, 2)``.
    loads:
        Total assigned load per cluster, shape ``(k,)``.
    overflow:
        Load assigned beyond each cluster's capacity, shape ``(k,)``.
    iterations:
        Assignment/update rounds executed.
    """

    assignment: np.ndarray
    centroids: np.ndarray
    loads: np.ndarray
    overflow: np.ndarray
    iterations: int


def warm_start_centroids(
    positions: np.ndarray,
    previous_assignment: np.ndarray | None,
    k: int,
) -> np.ndarray:
    """Initial centroids from the previous slot's cluster memberships.

    Clusters with surviving members start at the mean position of those
    members (the paper's warm start); empty or brand-new clusters are
    placed on a deterministic circle around the population mean so that
    every DC exists in the plane from the first slot.  The circle's
    radius is the points' standard deviation (1 for a single point).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    centroids = np.zeros((k, 2))
    center = positions.mean(axis=0) if len(positions) else np.zeros(2)
    scale = 1.0
    if len(positions) > 1:
        scale = max(float(positions.std()), 1e-3)
    for cluster in range(k):
        members = (
            np.nonzero(previous_assignment == cluster)[0]
            if previous_assignment is not None
            else np.array([], dtype=int)
        )
        if members.size:
            centroids[cluster] = positions[members].mean(axis=0)
        else:
            angle = 2.0 * np.pi * cluster / k
            centroids[cluster] = center + scale * np.array(
                [np.cos(angle), np.sin(angle)]
            )
    return centroids


def constrained_kmeans(
    positions: np.ndarray,
    loads: np.ndarray,
    capacities: np.ndarray,
    initial_centroids: np.ndarray,
    max_iterations: int = 25,
) -> ClusterResult:
    """Cluster 2D points under per-cluster load capacities.

    Parameters
    ----------
    positions:
        Point coordinates, shape ``(n, 2)``.
    loads:
        Non-negative load of each point (CPU core units).
    capacities:
        Load capacity of each cluster, shape ``(k,)``.
    initial_centroids:
        Warm-started centroids, shape ``(k, 2)``.
    max_iterations:
        Cap on assignment/update rounds.
    """
    positions = np.asarray(positions, dtype=float)
    loads = np.asarray(loads, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    centroids = np.array(initial_centroids, dtype=float, copy=True)
    n = positions.shape[0]
    k = centroids.shape[0]
    if loads.shape != (n,):
        raise ValueError("loads must have one entry per point")
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    if capacities.shape != (k,):
        raise ValueError("capacities must have one entry per cluster")

    if n == 0:
        zero = np.zeros(k)
        return ClusterResult(
            assignment=np.zeros(0, dtype=int),
            centroids=centroids,
            loads=zero,
            overflow=zero.copy(),
            iterations=0,
        )

    assignment = np.full(n, -1, dtype=int)
    # Hardest points first: large loads are placed while room exists.
    order = np.argsort(-loads, kind="stable").tolist()
    point_loads = loads.tolist()
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        distances = np.sqrt(
            ((positions[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        )
        # Every point's clusters, nearest first; a stable row sort ranks
        # ties exactly as a per-point stable sort does.  The greedy pass
        # runs on Python floats, which are float64 like the arrays.
        ranks = np.argsort(distances, axis=1, kind="stable").tolist()
        remaining = capacities.tolist()
        targets = [-1] * n
        for point in order:
            load = point_loads[point]
            ranked = ranks[point]
            target = -1
            for cluster in ranked:
                if load <= remaining[cluster]:
                    target = cluster
                    break
            if target < 0:
                # No cluster has room: nearest centroid absorbs the
                # overflow (Algorithm 2 and the local phase handle it).
                target = ranked[0]
            remaining[target] -= load
            targets[point] = target
        new_assignment = np.array(targets, dtype=int)

        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

        for cluster in range(k):
            members = np.nonzero(assignment == cluster)[0]
            if members.size:
                weights = loads[members]
                if weights.sum() > 0:
                    centroids[cluster] = np.average(
                        positions[members], axis=0, weights=weights
                    )
                else:
                    centroids[cluster] = positions[members].mean(axis=0)

    cluster_loads = np.array(
        [loads[assignment == cluster].sum() for cluster in range(k)]
    )
    overflow = np.maximum(cluster_loads - capacities, 0.0)
    return ClusterResult(
        assignment=assignment,
        centroids=centroids,
        loads=cluster_loads,
        overflow=overflow,
        iterations=iterations,
    )
