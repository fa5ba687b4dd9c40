"""Geographic full-mesh topology between data centers.

The paper connects its DCs "through 100 Gb/s full duplex peer-to-peer
optical fiber links" in a full mesh, with 10 Gb/s intra-DC links, and
feeds the latency model with the distance between sites and the speed
of light (Section III and V-A).

Distances are derived from site coordinates with the haversine formula
and multiplied by a routing factor, since fiber paths are longer than
great circles.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datacenter.datacenter import DatacenterSpec

#: Mean Earth radius in meters.
EARTH_RADIUS_M = 6.371e6

#: Capacity of every inter-DC link, Bbb (paper: 100 Gb/s).
BACKBONE_BANDWIDTH_BPS = 100.0e9

#: Fiber routes are longer than the great circle; typical factor ~1.3.
ROUTE_FACTOR = 1.3


def haversine_m(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance in meters between two (lat, lon) points."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


class GeoTopology:
    """Full-mesh backbone over a list of DC specs.

    Parameters
    ----------
    specs:
        The DC fleet, in index order.
    """

    def __init__(self, specs: list[DatacenterSpec]) -> None:
        if len(specs) < 1:
            raise ValueError("at least one DC required")
        self.specs = list(specs)
        n = len(specs)
        self._distances = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    self._distances[i, j] = ROUTE_FACTOR * haversine_m(
                        specs[i].latitude,
                        specs[i].longitude,
                        specs[j].latitude,
                        specs[j].longitude,
                    )

    @property
    def n_dcs(self) -> int:
        """Number of data centers in the mesh."""
        return len(self.specs)

    def distance_m(self, src: int, dst: int) -> float:
        """Fiber distance between two DCs (0 for src == dst)."""
        return float(self._distances[src, dst])

    def local_bandwidth_bps(self, dc: int) -> float:
        """Intra-DC (storage) bandwidth B_L of a DC."""
        return self.specs[dc].local_bandwidth_bps
