"""Geo topology: haversine, symmetry, validation."""

import pytest

from tests.conftest import make_specs
from repro.network.topology import ROUTE_FACTOR, GeoTopology, haversine_m


class TestHaversine:
    def test_zero_for_same_point(self):
        assert haversine_m(45.0, 7.0, 45.0, 7.0) == 0.0

    def test_lisbon_zurich_about_1720km(self):
        distance = haversine_m(38.7223, -9.1393, 47.3769, 8.5417)
        assert distance == pytest.approx(1.72e6, rel=0.03)

    def test_lisbon_helsinki_about_3360km(self):
        distance = haversine_m(38.7223, -9.1393, 60.1699, 24.9384)
        assert distance == pytest.approx(3.36e6, rel=0.03)

    def test_symmetric(self):
        a = haversine_m(38.7, -9.1, 60.2, 24.9)
        b = haversine_m(60.2, 24.9, 38.7, -9.1)
        assert a == pytest.approx(b)

    def test_equator_degree(self):
        # One degree of longitude at the equator is ~111 km.
        assert haversine_m(0.0, 0.0, 0.0, 1.0) == pytest.approx(1.112e5, rel=0.01)


class TestTopology:
    def test_diagonal_zero(self, specs):
        topology = GeoTopology(specs)
        for i in range(3):
            assert topology.distance_m(i, i) == 0.0

    def test_symmetry(self, specs):
        topology = GeoTopology(specs)
        assert topology.distance_m(0, 2) == pytest.approx(topology.distance_m(2, 0))

    def test_route_factor_stretches(self, specs):
        assert ROUTE_FACTOR == 1.3
        great_circle = haversine_m(
            specs[0].latitude, specs[0].longitude,
            specs[1].latitude, specs[1].longitude,
        )
        assert GeoTopology(specs).distance_m(0, 1) == pytest.approx(
            ROUTE_FACTOR * great_circle
        )

    def test_local_bandwidth_from_spec(self, specs):
        topology = GeoTopology(specs)
        assert topology.local_bandwidth_bps(1) == specs[1].local_bandwidth_bps

    def test_n_dcs(self, specs):
        assert GeoTopology(specs).n_dcs == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GeoTopology([])
