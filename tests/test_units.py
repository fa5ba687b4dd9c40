"""Unit-conversion helpers."""

import pytest

from repro import units


def test_mb_to_bits():
    assert units.mb_to_bits(1.0) == 8.0e6


def test_gb_to_mb():
    assert units.gb_to_mb(2.0) == 2000.0


def test_kwh_to_joules():
    assert units.kwh_to_joules(1.0) == 3.6e6


def test_joules_to_kwh_roundtrip():
    assert units.joules_to_kwh(units.kwh_to_joules(42.0)) == pytest.approx(42.0)


def test_joules_to_gj():
    assert units.joules_to_gj(2.5e9) == pytest.approx(2.5)


def test_seconds_per_hour():
    assert units.SECONDS_PER_HOUR == 3600.0


def test_hours_per_week():
    assert units.HOURS_PER_WEEK == 168


def test_fiber_speed_below_vacuum_c():
    assert units.FIBER_LIGHT_SPEED < 3.0e8
