"""Physical units and conversion helpers shared across the library.

The paper mixes several unit systems (MB of exchanged data, Gb/s links,
kWh batteries, Joule capacity caps).  Everything in this code base is
normalized to the following internal conventions:

* time        -- seconds (one *slot* is one hour unless reconfigured)
* energy      -- Joules
* power       -- Watts
* data volume -- megabytes (MB); converted to bits only inside the
                 latency model
* bandwidth   -- bits per second
* distance    -- meters
"""

from __future__ import annotations

#: Seconds in one placement slot (the paper invokes the global/local
#: controllers every hour).
SECONDS_PER_HOUR = 3600.0

#: Hours in the paper's evaluation horizon (one week).
HOURS_PER_WEEK = 168

#: Bits in one megabyte (decimal megabyte, as used for network volumes).
BITS_PER_MB = 8.0e6

#: Bytes in one gigabyte (VM image sizes for migration).
MB_PER_GB = 1000.0

#: Propagation speed of light in optical fiber (m/s).  Vacuum light speed
#: scaled by a typical fiber refractive index of ~1.5.
FIBER_LIGHT_SPEED = 2.0e8

#: Joules per kilowatt-hour.
JOULES_PER_KWH = 3.6e6

#: Joules in a gigajoule (Fig. 2 reports weekly energy in GJ).
JOULES_PER_GJ = 1.0e9


def mb_to_bits(megabytes: float) -> float:
    """Convert a data volume in MB to bits (for bandwidth math)."""
    return megabytes * BITS_PER_MB


def gb_to_mb(gigabytes: float) -> float:
    """Convert gigabytes (VM image size) to megabytes."""
    return gigabytes * MB_PER_GB


def kwh_to_joules(kwh: float) -> float:
    """Convert kilowatt-hours to Joules."""
    return kwh * JOULES_PER_KWH


def joules_to_kwh(joules: float) -> float:
    """Convert Joules to kilowatt-hours."""
    return joules / JOULES_PER_KWH


def joules_to_gj(joules: float) -> float:
    """Convert Joules to gigajoules."""
    return joules / JOULES_PER_GJ
