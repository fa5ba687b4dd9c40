"""Latency model: Equations 1-4 and Algorithm 1 of the paper.

The total (worst-case) latency for data converging on destination DC j
(Eq. 1) is::

    L_t^j = max_i (L_l^i + L_g^{i,j}) + L_l^j        (i != j)

with the source-local (Eq. 2), destination-local (Eq. 3) and global
(Eq. 4) terms.  The global term's *data latency* fragments the transfer
into one-second steps, resampling an effective bandwidth
``Be = (1 - BER) * Bbb`` each step (Algorithm 1) -- corrupted data must
be resent, so high-BER seconds move less data.

All latency results are in seconds; volumes are in MB.
"""

from __future__ import annotations

import numpy as np

from repro.network.ber import BERProcess
from repro.network.topology import BACKBONE_BANDWIDTH_BPS, GeoTopology
from repro.units import FIBER_LIGHT_SPEED, mb_to_bits


def global_data_latency(
    volume_mb: float,
    backbone_bps: float,
    ber_samples: "np.ndarray | BERSampler",
) -> float:
    """Algorithm 1: data latency (s) of a transfer under time-varying BER.

    Parameters
    ----------
    volume_mb:
        Volume to transfer.
    backbone_bps:
        Raw backbone bandwidth Bbb.
    ber_samples:
        Either a pre-drawn array of per-second BER values (cycled if the
        transfer outlives it) or a :class:`BERSampler`-like callable
        returning one BER per call.

    Returns
    -------
    float
        Seconds needed to push the volume through the lossy link.
    """
    if volume_mb < 0:
        raise ValueError("volume must be non-negative")
    if volume_mb == 0:
        return 0.0

    if isinstance(ber_samples, np.ndarray):
        samples = ber_samples
        if samples.size == 0:
            raise ValueError("ber_samples array must be non-empty")

        def next_ber(step: int) -> float:
            return float(samples[step % samples.size])

    else:

        def next_ber(step: int) -> float:
            return float(ber_samples())

    remaining_bits = mb_to_bits(volume_mb)
    latency = 0.0
    step = 0
    while True:
        effective_bps = (1.0 - next_ber(step)) * backbone_bps
        bits_this_second = effective_bps  # one-second fragments
        if remaining_bits <= bits_this_second:
            latency += remaining_bits / effective_bps
            return latency
        remaining_bits -= bits_this_second
        latency += 1.0
        step += 1


#: Per-second BERs pre-drawn per (slot, link); Algorithm 1 cycles them
#: if a transfer runs longer.
BER_WINDOW = 256


class LatencyModel:
    """Eq. 1-4 evaluator bound to a topology and a BER process.

    The BER window of each directed link is drawn once per slot: the
    kernel step and Algorithm 2's repeated checks of one slot all read
    the same read-only arrays.  A lockstep group's engines that run one
    fleet share one model (their
    :class:`~repro.sim.kernel.SiteConditions`') and advance on one
    thread, slot by slot, so a group draws each (slot, link) window
    once.  The memo is one ``(slot, windows)`` pair that a new slot
    replaces whole, so even a model shared across threads never serves
    one slot's samples to another.
    """

    def __init__(self, topology: GeoTopology, ber: BERProcess | None = None) -> None:
        self.topology = topology
        self.ber = ber or BERProcess()
        #: ``(slot, {(src, dst): window})`` of the last slot asked for.
        self._windows: tuple[int, dict] = (-1, {})

    def ber_window(self, slot: int, src: int, dst: int) -> np.ndarray:
        """The (read-only) per-second BERs of ``src -> dst`` in ``slot``."""
        memo = self._windows
        if memo[0] != slot:
            memo = self._windows = (slot, {})
        window = memo[1].get((src, dst))
        if window is None:
            rng = self.ber.link_rng(slot, src, dst)
            window = np.asarray(
                self.ber.sample(rng, size=BER_WINDOW), dtype=float
            )
            window.flags.writeable = False
            memo[1][(src, dst)] = window
        return window

    def source_local_latency(self, src: int, volume_mb: float) -> float:
        """Eq. 2: time for a source DC to push a volume to its uplink."""
        if volume_mb < 0:
            raise ValueError("volume must be non-negative")
        return mb_to_bits(volume_mb) / self.topology.local_bandwidth_bps(src)

    def dest_local_latency(self, dst: int, total_volume_mb: float) -> float:
        """Eq. 3: time for a destination to store all received data."""
        if total_volume_mb < 0:
            raise ValueError("volume must be non-negative")
        return mb_to_bits(total_volume_mb) / self.topology.local_bandwidth_bps(dst)

    def propagation_latency(self, src: int, dst: int) -> float:
        """Speed-of-light term of Eq. 4."""
        return self.topology.distance_m(src, dst) / FIBER_LIGHT_SPEED

    def global_latency(
        self, src: int, dst: int, volume_mb: float, slot: int
    ) -> float:
        """Eq. 4: propagation plus BER-aware data latency."""
        if src == dst:
            return 0.0
        data_latency = global_data_latency(
            volume_mb,
            BACKBONE_BANDWIDTH_BPS,
            self.ber_window(slot, src, dst),
        )
        return self.propagation_latency(src, dst) + data_latency

    def destination_latency(
        self, dst: int, volumes_from_mb: dict[int, float], slot: int
    ) -> float:
        """Eq. 1: worst-case total latency (s) for data converging on ``dst``.

        Parameters
        ----------
        dst:
            Destination DC index.
        volumes_from_mb:
            Mapping source DC index -> MB sent toward ``dst`` this slot.
            Entries for ``dst`` itself (intra-DC data) contribute only
            to the destination-local term.
        slot:
            Slot index (selects the BER realization).
        """
        worst = 0.0
        total_in_mb = 0.0
        for src, volume in volumes_from_mb.items():
            if volume < 0:
                raise ValueError("volumes must be non-negative")
            if volume == 0.0:
                continue
            total_in_mb += volume
            if src == dst:
                continue
            worst = max(
                worst,
                self.source_local_latency(src, volume)
                + self.global_latency(src, dst, volume, slot),
            )
        return worst + self.dest_local_latency(dst, total_in_mb)
