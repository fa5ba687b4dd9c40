"""Recorded (external) utilization traces.

The paper's evaluation uses a *real* DC's utilization sampled every 5 s
for one day, extended to a week.  That trace is private, so the library
defaults to :class:`~repro.workload.traces.TraceLibrary`'s synthetic
equivalent -- but users holding real traces can reproduce the paper's
exact pipeline with this module:

* :class:`RecordedTraceLibrary` serves per-(vm, slot) demand from a
  recorded utilization matrix, with the same interface the simulation
  engine consumes (``slot_demand`` / ``slot_demand_many`` /
  ``slot_mean``);
* :meth:`RecordedTraceLibrary.extend_days` applies the paper's
  one-day-to-one-week rule: replay the recorded day with added
  same-mean statistical variance;
* :func:`load_utilization_csv` reads a plain CSV (one row per VM, one
  column per sample, values in [0, 1]).

VM rows are matched by ``vm_id`` modulo the number of recorded rows, so
any population size can run against any recording.
"""

from __future__ import annotations

import csv
import pathlib

import numpy as np

from repro.seeding import rng_for
from repro.workload.vm import VirtualMachine


def load_utilization_csv(path: str | pathlib.Path) -> np.ndarray:
    """Read a utilization matrix: one VM per row, one sample per column.

    Blank lines and ``#``-comment lines are skipped.  Values must parse
    as floats in [0, 1] -- a bad cell is reported with its file, line
    and column -- and rows must have equal length.
    """
    path = pathlib.Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            values: list[float] = []
            for column, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_number}:{column}: "
                        f"not a number: {cell.strip()!r}"
                    ) from None
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"{path}:{line_number}:{column}: "
                        f"utilization {value!r} outside [0, 1]"
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no utilization rows")
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise ValueError(f"{path}: ragged rows (lengths {sorted(lengths)})")
    return np.asarray(rows, dtype=float)


class RecordedTraceLibrary:
    """Engine-compatible trace provider backed by a recorded matrix.

    Parameters
    ----------
    utilization:
        Array ``(n_recorded_vms, total_steps)`` with values in [0, 1].
    steps_per_slot:
        Slot resolution; ``total_steps`` must be a multiple.
    """

    def __init__(self, utilization: np.ndarray, steps_per_slot: int) -> None:
        utilization = np.asarray(utilization, dtype=float)
        if utilization.ndim != 2 or utilization.size == 0:
            raise ValueError("utilization must be a non-empty 2-D array")
        if steps_per_slot < 1:
            raise ValueError("steps_per_slot must be >= 1")
        if utilization.shape[1] % steps_per_slot != 0:
            raise ValueError(
                "total steps must be a multiple of steps_per_slot"
            )
        if utilization.min() < 0.0 or utilization.max() > 1.0:
            raise ValueError("utilization values must be in [0, 1]")
        self.utilization = utilization
        self.steps_per_slot = steps_per_slot

    @property
    def recorded_slots(self) -> int:
        """Number of whole slots in the recording."""
        return self.utilization.shape[1] // self.steps_per_slot

    @property
    def recorded_vms(self) -> int:
        """Number of recorded VM rows."""
        return self.utilization.shape[0]

    def _row_of(self, vm: VirtualMachine) -> int:
        return vm.vm_id % self.recorded_vms

    def _window(self, slot: int) -> slice:
        wrapped = slot % self.recorded_slots
        start = wrapped * self.steps_per_slot
        return slice(start, start + self.steps_per_slot)

    def slot_trace(self, vm: VirtualMachine, slot: int) -> np.ndarray:
        """Utilization fractions of ``vm`` during ``slot`` (wraps)."""
        return self.utilization[self._row_of(vm), self._window(slot)].copy()

    def slot_mean(self, vm: VirtualMachine, slot: int) -> float:
        """Mean utilization of ``vm`` during ``slot``."""
        return float(self.slot_trace(vm, slot).mean())

    def slot_demand(self, vm: VirtualMachine, slot: int) -> np.ndarray:
        """CPU demand in core units during ``slot``."""
        return self.slot_trace(vm, slot) * vm.cores

    def slot_demand_many(
        self, vms: list[VirtualMachine], slot: int
    ) -> np.ndarray:
        """Stacked demand traces aligned with ``vms``, in one gather.

        Bit-identical to stacking the per-VM :meth:`slot_demand` rows
        -- the multiply is elementwise, so broadcasting ``cores``
        changes nothing -- with one fancy index and one broadcast
        product instead of n row copies.
        """
        if not vms:
            return np.zeros((0, self.steps_per_slot))
        rows = np.fromiter(
            (vm.vm_id % self.recorded_vms for vm in vms),
            dtype=np.intp,
            count=len(vms),
        )
        cores = np.array([vm.cores for vm in vms], dtype=float)
        return self.utilization[rows, self._window(slot)] * cores[:, None]

    def extend_days(
        self, days: int, extension_sigma: float = 0.05, seed: int = 0
    ) -> "RecordedTraceLibrary":
        """The paper's week-extension rule applied to a recording.

        Day 0 is the recording itself; each further day replays it
        "adding statistical variance with the same mean" -- zero-mean
        Gaussian noise of ``extension_sigma``, clipped to [0, 1].
        """
        if days < 1:
            raise ValueError("days must be >= 1")
        blocks = [self.utilization]
        for day in range(1, days):
            rng = rng_for(seed, "extend", day)
            noisy = self.utilization + rng.normal(
                0.0, extension_sigma, self.utilization.shape
            )
            blocks.append(np.clip(noisy, 0.0, 1.0))
        return RecordedTraceLibrary(
            np.concatenate(blocks, axis=1), self.steps_per_slot
        )
