"""CPU-load and data correlation metrics (inputs to Eq. 5).

The paper's force model needs two pairwise matrices over the VMs alive
in the system:

* a **repulsion** matrix from CPU-load correlation, "computed as a
  worst-case peak CPU utilization when the peaks of two VMs coincide
  during the last time slot", normalized to (0, 1];
* an **attraction** matrix from data correlation (the amount of data
  two VMs exchange, both directions), normalized to [-1, 0).
"""

from __future__ import annotations

import numpy as np


def peak_coincidence(traces: np.ndarray) -> np.ndarray:
    """Worst-case peak-coincidence matrix of demand traces.

    ``R[i, j] = max_t(u_i(t) + u_j(t)) / (max_t u_i(t) + max_t u_j(t))``

    The value is 1.0 exactly when the two peaks coincide in time and
    decays toward ~0.5 (for equal-peak traces) as the peaks interleave,
    so it lies in (0, 1] for traces with positive peaks.  The diagonal
    is 1 by construction.

    The combined peak is found by a threshold stop (Fagin, Lotem and
    Naor's, applied to one pair).  Each row keeps its ``k`` largest
    steps ``S_i`` and its ``k``-th largest value ``q_i``.  Off ``S_i ∪
    S_j``, ``fl(u_i + u_j) <= fl(q_i + q_j)`` because rounding is
    monotone, so once the best sum over ``S_i ∪ S_j`` reaches
    ``fl(q_i + q_j)`` it is the maximum, bit for bit; only the other
    pairs scan every step.  ``k`` grows with the step count (capped at
    it: a row's ``k``-th largest value is then its minimum, and the
    stop always holds).  Row blocks are evaluated against the upper
    triangle and mirrored: ``fl(a + b) = fl(b + a)`` and a maximum does
    not depend on order, so R is symmetric bit for bit.  No temporary
    holds more than 2**16 floats (512 kB) past the ``(n, n)`` result,
    a step-major copy of the traces and the kept steps.

    Parameters
    ----------
    traces:
        Array of shape ``(n_vms, n_steps)`` with non-negative demands.
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2:
        raise ValueError("traces must be 2-D (n_vms, n_steps)")
    n, steps = traces.shape
    if n == 0:
        return np.zeros((0, 0))
    peaks = traces.max(axis=1)
    k = min(steps, 24, max(8, steps // 5))
    height = max(1, min(64, 2**16 // n))
    chunk = max(1, 2**16 // steps)
    top = np.argpartition(traces, steps - k, axis=1)[:, steps - k :]
    top_values = np.take_along_axis(traces, top, axis=1)
    floors = top_values.min(axis=1)
    by_step = np.ascontiguousarray(traces.T)
    result = np.empty((n, n))
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, n, height):
            block = slice(start, min(start + height, n))
            # Pairs (i, j) of the block's rows i and the columns j >=
            # start: the best sum over S_i (``best``) and over S_j
            # (``other``, transposed), one kept step at a time, each a
            # gather of contiguous runs of the step-major copy.
            best = np.full((block.stop - start, n - start), -np.inf)
            other = np.full((n - start, block.stop - start), -np.inf)
            for rank in range(k):
                own = by_step[top[block, rank], start:]
                own += top_values[block, rank, None]
                np.maximum(best, own, out=best)
                own = by_step[top[start:, rank], block]
                own += top_values[start:, rank, None]
                np.maximum(other, own, out=other)
            np.maximum(best, other.T, out=best)
            rows, columns = np.nonzero(
                best < floors[block, None] + floors[None, start:]
            )
            for first in range(0, rows.size, chunk):
                i = rows[first : first + chunk]
                j = columns[first : first + chunk]
                combined = traces[start + i]
                combined += traces[start + j]
                best[i, j] = combined.max(axis=1)
            denom = peaks[block, None] + peaks[None, start:]
            silent = ~(denom > 0.0)
            ratio = np.divide(best, denom, out=best)
            ratio[silent] = 1.0
            result[block, start:] = ratio
            result[start:, block] = ratio.T
    np.fill_diagonal(result, 1.0)
    return result


def repulsion_matrix(traces: np.ndarray) -> np.ndarray:
    """CPU-load repulsion F_r of Eq. 5, in (0, 1], zero diagonal.

    This is :func:`peak_coincidence` with the self-terms removed: a VM
    exerts no force on itself.
    """
    result = peak_coincidence(traces)
    np.fill_diagonal(result, 0.0)
    return result


def attraction_matrix(volumes: np.ndarray) -> np.ndarray:
    """Data-correlation attraction F_a of Eq. 5, in [-1, 0].

    The bidirectional exchange ``v[i, j] + v[j, i]`` of the directed
    volume matrix (MB) is compressed with ``log1p`` and normalized by
    its maximum, so the strongest-communicating pair gets force -1 and
    pairs that do not communicate get 0 (no attraction).  The paper's
    volumes are log-normal with sigma up to 2: linear normalization by
    the max would leave the median communicating pair with a vanishing
    force and the clustering signal would ride on a single hot pair.
    """
    volumes = np.asarray(volumes, dtype=float)
    if volumes.ndim != 2 or volumes.shape[0] != volumes.shape[1]:
        raise ValueError("volumes must be a square matrix")
    if np.any(volumes < 0):
        raise ValueError("volumes must be non-negative")
    exchanged = volumes + volumes.T
    np.fill_diagonal(exchanged, 0.0)
    exchanged = np.log1p(exchanged)
    top = exchanged.max()
    if top == 0.0:
        return np.zeros_like(exchanged)
    return -exchanged / top


def total_force_matrix(
    attraction: np.ndarray, repulsion: np.ndarray, alpha: float
) -> np.ndarray:
    """Eq. 5: ``F_t = alpha * F_a + (1 - alpha) * F_r``.

    ``alpha`` weights performance (attraction, data locality) against
    energy (repulsion, peak separation).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    attraction = np.asarray(attraction, dtype=float)
    repulsion = np.asarray(repulsion, dtype=float)
    if attraction.shape != repulsion.shape:
        raise ValueError("attraction and repulsion shapes differ")
    return alpha * attraction + (1.0 - alpha) * repulsion
