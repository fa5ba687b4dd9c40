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

    Parameters
    ----------
    traces:
        Array of shape ``(n_vms, n_steps)`` with non-negative demands.
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2:
        raise ValueError("traces must be 2-D (n_vms, n_steps)")
    n = traces.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    peaks = traces.max(axis=1)
    result = np.ones((n, n))
    # R is symmetric bit for bit: fl(a + b) = fl(b + a) elementwise and
    # a max does not depend on order, so each pair i < j is computed
    # once and mirrored.
    for i in range(n - 1):
        combined_peak = (traces[i][None, :] + traces[i + 1 :]).max(axis=1)
        denom = peaks[i] + peaks[i + 1 :]
        with np.errstate(invalid="ignore", divide="ignore"):
            row = np.where(denom > 0.0, combined_peak / denom, 1.0)
        result[i, i + 1 :] = row
        result[i + 1 :, i] = row
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
