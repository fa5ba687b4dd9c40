"""Force-directed 2D embedding of VMs (Eqs. 5-7).

Step 1 of the global phase: every VM is a point in a 2D plane; highly
data-correlated VMs attract, highly CPU-load-correlated VMs repel.  The
resultant force on each point displaces it each iteration
(``displacement = 0.5 * force * t^2``, Eq. 6), and the process stops
when the progress metric ``CostAR`` (Eq. 7) decays or a maximum
iteration count is reached.

Sign conventions (see DESIGN.md):

* ``F_t[i, j] < 0`` -- net attraction between i and j,
* ``F_t[i, j] > 0`` -- net repulsion,
* the force that j exerts on i acts along the unit vector from j to i,
  scaled by ``F_t[j, i]``; attraction therefore pulls i toward j.

``CostAR_k = sum_{i,j} F_t[i,j] * (d_k[i,j] - d_{k-1}[i,j])`` is
*positive* when motion agrees with the forces (attracting pairs got
closer, repelling pairs separated), so it measures progress per
iteration.  The stop rule (:func:`plateaued`) fires from the second
iteration on, as soon as ``CostAR`` grows by no more than
:data:`PLATEAU_TOLERANCE` of the previous iteration's ``|CostAR|``; a
decay, the paper's literal condition, still stops it.  The forces do
not depend on distance, so once the points have sorted themselves the
plane only expands and ``CostAR`` creeps toward a constant from below:
a decay-only rule never fires (DESIGN.md "Interpretation decisions").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.correlation import total_force_matrix

#: Relative ``CostAR`` growth at or below which the embedding has
#: plateaued (:func:`plateaued`).
PLATEAU_TOLERANCE = 1e-3


def plateaued(previous: float, current: float) -> bool:
    """The Eq. 7 stop rule over two successive ``CostAR`` values.

    True when ``current`` exceeds ``previous`` by no more than
    :data:`PLATEAU_TOLERANCE` of ``|previous|``.  That covers the
    paper's decay (``current < previous``) and a plateau, including a
    zero ``CostAR`` that stays zero.
    """
    return current - previous <= PLATEAU_TOLERANCE * abs(previous)


@dataclass(frozen=True)
class ForceParameters:
    """Tunables of the embedding.

    Attributes
    ----------
    alpha:
        Eq. 5 energy/performance weight (1.0 = pure attraction /
        performance, 0.0 = pure repulsion / energy).
    time_step:
        The displacement period ``t`` of Eq. 6.
    max_iterations:
        Hard cap "to avoid a convergence time overhead" (paper).
    normalize_forces:
        Divide each resultant force by (N-1) so the displacement scale
        does not grow with the number of VMs.  The paper is silent on
        this; without it the plane's scale depends on fleet size.
    min_distance:
        Coincident points are separated by a deterministic jitter of
        this magnitude before computing directions.
    """

    alpha: float = 0.5
    time_step: float = 1.0
    max_iterations: int = 50
    normalize_forces: bool = True
    min_distance: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.time_step <= 0:
            raise ValueError("time_step must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.min_distance <= 0:
            raise ValueError("min_distance must be positive")


@dataclass
class EmbeddingResult:
    """Output of one embedding run.

    Attributes
    ----------
    positions:
        Final point coordinates, shape ``(n_vms, 2)``.
    iterations:
        Number of displacement iterations executed.
    cost_history:
        ``CostAR`` value per iteration (Eq. 7).
    converged:
        True when the stop rule (:func:`plateaued`) fired before the
        iteration cap.
    """

    positions: np.ndarray
    iterations: int
    cost_history: list[float] = field(default_factory=list)
    converged: bool = False


def _geometry(
    positions: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    dists: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write the per-coordinate offsets and distances of 2D points.

    Fills the ``(n, n)`` buffers with ``dx[i, j] = x_i - x_j`` (the
    j -> i direction), ``dy`` likewise and ``dists = sqrt(dx^2 +
    dy^2)``; ``scratch`` is overwritten.
    """
    x = positions[:, 0]
    y = positions[:, 1]
    np.subtract(x[:, None], x[None, :], out=dx)
    np.subtract(y[:, None], y[None, :], out=dy)
    np.multiply(dx, dx, out=dists)
    np.multiply(dy, dy, out=scratch)
    dists += scratch
    np.sqrt(dists, out=dists)


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of 2D points, shape ``(n, n)``."""
    n = positions.shape[0]
    dx, dy, dists, scratch = (np.empty((n, n)) for _ in range(4))
    _geometry(positions, dx, dy, dists, scratch)
    return dists


class ForceDirectedEmbedding:
    """Runs the repulsion/attraction phase over a force matrix."""

    def __init__(self, params: ForceParameters | None = None) -> None:
        self.params = params or ForceParameters()

    def total_forces(
        self, attraction: np.ndarray, repulsion: np.ndarray
    ) -> np.ndarray:
        """Eq. 5 with this embedding's alpha."""
        return total_force_matrix(attraction, repulsion, self.params.alpha)

    def _resultant(
        self,
        dx: np.ndarray,
        dy: np.ndarray,
        dists: np.ndarray,
        forces: np.ndarray,
        scratch: np.ndarray,
        tiny: np.ndarray,
    ) -> np.ndarray:
        """Resultant force vector on each point (Eq. 6's F_x, F_y).

        ``forces[j, i]`` scales the unit vector from j to i: positive
        entries push i away from j, negative pull it toward j.  Takes
        :func:`_geometry`'s arrays with the diagonal of ``dists`` set
        to 1.0 (no 0/0); jittered pairs overwrite ``dx`` and ``dy`` in
        place, ``dists`` is left untouched.  ``scratch`` and the
        boolean ``tiny`` are overwritten.
        """
        n = dists.shape[0]
        min_distance = self.params.min_distance
        scale = dists
        # Deterministic jitter for coincident points.
        np.less(dists, min_distance, out=tiny)
        np.fill_diagonal(tiny, False)
        if tiny.any():
            ii, jj = np.nonzero(tiny)
            angle = 2.0 * np.pi * ((ii * 31 + jj * 17) % 101) / 101.0
            dx[ii, jj] = np.cos(angle) * min_distance
            dy[ii, jj] = np.sin(angle) * min_distance
            scale = dists.copy()
            scale[ii, jj] = min_distance
        # Sum over j of F[j, i] * unit(j -> i), one coordinate at a time;
        # this einsum form keeps the sequential order over j.
        resultant = np.empty((n, 2))
        np.divide(dx, scale, out=scratch)
        resultant[:, 0] = np.einsum("ji,ij->i", forces, scratch)
        np.divide(dy, scale, out=scratch)
        resultant[:, 1] = np.einsum("ji,ij->i", forces, scratch)
        if self.params.normalize_forces and n > 1:
            resultant /= n - 1
        return resultant

    def run(
        self,
        positions: np.ndarray,
        attraction: np.ndarray,
        repulsion: np.ndarray,
    ) -> EmbeddingResult:
        """Iterate Eq. 6 until the Eq. 7 stop rule or the iteration cap.

        Parameters
        ----------
        positions:
            Initial coordinates ``(n, 2)`` -- the final positions of the
            previous slot for existing VMs (paper: "the final location
            of all the VMs becomes the initial position for the next
            time slot").
        attraction / repulsion:
            Pairwise force components (see
            :mod:`repro.core.correlation`).
        """
        positions = np.array(positions, dtype=float, copy=True)
        n = positions.shape[0]
        if positions.shape != (n, 2):
            raise ValueError("positions must have shape (n, 2)")
        # C order keeps ``_resultant``'s einsum summing over j in
        # sequence whatever the layout of the inputs.
        forces = np.ascontiguousarray(self.total_forces(attraction, repulsion))
        if forces.shape != (n, n):
            raise ValueError("force matrix shape must match positions")
        if n < 2:
            return EmbeddingResult(positions=positions, iterations=0, converged=True)

        gain = 0.5 * self.params.time_step**2
        # One geometry pass per iteration, into buffers reused by every
        # iteration: its distances close this iteration's CostAR and
        # its offsets drive the next resultant.  The distance diagonal
        # is held at 1.0, so the distances are also the resultant's
        # scale; CostAR's diagonal term F_ii * (1 - 1) has the bits of
        # F_ii * (0 - 0).
        dx, dy, distances, previous_distances, scratch = (
            np.empty((n, n)) for _ in range(5)
        )
        tiny = np.empty((n, n), dtype=bool)
        _geometry(positions, dx, dy, previous_distances, scratch)
        np.fill_diagonal(previous_distances, 1.0)
        cost_history: list[float] = []
        converged = False
        iterations = 0

        for _ in range(self.params.max_iterations):
            resultant = self._resultant(
                dx, dy, previous_distances, forces, scratch, tiny
            )
            positions += gain * resultant
            iterations += 1

            _geometry(positions, dx, dy, distances, scratch)
            np.fill_diagonal(distances, 1.0)
            np.subtract(distances, previous_distances, out=scratch)
            scratch *= forces
            cost = float(scratch.sum())
            distances, previous_distances = previous_distances, distances
            cost_history.append(cost)

            if len(cost_history) >= 2 and plateaued(cost_history[-2], cost):
                converged = True
                break

        return EmbeddingResult(
            positions=positions,
            iterations=iterations,
            cost_history=cost_history,
            converged=converged,
        )
