"""Controllability and minimum-energy steering on the PSD cone.

Steering between PSD matrices works component-wise: spectral factors of the
endpoints are paired off and each pair is driven by the classical Gramian
steering input, then the component trajectories are stacked back into a
matrix trajectory with rank-one structure.
"""

import dataclasses

import numpy as np

from .numerics import SV_CUTOFF, TimeGrid, _doubling, expm, matrix_rank, rk4_linear
from .rankone import MatrixTrajectory, synthesize_from_stages
from .validation import (as_matrix, as_square, as_symmetric, as_vector, frobenius,
                         require_finite, symmetrize)

GRAMIAN_COND_LIMIT = 1e12


def controllability_matrix(A, B):
    """Kalman block matrix [B, AB, ..., A^(n-1)B]."""
    A = as_square("A", A)
    n = A.shape[0]
    B = as_matrix("B", B, rows=n)
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def controllability_rank(A, B):
    """Rank of the Kalman matrix; controllable iff the rank is full."""
    C = require_finite("controllability matrix [B, AB, ...]", controllability_matrix(A, B))
    rank = matrix_rank(C)
    return rank == C.shape[0], rank


def _expm_table(A, step, count):
    """exp(A * j * step) for j = 0..count: the powers of exp(A * step) by doubling.

    The table is component-major, shape (n, count+1, n): [:, j] is the
    j-th power.
    """
    n = A.shape[0]
    table = np.zeros((n, count + 1, n))
    table[:, 0] = np.eye(n)
    return _doubling(expm(A * step), table, True)


@dataclasses.dataclass(frozen=True)
class Gramian:
    """Finite-horizon controllability Gramian W(t1) and its condition number."""

    W: np.ndarray
    cond: float


def _gramian_from_table(table, B, t1, steps):
    # per-cell Simpson on the half grid: table[:, 2k], table[:, 2k+1], table[:, 2k+2]
    G = table.transpose(1, 0, 2) @ B
    F = G @ np.ascontiguousarray(G.transpose(0, 2, 1))
    h = t1 / steps
    cells = (h / 6.0) * (F[0:-2:2] + 4.0 * F[1:-1:2] + F[2::2])
    # the running sum, not np.sum, whose pairwise order would move W's bits
    W = symmetrize(np.cumsum(cells, axis=0)[-1])
    return Gramian(W=W, cond=float(np.linalg.cond(W)) if np.any(W) else np.inf)


def _steering_gramian(table, B, t1, steps):
    """The Gramian, rejected when too ill-conditioned to steer with."""
    gram = _gramian_from_table(table, B, t1, steps)
    if not np.isfinite(gram.cond) or gram.cond > GRAMIAN_COND_LIMIT:
        raise ValueError(
            f"Gramian condition number {gram.cond:.3e} exceeds {GRAMIAN_COND_LIMIT:.0e}; "
            "the pair may be uncontrollable or the horizon too short"
        )
    return gram


def _half_grid_table(A, t1, steps):
    """exp(A tau) at tau = j*t1/(2*steps), j = 0..2*steps, after checking t1 and steps."""
    if not t1 > 0:
        raise ValueError(f"horizon t1 must be positive, got {t1}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return _expm_table(A, 0.5 * t1 / steps, 2 * steps)


def gramian(A, B, t1=1.0, steps=512):
    """W(t1) = integral of exp(At)BB'exp(A't) over [0, t1], per-cell Simpson."""
    A = as_square("A", A)
    B = as_matrix("B", B, rows=A.shape[0])
    return _gramian_from_table(_half_grid_table(A, t1, steps), B, t1, steps)


@dataclasses.dataclass
class SteeringInput:
    """Minimum-energy input u(t) = B' exp(A'(t1 - t)) eta on the integration half-grid."""

    grid: TimeGrid
    values: np.ndarray
    eta: np.ndarray
    endpoint_error: float
    gramian: Gramian


def _steering_values(B, x0, x1, table, W):
    """eta = W^-1 (x1 - exp(A t1) x0) and u = B' exp(A'(t1 - tau)) eta on the half grid.

    u is component-major, shape (m, 2*steps+1).
    """
    n, count, _ = table.shape
    eta = np.linalg.solve(W, x1 - table[:, -1] @ x0)
    # v_j = exp(A tau_j)' eta, and u at tau_j is B' v_{2*steps-j}
    v = (eta @ table.reshape(n, count * n)).reshape(count, n)
    return eta, B.T @ v[::-1].T


def min_energy_input(A, B, x0, x1, t1=1.0, steps=512):
    """Gramian steering input driving x0 to x1 over [0, t1].

    Raises when the Gramian condition number exceeds 1e12 (uncontrollable
    pair or horizon too short).
    """
    A = as_square("A", A)
    n = A.shape[0]
    B = as_matrix("B", B, rows=n)
    x0 = as_vector("x0", x0, length=n)
    x1 = as_vector("x1", x1, length=n)
    table = _half_grid_table(A, t1, steps)
    gram = _steering_gramian(table, B, t1, steps)
    eta, u_vals = _steering_values(B, x0, x1, table, gram.W)
    grid = TimeGrid(0.0, float(t1), steps)
    path = rk4_linear(A, B @ u_vals, x0, grid)
    return SteeringInput(
        grid=grid,
        values=u_vals.T,
        eta=eta,
        endpoint_error=float(np.linalg.norm(path[-1] - x1)),
        gramian=gram,
    )


def _psd_factors(name, X):
    """Spectral factors sqrt(lam_i) v_i of a symmetric X in descending eigenvalue order."""
    lam, vec = np.linalg.eigh(X)
    scale = max(float(lam[-1]), 0.0)
    if float(lam[0]) < -1e-8 * (1.0 + scale):
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {lam[0]:.3e}")
    keep = lam > SV_CUTOFF * scale
    lam = np.clip(lam[keep], 0.0, None)
    vec = vec[:, keep]
    order = np.argsort(lam)[::-1]
    return (vec[:, order] * np.sqrt(lam[order])).T  # (k, n) rows


@dataclasses.dataclass
class SteeringPlan:
    """Per-component steering inputs whose stacked trajectory joins X0 to X1."""

    trajectory: MatrixTrajectory
    inputs: np.ndarray
    endpoint_errors: tuple
    component_endpoint_errors: list
    gramian: Gramian


def psd_steer(A, B, X0, X1, t1=1.0, steps=512) -> SteeringPlan:
    """Steer the PSD matrix X0 to X1 along a rank-one structured trajectory.

    Spectral factors of the endpoints are paired in descending eigenvalue
    order (the shorter list padded with zero vectors), each pair is steered
    by the minimum-energy input, and the components are stacked into a
    matrix trajectory whose upper-left block runs from X0 to X1.
    """
    A = as_square("A", A)
    n = A.shape[0]
    B = as_matrix("B", B, rows=n)
    m = B.shape[1]
    X0 = as_symmetric("X0", X0, dim=n)
    X1 = as_symmetric("X1", X1, dim=n)
    table = _half_grid_table(A, t1, steps)

    f0 = _psd_factors("X0", X0)
    f1 = _psd_factors("X1", X1)
    k = max(f0.shape[0], f1.shape[0])
    grid = TimeGrid(0.0, float(t1), steps)

    starts = np.zeros((k, n))
    targets = np.zeros((k, n))
    starts[: f0.shape[0]] = f0
    targets[: f1.shape[0]] = f1

    # zero endpoints (k = 0) steer nothing, so the condition limit does not apply
    gram = (_steering_gramian if k else _gramian_from_table)(table, B, t1, steps)
    # each component's input at the RK4 stage times, (m, 2*steps+1, k)
    u_stages = np.zeros((m, 2 * steps + 1, k))
    for j in range(k):
        u_stages[:, :, j] = _steering_values(B, starts[j], targets[j], table, gram.W)[1]
    x, traj = synthesize_from_stages(A, B, starts.T, u_stages, grid)
    tol = 1e-5 * (1.0 + float(frobenius("X1", X1)))
    e0 = float(np.linalg.norm(traj.q_nn[0] - X0))
    e1 = float(np.linalg.norm(traj.q_nn[-1] - X1))
    if e0 > tol or e1 > tol:
        raise ValueError(
            f"steering endpoint errors ({e0:.3e}, {e1:.3e}) exceed tolerance {tol:.3e}; "
            "try a longer horizon or finer grid"
        )
    return SteeringPlan(
        trajectory=traj,
        inputs=u_stages[:, ::2].transpose(2, 1, 0),
        endpoint_errors=(e0, e1),
        component_endpoint_errors=np.linalg.norm(x[:, -1] - targets.T, axis=0).tolist(),
        gramian=gram,
    )


@dataclasses.dataclass
class KControllabilityReport:
    """The Kalman rank of (A, B) and, when it falls short, the obstruction to steering."""

    controllable: bool
    rank: int
    obstruction: np.ndarray | None


def verify_k_controllability(A, B):
    """Decide whether (A, B) steers the PSD cone; if not, exhibit a witness.

    Steering between any PSD pair needs a full-rank Kalman matrix.  The
    witness is a unit left null vector w of the Kalman matrix: w'x(t) is
    input-independent, so no steering between matrices differing along ww'
    can succeed.
    """
    controllable, rank = controllability_rank(A, B)
    if controllable:
        return KControllabilityReport(controllable=True, rank=rank, obstruction=None)
    U, _, _ = np.linalg.svd(controllability_matrix(A, B))
    return KControllabilityReport(controllable=False, rank=rank, obstruction=U[:, -1])
