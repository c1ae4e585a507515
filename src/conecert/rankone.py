"""Rank-one decomposition of PSD matrix trajectories, both directions.

A trajectory Q(t) in S^{n+m}_+ whose upper-left block obeys the matrix
dynamics

    d/dt Q_nn = (A B) Q (I; 0) + [(A B) Q (I; 0)]'

decomposes into n+m rank-one components (x_i(t); u_i(t)) (x_i' u_i')
with x_i' = A x_i + B u_i, and conversely any such component sum
satisfies the dynamics.  The decomposition follows the constructive
argument: R = Q_nn^+ Q_nm, X solves X' = (A + B R')X from a square-root
initial condition on each constant-rank segment, segments are glued with
an orthogonal Procrustes factor, and the residual S = Q_mm - R'Q_nn R is
spectrally factored into components with x = 0.  One eigendecomposition
of Q_nn gives every sample's rank, Q_nn^+ and sqrt(Q_nn); besides it, each
segment takes one Procrustes polar factor and S one eigendecomposition.
Blocks up to 2 x 2 are factored in closed form (``_eigh``, ``_polar``),
larger ones by one stacked LAPACK call each.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    SV_CUTOFF,
    TimeGrid,
    TrajectoryGrid,
    central_diff4,
    pinv,
    rk4_linear,
    stage_inputs,
)
from .validation import as_matrix, as_square, frobenius, require_finite

__all__ = [
    "MatrixTrajectory",
    "RankSegmentation",
    "RankOneDecomposition",
    "Refutation",
    "image_inclusion_check",
    "dynamics_residual",
    "rank_segments",
    "decompose",
    "synthesize_Q",
]

# samples within this distance of a segment boundary are excluded from
# per-component ODE residuals (derivatives are one-sided there)
_BOUNDARY_SKIRT = 2


@dataclass
class MatrixTrajectory:
    """Sampled Q : [t0, t1] -> S^{n+m}_+ with block sizes (n, m).

    Every sample must be PSD within lambda_min >= -1e-8 * (1 + ||Q||_F),
    accepted by one stacked Cholesky of Q_k + 1e-8 (1 + ||Q_k||_F) I, and
    is stored exactly symmetric.  ``dynamics_residual`` is filled in by
    synthesize_Q as its certification record.
    """

    grid: TimeGrid
    values: np.ndarray  # (steps+1, n+m, n+m)
    n: int
    m: int
    dynamics_residual: float | None = field(default=None)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        d = self.n + self.m
        if self.n < 1 or self.m < 0:
            raise ValueError("block sizes require n >= 1, m >= 0")
        if v.ndim != 3 or v.shape != (self.grid.steps + 1, d, d):
            raise ValueError(
                f"values must have shape ({self.grid.steps + 1}, {d}, {d}), got {v.shape}"
            )
        require_finite("trajectory values", v)
        skew = np.max(np.abs(v - v.transpose(0, 2, 1)))
        norms = frobenius("trajectory values", v, axis=(1, 2))
        if skew > 1e-8 * (1.0 + norms.max(initial=0.0)):
            raise ValueError(f"samples not symmetric (max asymmetry {skew:.3e})")
        v = 0.5 * (v + v.transpose(0, 2, 1))
        tau = 1e-8 * (1.0 + norms)
        try:
            np.linalg.cholesky(v + tau[:, None, None] * np.eye(d))
        except np.linalg.LinAlgError:  # the eigenvalues decide, and name the sample
            eig_min = np.linalg.eigvalsh(v)[:, 0]
            k = int(np.argmin(eig_min + tau))
            if eig_min[k] + tau[k] < 0:
                raise ValueError(f"sample {k} is not PSD: min eigenvalue {eig_min[k]:.3e}")
        self.values = v

    @property
    def q_nn(self):
        return self.values[:, : self.n, : self.n]

    @property
    def q_nm(self):
        return self.values[:, : self.n, self.n :]

    @property
    def q_mm(self):
        return self.values[:, self.n :, self.n :]

    @functools.cached_property
    def sample_norms(self) -> np.ndarray:
        """||Q_k||_F of each stored sample, computed once."""
        return frobenius("trajectory values", self.values, axis=(1, 2))

    def max_norm(self) -> float:
        return float(np.max(self.sample_norms))


def image_inclusion_check(Q, n: int, m: int):
    """Column-space inclusion Im(Q_nm) in Im(Q_nn) for a PSD block matrix.

    residual = ||Q_nn (Q_nn^+ Q_nm) - Q_nm||_F / (1 + ||Q_nm||_F); holds
    iff residual <= 1e-7.  A non-PSD Q violates the hypothesis and raises.
    """
    Q = as_square("Q", Q, dim=n + m)
    Q = 0.5 * (Q + Q.T)
    eig_min = float(np.linalg.eigvalsh(Q)[0])
    if eig_min < -1e-8 * (1.0 + frobenius("Q", Q)):
        raise ValueError(
            f"Q is not PSD (min eigenvalue {eig_min:.3e}); inclusion needs PSD"
        )
    Qnn = Q[:n, :n]
    Qnm = Q[:n, n:]
    R = pinv(Qnn) @ Qnm
    residual = float(np.linalg.norm(Qnn @ R - Qnm) / (1.0 + np.linalg.norm(Qnm)))
    return residual <= 1e-7, residual


def dynamics_residual(traj: MatrixTrajectory, A, B) -> float:
    """Finite-difference defect of the matrix dynamics, relative scale.

    Fourth-order central differences of Q_nn on interior samples against
    (A B) Q (I; 0) + transpose, normalized by (1 + max ||Q||_F).
    """
    A = as_square("A", A, dim=traj.n)
    B = as_matrix("B", B, rows=traj.n, cols=traj.m)
    W = np.hstack([A, B]) @ traj.values[:, :, : traj.n]
    rhs = W + W.transpose(0, 2, 1)
    dq = central_diff4(np.ascontiguousarray(traj.q_nn), traj.grid.h)
    defect = np.linalg.norm(dq - rhs[2:-2], axis=(1, 2))
    return float(np.max(defect) / (1.0 + traj.max_norm()))


@dataclass
class RankSegmentation:
    """Maximal constant-rank index ranges of Q_nn, sharing boundary samples.

    segments are (lo, hi, rank) with lo/hi inclusive sample indices;
    consecutive segments satisfy next.lo == prev.hi.  Isolated single-sample
    rank dips do not form segments; they are the shared boundary samples.
    """

    segments: list
    boundaries: list


def _eigh(S):
    """np.linalg.eigh of a stack of symmetric blocks, in closed form up to 2 x 2.

    Eigenvalues ascending with eigenvectors as columns, as eigh returns
    them.  A 2 x 2 block [[a, b], [b, c]] follows LAPACK's dlaev2: the
    eigenvalue of larger magnitude is (a + c)/2 +- hypot((a - c)/2, b),
    the other is det over it, and one rotation gives both eigenvectors.
    Every intermediate is a half, a hypot or a ratio of entries, so no
    square overflows or underflows.  Larger blocks take the stacked eigh.
    """
    d = S.shape[-1]
    if d == 1:
        return S[..., 0].copy(), np.ones_like(S)
    if d > 2:
        return np.linalg.eigh(S)
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    mid, half = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
    radius = np.hypot(half, b)
    big = mid + np.copysign(radius, mid)
    first = np.abs(a) > np.abs(c)
    safe = np.where(big == 0.0, 1.0, big)
    # det / big, the larger diagonal entry divided first; 0 for the zero block
    small = (np.where(first, a, c) / safe) * np.where(first, c, a) - (b / safe) * b
    lam = np.stack([np.minimum(big, small), np.maximum(big, small)], axis=-1)
    # the top eigenvector is (w, b) when a >= c, else (b, w), with
    # w = |half| + radius >= |b|, 0 only at a multiple of I
    w = np.abs(half) + radius
    b = b / np.where(w == 0.0, 1.0, w)
    w = 1.0 / np.hypot(1.0, b)
    b = b * w
    v1, v2 = np.where(half >= 0.0, w, b), np.where(half >= 0.0, b, w)
    vecs = np.stack([np.stack([-v2, v1], axis=-1), np.stack([v1, v2], axis=-1)], axis=-2)
    return lam, vecs


def _q_nn_spectrum(q_nn):
    """One eigendecomposition of Q_nn, and the eigenvalues that count toward rank.

    Returns (lam, vecs, live) from ``_eigh``: closed forms for n <= 2, one
    stacked eigh beyond.  Eigenvalues of the PSD blocks are their
    singular values; live marks those above SV_CUTOFF times the largest
    along the whole trajectory, so a sample where Q_nn collapses is not
    judged against its own scale.  Per-sample ranks are live.sum(axis=1).
    """
    lam, vecs = _eigh(q_nn)
    top = float(np.max(lam[:, -1], initial=0.0))
    return lam, vecs, lam > SV_CUTOFF * max(top, 0.0)


def rank_segments(traj: MatrixTrajectory) -> RankSegmentation:
    return _segments_of(_q_nn_spectrum(traj.q_nn)[2].sum(axis=1))


def _segments_of(ranks) -> RankSegmentation:
    N = len(ranks) - 1
    starts = np.flatnonzero(np.diff(ranks)) + 1
    # (start, end, rank) maximal constant runs
    runs = list(zip([0, *starts.tolist()], [*(starts - 1).tolist(), N],
                    np.asarray(ranks)[np.r_[0, starts]].tolist()))

    real = [r for r in runs if r[1] > r[0]]
    if not real:
        # no run longer than one sample: degenerate sampling; treat as a
        # single segment at the generic (max) rank
        return RankSegmentation([(0, N, int(ranks.max()))], [])

    segments = []
    boundaries = []
    lo = 0
    for i, (a, b, r) in enumerate(real):
        if i + 1 < len(real):
            nxt_a = real[i + 1][0]
            # boundary: the dip sample when the gap holds one, else the
            # first sample of the next run
            boundary = b + 1 if nxt_a > b + 1 else nxt_a
            segments.append((lo, boundary, r))
            boundaries.append(boundary)
            lo = boundary
        else:
            segments.append((lo, N, r))
    return RankSegmentation(segments, boundaries)


@dataclass
class RankOneDecomposition:
    """n+m sampled component pairs (x_i, u_i) summing to Q as outer products."""

    grid: TimeGrid
    n: int
    m: int
    xs: np.ndarray  # (n+m, steps+1, n)
    us: np.ndarray  # (n+m, steps+1, m)
    zero_x: np.ndarray  # (n+m,) bool: component has x identically zero
    reconstruction_error: float  # max_k ||sum_i z_i z_i' - Q_k||_F
    max_q_norm: float
    ode_residuals: np.ndarray  # (n+m,) max defect away from boundaries; nan if x == 0
    stitch_residuals: list
    segmentation: RankSegmentation
    schur_min_eig: float


def _integrate_segment(traj, F, lo, hi, anchor, X0):
    """Solve X' = F(t)X across samples lo..hi from X0 at the anchor.

    F holds the field at the 2*steps+1 half-grid times of the whole
    trajectory, the stage times of RK4 on its grid.
    """
    times = traj.grid.times()
    n = traj.n
    X = np.empty((hi - lo + 1, n, n))
    X[anchor - lo] = X0
    if hi > anchor:
        X[anchor - lo :] = rk4_linear(
            F[2 * anchor : 2 * hi + 1], None, X0,
            TimeGrid(times[anchor], times[hi], hi - anchor),
        )
    if anchor > lo:
        # in tau = t_anchor - t the field is -F, met in reverse order
        X[: anchor - lo + 1] = rk4_linear(
            -F[2 * lo : 2 * anchor + 1][::-1], None, X0,
            TimeGrid(0.0, times[anchor] - times[lo], anchor - lo),
        )[::-1]
    return X


def _polar(M):
    """Orthogonal polar factor U V' of each block of a stack M = U S V'.

    Closed forms up to 2 x 2, where the SVD's per-block cost dominates.  A
    1 x 1 factor is the sign of M, as the SVD product has it (-1 at -0.0).
    A 2 x 2 factor is (M + cof M)/||.|| (a rotation) when det M >= 0 and
    (M - cof M)/||.|| (a reflection) when det M < 0, ||.|| the hypot that
    makes it orthogonal, from M scaled by its largest entry so that the
    sign of det survives overflow and underflow; the zero matrix gives I,
    as the SVD does.  Larger blocks take the batched SVD.
    """
    n = M.shape[-1]
    if n == 1:
        return np.copysign(1.0, M)
    if n > 2:
        U, _, V = np.linalg.svd(M)
        return U @ V
    top = np.max(np.abs(M), axis=(-2, -1), keepdims=True)
    M = M / np.where(top == 0.0, 1.0, top)
    p, q, r, s = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    flip = np.where(p * s - q * r < 0.0, -1.0, 1.0)
    # M + flip cof M = [[c, t], [-flip t, flip c]]; only M = 0 has c = t = 0
    c, t = np.where(top[..., 0, 0] == 0.0, 1.0, p + flip * s), q - flip * r
    norm = np.hypot(c, t)
    c, t = c / norm, t / norm
    return np.stack([np.stack([c, t], axis=-1), np.stack([-flip * t, flip * c], axis=-1)], axis=-2)


def _gram_correct(X, roots):
    """Snap each X_k onto {X : XX' = Q_nn(k)}, staying close to the path.

    The exact flow preserves XX' = Q_nn; the integrated path drifts off it
    wherever the interpolated R misrepresents the true field (worst near
    rank boundaries, where R is steep and u = R'x amplifies any X error by
    1/sigma_min).  The nearest Gram-consistent matrix to X_k is
    sqrt(Q_nn) Omega with Omega the orthogonal Procrustes factor of
    sqrt(Q_nn) X_k, which pins the reconstruction exactly and leaves all
    remaining approximation visible in the reported ODE residuals.  roots
    holds sqrt(Q_nn(k)) from decompose's one eigendecomposition of Q_nn;
    Omega is the polar factor of ``_polar``, closed form for n <= 2 and one
    batched SVD beyond, which keeps the condition number of sqrt(Q_nn) X_k
    (a polar factor from the eigh of its Gram matrix would square it).
    """
    return roots @ _polar(roots @ X)


class Refutation(ValueError):
    """decompose's input is refuted: ``name`` is the check, ``value`` its number."""

    def __init__(self, message, name, value):
        super().__init__(message)
        self.name, self.value = name, value


def decompose(traj: MatrixTrajectory, A, B) -> RankOneDecomposition:
    """Split a dynamics-satisfying PSD trajectory into rank-one components.

    Raises Refutation when the finite-difference dynamics residual exceeds
    1e-5 (not a solution) or Q_mm >= R'Q_nn R fails by more than 1e-7 (the
    Schur complement has a negative eigenvalue), checked before factoring
    the remainder.  Q_nn and S are factored by ``_eigh`` and each
    segment's Procrustes step by ``_polar``: closed forms for blocks up to
    2 x 2, stacked LAPACK calls beyond.
    """
    A = as_square("A", A, dim=traj.n)
    B = as_matrix("B", B, rows=traj.n, cols=traj.m)
    n, m = traj.n, traj.m
    N = traj.grid.steps

    defect = dynamics_residual(traj, A, B)
    if defect > 1e-5:
        raise Refutation(
            f"trajectory does not satisfy the matrix dynamics: residual {defect:.3e} > 1e-5",
            "dynamics_residual", defect,
        )

    Qnn, Qnm, Qmm = traj.q_nn, traj.q_nm, traj.q_mm
    lam, vecs, live = _q_nn_spectrum(Qnn)
    # stacked products run fastest with each operand's rows contiguous
    vecs_t = np.ascontiguousarray(vecs.transpose(0, 2, 1))
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=live)
    R = vecs @ (inv[:, :, None] * (vecs_t @ Qnm))  # Q_nn^+ Q_nm, (N+1, n, m)
    roots = (vecs * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]) @ vecs_t
    R_t = np.ascontiguousarray(R.transpose(0, 2, 1))
    S = Qmm - R_t @ Qnn @ R
    S = 0.5 * (S + S.transpose(0, 2, 1))
    norms = traj.sample_norms
    if m > 0:
        s_eigs, s_vecs = _eigh(S)
        schur_min = float(np.min(s_eigs[:, 0]))
        if np.min(s_eigs[:, 0] + 1e-7 * (1.0 + norms)) < 0:
            raise Refutation(
                f"Schur residual Q_mm - R'Q_nn R has eigenvalue {schur_min:.3e}; "
                "PSD structure violated",
                "schur_min_eig", schur_min,
            )
    else:
        schur_min = 0.0

    ranks = live.sum(axis=1)
    seg = _segments_of(ranks)
    # X' = (A + B R(t)')X with R linearly interpolated between samples: R on
    # the half grid is R at the samples and their midpoints
    R_half_t = np.empty((2 * N + 1, m, n))
    R_half_t[::2] = R_t
    np.add(R_t[:-1], R_t[1:], out=R_half_t[1::2])
    R_half_t[1::2] *= 0.5
    F = A + B @ R_half_t

    X = np.empty((N + 1, n, n))
    stitch_residuals = []
    prev_boundary_X = None
    for lo, hi, seg_rank in seg.segments:
        idx = lo + int(np.argmax(ranks[lo : hi + 1] == seg_rank))
        Xseg = _integrate_segment(traj, F, lo, hi, idx, roots[idx])
        Xseg = _gram_correct(Xseg, roots[lo : hi + 1])
        if prev_boundary_X is not None:
            # orthogonal Procrustes alignment at the shared sample: the polar
            # factor of X_right(t*)' X_left(t*)
            Xseg = Xseg @ _polar(Xseg[0].T @ prev_boundary_X)
            stitch_residuals.append(float(np.linalg.norm(Xseg[0] - prev_boundary_X)))
            X[lo + 1 : hi + 1] = Xseg[1:]
        else:
            X[lo : hi + 1] = Xseg
        prev_boundary_X = Xseg[-1]

    # components are the columns of Z_k = [X_k, 0; R_k'X_k, factors of S_k]:
    # the integrated columns with u = R'x, then spectral factors of S with x = 0
    Z = np.zeros((N + 1, n + m, n + m))
    Z[:, :n, :n] = X
    if m > 0:
        Z[:, n:, :n] = R_t @ X
        lam = np.clip(s_eigs[:, ::-1], 0.0, None)  # descending
        vec = s_vecs[:, :, ::-1]
        # fix each eigenvector's sign by its largest-magnitude entry
        pick = np.argmax(np.abs(vec), axis=1)
        signs = np.sign(np.take_along_axis(vec, pick[:, None, :], axis=1)[:, 0, :])
        signs[signs == 0.0] = 1.0
        Z[:, n:, n:] = vec * signs[:, None, :] * np.sqrt(lam)[:, None, :]
    xs = Z[:, :n]

    zero_x = np.max(np.abs(xs), axis=(0, 1)) <= 1e-10 * max(float(np.max(np.abs(X))), 1.0)
    recon = Z @ np.ascontiguousarray(Z.transpose(0, 2, 1))
    recon_err = float(np.max(np.linalg.norm(recon - traj.values, axis=(1, 2))))

    keep = np.ones(N + 1, dtype=bool)
    for b in seg.boundaries:
        keep[max(0, b - _BOUNDARY_SKIRT) : b + _BOUNDARY_SKIRT + 1] = False
    dx = central_diff4(xs, traj.grid.h)  # (N-3, n, n+m)
    rhs = (np.hstack([A, B]) @ Z)[2:-2]
    ode_res = np.max(np.linalg.norm(dx - rhs, axis=1)[keep[2:-2]], axis=0, initial=0.0)
    ode_res[zero_x] = np.nan

    return RankOneDecomposition(
        grid=traj.grid,
        n=n,
        m=m,
        xs=xs.transpose(2, 0, 1),
        us=Z[:, n:].transpose(2, 0, 1),
        zero_x=zero_x,
        reconstruction_error=recon_err,
        max_q_norm=traj.max_norm(),
        ode_residuals=ode_res,
        stitch_residuals=stitch_residuals,
        segmentation=seg,
        schur_min_eig=schur_min,
    )


def synthesize_Q(A, B, x_inits, u_signals, grid: TimeGrid) -> MatrixTrajectory:
    """Sum of rank-one outer products of simulated components.

    Each component solves x' = Ax + Bu from its initial condition; inputs
    may be callables t -> R^m (evaluated exactly at the RK4 stage times) or
    arrays sampled on the grid (linearly interpolated).  One batched
    recurrence integrates every component.  The result is PSD by
    construction and carries its own finite-difference dynamics
    certification in ``dynamics_residual``.
    """
    A = as_square("A", A)
    n = A.shape[0]
    B = as_matrix("B", B, rows=n)
    m = B.shape[1]
    if len(x_inits) != len(u_signals):
        raise ValueError("x_inits and u_signals must have equal length")
    if len(x_inits) > n + m:
        raise ValueError(f"at most n+m = {n + m} components, got {len(x_inits)}")

    k = len(x_inits)
    x0 = np.empty((n, k))
    u_stages = np.empty((m, 2 * grid.steps + 1, k))
    for j, (x_init, u) in enumerate(zip(x_inits, u_signals)):
        x0[:, j] = np.asarray(x_init, dtype=float).reshape(n)
        if not callable(u):
            vals = np.asarray(u, dtype=float)
            vals = vals[:, None] if vals.ndim == 1 else vals
            if vals.shape != (grid.steps + 1, m):
                raise ValueError(
                    f"sampled input must have shape ({grid.steps + 1}, {m}), got {vals.shape}"
                )
            u = TrajectoryGrid(grid, vals)
        u_stages[:, :, j] = stage_inputs(u, grid, m)
    return synthesize_from_stages(A, B, x0, u_stages, grid)[1]


def synthesize_from_stages(A, B, x0, u_stages, grid: TimeGrid):
    """synthesize_Q on checked arrays, returning the component states too.

    Column j of x0 (n, k) starts component j, and u_stages (m, 2*steps+1, k)
    holds the inputs at the RK4 stage times, component-major.  Returns the
    states, component-major with shape (n, steps+1, k), and the trajectory.
    """
    n, m = B.shape
    _, count, k = u_stages.shape
    Bu = (B @ u_stages.reshape(m, count * k)).reshape(n, count, k)
    x = rk4_linear(A, Bu, x0, grid).transpose(1, 0, 2)
    Z = np.concatenate([x, u_stages[:, ::2]])  # (n+m, N+1, k)
    values = Z.transpose(1, 0, 2) @ np.ascontiguousarray(Z.transpose(1, 2, 0))

    traj = MatrixTrajectory(grid=grid, values=values, n=n, m=m)
    traj.dynamics_residual = dynamics_residual(traj, A, B)
    return x, traj
