"""Dense linear-algebra and integration primitives used by every other module.

Conventions
-----------
* Rank decisions everywhere use one global relative singular-value cutoff,
  ``SV_CUTOFF`` (1e-10).
* ODE integration is fixed-step classical RK4 on a uniform ``TimeGrid``.
  Every simulation of a linear field x' = F(t)x + g(t) runs through
  ``rk4_linear``, which writes the RK4 step as the affine recurrence
  x_{k+1} = T_k x_k + c_k, builds all T_k and c_k at once from F and g at
  the stage times, and solves the recurrence in ceil(log2(steps + 1))
  products by recursive doubling when F is constant, or by a work-efficient
  scan of about 2 x steps stacked products when it varies; no loop runs per
  step unless the state leaves the floating-point range.  States and
  forcing are held component-major, shape (n, samples, batch), so the long
  axis (time x batch) is innermost: with a constant F each product is one
  (n, n) @ (n, samples * batch) matrix product; it returns the states as a
  plain time-major ndarray.  ``stage_inputs`` samples an input at the stage
  times, component-major like the forcing.  ``ode_solve`` is the
  generic integrator for any field f(t, x), the reference the kernel is
  tested against, and the one estimate of the accumulated error (by step
  halving); it shares no code with the kernel.
* No complex arithmetic here; frequency-domain code builds complex values
  from real solves in the kyp module.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .validation import as_square, require_finite

__all__ = [
    "SV_CUTOFF",
    "TimeGrid",
    "TrajectoryGrid",
    "pinv",
    "matrix_rank",
    "expm",
    "ode_solve",
    "rk4_linear",
    "stage_inputs",
    "interpolate_samples",
    "cumtrapz",
    "central_diff4",
]

# Singular values below SV_CUTOFF * sigma_max count as zero, package-wide.
SV_CUTOFF = 1e-10
# coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and theta_13
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [t0, t1] with samples at t0 + k*(t1-t0)/steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError("grid endpoints must be finite")
        if not self.t1 > self.t0:
            raise ValueError("grid requires t1 > t0")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.steps + 1)


@dataclass
class TrajectoryGrid:
    """Samples of a time-dependent quantity on a TimeGrid.

    ``values`` has shape (steps+1, ...): one leading entry per grid sample.
    ``local_error`` is the step-halving estimate of ode_solve, when asked for.
    """

    grid: TimeGrid
    values: np.ndarray
    local_error: float | None = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"values must have {self.grid.steps + 1} samples, "
                f"got {self.values.shape[0]}"
            )
        require_finite("trajectory values", self.values)


def pinv(M):
    """Moore-Penrose pseudoinverse; singular values < SV_CUTOFF*sigma_max are zero."""
    M = np.asarray(M, dtype=float)
    require_finite("M", M)
    return np.linalg.pinv(M, rcond=SV_CUTOFF)


def matrix_rank(M):
    """Numerical rank: count of singular values above SV_CUTOFF * sigma_max."""
    M = np.asarray(M, dtype=float)
    require_finite("M", M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > SV_CUTOFF * s[0]))


def expm(M):
    """Matrix exponential: the [13/13] Pade approximant, scaling and squaring.

    M is scaled by 2^-s, the least s >= 0 that brings its 1-norm below
    theta_13 = 5.37, where that approximant is accurate to unit roundoff
    (Higham 2005), and the approximant's value is squared s times.
    """
    M = as_square("M", M)
    s = max(0, math.frexp(np.linalg.norm(M, 1) / _THETA13)[1])
    A = np.ldexp(M, -s)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    b, eye = _PADE13, np.eye(M.shape[0])
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _rk4_path(f, x0, t0, h, steps):
    x = np.asarray(x0, dtype=float)
    out = np.empty((steps + 1,) + x.shape)
    out[0] = x
    t = t0
    for k in range(steps):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + (0.5 * h) * k1)
        k3 = f(t + 0.5 * h, x + (0.5 * h) * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"non-finite state encountered at t = {t + h:.6g}")
        t = t0 + (k + 1) * h
        out[k + 1] = x
    return out


def ode_solve(f, x0, grid: TimeGrid, error_estimate=True) -> TrajectoryGrid:
    """Integrate x' = f(t, x) with classical fixed-step RK4 on the grid.

    The generic integrator: f is called at every stage of every step, so it
    serves any field, including nonlinear ones.  Linear fields run faster
    through ``rk4_linear``, which is the same method and step and is tested
    against this function.

    f may return any fixed array shape (vector or matrix states).  When
    ``error_estimate`` is set, the integration is repeated at half the step
    and the max-norm deviation at shared samples is reported as
    ``local_error``.
    """
    x0 = np.asarray(x0, dtype=float)
    require_finite("x0", x0)
    path = _rk4_path(f, x0, grid.t0, grid.h, grid.steps)
    err = None
    if error_estimate:
        fine = _rk4_path(f, x0, grid.t0, 0.5 * grid.h, 2 * grid.steps)
        err = float(np.max(np.abs(path - fine[::2])))
    return TrajectoryGrid(grid, path, local_error=err)


def rk4_linear(F, g, x0, grid: TimeGrid) -> np.ndarray:
    """Integrate x' = F(t)x + g(t) with classical fixed-step RK4 on the grid.

    On a linear field one RK4 step is affine in the state,
    x_{k+1} = T_k x_k + c_k, with T_k and c_k fixed by F and g at the stage
    times t_k, t_k + h/2 and t_k + h.  These are built for all steps at once
    by stacked products, and the recurrence is solved with no per-step
    loop: by recursive doubling in ceil(log2(steps + 1)) products for a
    constant F, by a work-efficient scan of about 2 x steps stacked
    products for a time-varying one (see ``_doubling``).  States are held
    component-major, shape (n, steps+1, k), so with a constant F each
    product is one (n, n) @ (n, (steps+1) k) matrix product over the long
    axis.  The result is that of ode_solve up to the order of
    floating-point operations.

    A product over many steps can overflow where the stepped state stays
    finite (inf * 0 = nan), so a result that is not well inside the
    floating-point range is recomputed step by step.  That recurrence is the
    reference: it returns the finite path or raises at the first non-finite
    sample.

    ``F`` is an (n, n) matrix, or its values at the 2*steps+1 half-grid
    times t0 + j*h/2 with shape (2*steps+1, n, n).  ``x0`` has shape (n,)
    or (n, k); the k columns of a batch share F.  ``g`` is None or its
    values at the same times, component-major: shape (n, 2*steps+1), or
    (n, 2*steps+1, k) for a batch.  Returns the states, time-major with
    shape (steps+1,) + x0.shape, every entry finite.
    """
    x0 = np.asarray(x0, dtype=float)
    require_finite("x0", x0)
    if x0.ndim not in (1, 2):
        raise ValueError(f"x0 must have shape (n,) or (n, k), got {x0.shape}")
    n, N, h = x0.shape[0], grid.steps, grid.h
    F = np.asarray(F, dtype=float)
    if F.shape not in ((n, n), (2 * N + 1, n, n)):
        raise ValueError(
            f"F must have shape ({n}, {n}) or ({2 * N + 1}, {n}, {n}), got {F.shape}"
        )
    if F.ndim == 2:
        F0 = Fm = F1 = F
    else:
        F0, Fm, F1 = F[0:-1:2], F[1::2], F[2::2]
    # stage slopes k_i = K_i x + d_i, with k1 = F0 x + g0
    K2 = Fm + (0.5 * h) * (Fm @ F0)
    K3 = Fm + (0.5 * h) * (Fm @ K2)
    K4 = F1 + h * (F1 @ K3)
    T = np.eye(n) + (h / 6.0) * (F0 + 2.0 * K2 + 2.0 * K3 + K4)
    x = x0 if x0.ndim == 2 else x0[:, None]
    if g is not None:
        g = np.asarray(g, dtype=float)
        want = (n, 2 * N + 1) + x0.shape[1:]
        if g.shape != want:
            raise ValueError(f"g must have shape {want}, got {g.shape}")
        g = g if g.ndim == 3 else g[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        s = _doubling(T, _step_states(x, g, Fm, F1, h, N), g is None)
        if not (s.max(initial=0.0) < _SCAN_LIMIT and s.min(initial=0.0) > -_SCAN_LIMIT):
            # a diverging state is reported once below, not tested every step
            s = _step_states(x, g, Fm, F1, h, N)
            for k, Tk in enumerate(T if T.ndim == 3 else itertools.repeat(T, N)):
                s[:, k + 1] += Tk @ s[:, k]
            finite = np.isfinite(s).all(axis=(0, 2))
            if not finite.all():
                k = int(np.argmin(finite))
                raise ValueError(
                    f"non-finite state encountered at t = {grid.t0 + k * h:.6g}"
                )
    return s.transpose(1, 0, 2).reshape((N + 1,) + x0.shape)


def _step_states(x, g, Fm, F1, h, N):
    """Component-major states: s[:, 0] = x0 and s[:, k+1] = c_k, shape (n, steps+1, k).

    c_k is the forcing term of the RK4 step, zero when g is None.  It is
    built in place, so that no more than three arrays of its size are held.
    """
    s = np.zeros((x.shape[0], N + 1, x.shape[1]))
    s[:, 0] = x
    if g is not None:
        # forcing parts of the stage slopes k_i = K_i x + d_i
        g0, gm, g1 = g[:, 0:-1:2], g[:, 1::2], g[:, 2::2]
        d2 = _stage_product(Fm, g0)
        d2 *= 0.5 * h
        d2 += gm
        d3 = _stage_product(Fm, d2)
        d3 *= 0.5 * h
        d3 += gm
        d4 = _stage_product(F1, d3)
        d4 *= h
        d4 += g1
        # c = (h/6)(g0 + 2 d2 + 2 d3 + d4), summed in that order
        d2 *= 2.0
        d2 += g0
        d3 *= 2.0
        d2 += d3
        d2 += d4
        np.multiply(d2, h / 6.0, out=s[:, 1:])
    return s


def _stage_product(F, x):
    """F_j @ x[:, j] for component-major x of shape (n, L, k).

    One (n, n) @ (n, L k) product when F is one matrix; a stacked product
    over the L matrices of F otherwise.
    """
    if F.ndim == 3:
        return np.matmul(F, x.transpose(1, 0, 2)).transpose(1, 0, 2)
    n, L, k = x.shape
    return (F @ x.reshape(n, L * k)).reshape(n, L, k)


# a doubling result beyond this magnitude is recomputed step by step, so that
# where the result is finite is decided by the stepped recurrence alone
_SCAN_LIMIT = 1e300


def _doubling(T, s, homogeneous):
    """Solve s[:, k+1] <- T_k s[:, k] + s[:, k+1] for all k.

    s holds states component-major, shape (n, count, k); T is one matrix
    or the count - 1 step maps.  A constant T is solved by recursive
    doubling: at level d (1, 2, 4, ...), state j already sums the last d
    steps into it, and adding T^d applied to state j - d doubles that
    window, so after ceil(log2(count)) levels, each one (n, n) @
    (n, count k) product, every state reaches s[:, 0] (Kogge and Stone
    1973).  When ``homogeneous`` (s[:, 1:] = 0), states past 2d are still
    zero at level d and are skipped.  A time-varying T goes to ``_scan``.
    """
    if T.ndim == 3:
        return _scan(T, s, homogeneous)
    count = s.shape[1]
    d = 1
    while d < count:
        hi = min(2 * d, count) if homogeneous else count
        s[:, d:hi] += _stage_product(T, s[:, : hi - d])
        T = T @ T
        d *= 2
    return s


def _scan(T, s, homogeneous):
    """``_doubling`` for time-varying T: a work-efficient scan over the step maps.

    Element j is the affine map x -> P_j x + s[:, j], with P_j = T_{j-1}
    and P_0 = I, and state j is the offset of the composition of elements
    j, ..., 0.  The up-sweep composes adjacent blocks pairwise, so that
    element j comes to hold the block of the last 2^i elements, 2^i the
    largest power of two dividing j + 1; the down-sweep then composes each
    block with the full prefix that ends just before it (Brent and Kung
    1982; Blelloch 1990).  That is about 2 count stacked products, where
    doubling every prefix takes count log2(count).  When ``homogeneous``,
    the offsets stay zero but for s[:, 0]: the scan runs on the maps alone,
    whose prefixes P_j ... P_0 then take s[:, 0] in one product.
    """
    n, count, k = s.shape
    P = np.concatenate([np.eye(n)[None], T])
    x = None if homogeneous else np.ascontiguousarray(s.transpose(1, 0, 2))
    d = 1
    while 2 * d <= count:
        right, left = slice(2 * d - 1, count, 2 * d), slice(d - 1, count - d, 2 * d)
        if x is not None:
            x[right] += P[right] @ x[left]
        P[right] = P[right] @ P[left]
        d *= 2
    while d > 1:
        d //= 2
        right, left = slice(3 * d - 1, count, 2 * d), slice(2 * d - 1, count - d, 2 * d)
        if x is None:
            P[right] = P[right] @ P[left]
        else:
            x[right] += P[right] @ x[left]
    if x is None:
        x = (P.reshape(count * n, n) @ s[:, 0]).reshape(count, n, k)
    return x.transpose(1, 0, 2)


def cumtrapz(values, h):
    """Running trapezoid integral; entry k is the integral up to sample k."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    np.cumsum(0.5 * h * (v[1:] + v[:-1]), out=out[1:])
    return out


def interpolate_samples(grid: TimeGrid, values, times):
    """Linear interpolant through samples on a TimeGrid, evaluated at times.

    values has shape (steps+1, ...); times has any shape.  Times before t0
    take the first sample and times after t1 the last.  Returns an array of
    shape times.shape + values.shape[1:].
    """
    v = np.asarray(values, dtype=float)
    if v.shape[0] != grid.steps + 1:
        raise ValueError("values do not match the grid")
    s = (np.asarray(times, dtype=float) - grid.t0) / grid.h
    k = np.floor(s)
    frac = np.where(k < 0, 0.0, np.where(k >= grid.steps, 1.0, s - k))
    k = np.clip(k, 0, grid.steps - 1).astype(int)
    frac = frac.reshape(frac.shape + (1,) * (v.ndim - 1))
    return (1.0 - frac) * v[k] + frac * v[k + 1]


def stage_inputs(u, grid: TimeGrid, m):
    """An input's values at the RK4 stage times t0 + j*h/2, shape (m, 2*steps+1).

    The values are component-major, as ``rk4_linear`` takes its forcing.  A
    callable u is called once per stage time; a TrajectoryGrid of samples
    is linearly interpolated on its own grid (see ``interpolate_samples``).
    """
    times = TimeGrid(grid.t0, grid.t1, 2 * grid.steps).times()
    if isinstance(u, TrajectoryGrid):
        vals = u.values.reshape(u.values.shape[0], -1)
        if vals.shape[1] != m:
            raise ValueError("input samples do not match the input dimension")
        return interpolate_samples(u.grid, vals, times).T
    return np.stack([np.asarray(u(t), dtype=float).reshape(m) for t in times], axis=1)


def central_diff4(values, h):
    """Fourth-order central differences of a sampled path.

    values has shape (N+1, ...); returns derivatives at the interior samples
    2..N-2 (shape (N-3, ...)).  Needs N >= 4.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 5:
        raise ValueError("need at least 5 samples for the 5-point stencil")
    return (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
