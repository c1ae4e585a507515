"""Positive-systems L1-gain analysis and dissipation-inequality checking.

For x' = Ax + Bu with A Metzler and B >= 0, nonnegative inputs and initial
states give nonnegative states, and the L1 gain sup ||x||_1 / ||u||_1 is
certified by a linear functional: p > 0 with

    p'A + 1' <= 0        and        p'B <= gamma 1'.

The smallest such gamma has the closed form max_j (-1'A^{-1}B)_j, attained
by the minimal certificate p = -A^{-T} 1, which entrywise dominates every
other feasible p.  V(x) = p'x then serves as a linear storage function for
the supply rate w(x, u) = gamma 1'u - 1'x.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .certificates import OrthantProblem, orthant_certificate
from .numerics import TimeGrid, TrajectoryGrid, cumtrapz, rk4_linear, stage_inputs
from .simplex import solve_lp
from .validation import as_matrix, as_square, as_vector

__all__ = [
    "PositiveSystem",
    "GainCertificate",
    "SupplyRate",
    "DissipationReport",
    "is_metzler",
    "is_hurwitz_metzler",
    "exact_l1_gain",
    "l1_certificate",
    "gain_supply_rate",
    "l1_gain_bisection",
    "simulate",
    "simulate_and_check_dissipation",
    "empirical_l1_gain",
]

METZLER_TOL = 1e-12


def is_metzler(A) -> bool:
    """True iff all off-diagonal entries are >= -1e-12."""
    A = as_square("A", A)
    off = A - np.diag(np.diag(A))
    return bool(np.min(off) >= -METZLER_TOL) if A.shape[0] > 1 else True


@dataclass(frozen=True)
class PositiveSystem:
    """x' = Ax + Bu with A Metzler and B entrywise nonnegative; fixed once built."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_square("A", self.A))
        object.__setattr__(self, "B", as_matrix("B", self.B, rows=self.A.shape[0]))
        if not self.A.size:
            raise ValueError("A is 0x0: a positive system needs at least one state")
        if not self.B.size:
            raise ValueError("B has no columns: a positive system needs at least one input")
        if not is_metzler(self.A):
            raise ValueError("A is not Metzler")
        if np.min(self.B) < -METZLER_TOL:
            raise ValueError("B has negative entries")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @functools.cached_property
    def _minimal_p(self) -> np.ndarray:
        # one stability LP and one solve per system, however many routes ask
        if not is_hurwitz_metzler(self.A):
            raise ValueError("A is not Hurwitz; the L1 gain is unbounded")
        return np.linalg.solve(self.A.T, -np.ones(self.n))


@dataclass
class GainCertificate:
    """p > 0 and gamma > 0 with p'A + 1' <= 0 and p'B <= (gamma + tol) 1'."""

    p: np.ndarray
    gamma: float
    slack_state: np.ndarray  # -(p'A + 1')
    slack_input: np.ndarray  # gamma 1' - p'B
    tol: float = 1e-8

    def __post_init__(self):
        self.p = as_vector("p", self.p)
        if np.min(self.p) <= 0:
            raise ValueError("certificate p must be entrywise positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if np.min(self.slack_state) < -1e-8:
            raise ValueError("slack_state below -1e-8")
        if np.min(self.slack_input) < -self.tol:
            raise ValueError(f"slack_input below {-self.tol!r}")


@dataclass
class SupplyRate:
    """Linear supply rate w(x, u) = c_x'x + c_u'u."""

    c_x: np.ndarray
    c_u: np.ndarray

    def __post_init__(self):
        self.c_x = as_vector("c_x", self.c_x)
        self.c_u = as_vector("c_u", self.c_u)

    def along(self, x_samples, u_samples):
        """Evaluate on stacked samples of shape (N+1, n) and (N+1, m)."""
        return np.asarray(x_samples) @ self.c_x + np.asarray(u_samples) @ self.c_u


def is_hurwitz_metzler(A) -> bool:
    """Stability of a Metzler matrix via the strict LP: exists p >= 1, Ap <= -1.

    Cross-checked against the sign of the max real eigenvalue; a
    disagreement beyond tolerance means a defect in one of the routes and
    raises.
    """
    A = as_square("A", A)
    if not is_metzler(A):
        raise ValueError("A is not Metzler")
    n = A.shape[0]
    # p = 1 + q, q >= 0:  A q + s = -1 - A 1
    ones = np.ones(n)
    lp = solve_lp(
        np.zeros(2 * n),
        np.concatenate([A, np.eye(n)], axis=1),
        -ones - A @ ones,
    )
    stable = lp.status == "optimal"
    spectral = float(np.max(np.linalg.eigvals(A).real))
    if stable and spectral > 1e-9:
        raise RuntimeError("LP reports Hurwitz but max Re eig = %.3e" % spectral)
    if not stable and spectral < -1e-9:
        raise RuntimeError("LP reports unstable but max Re eig = %.3e" % spectral)
    return stable


def minimal_certificate_vector(sys: PositiveSystem) -> np.ndarray:
    """p = -A^{-T} 1, the entrywise-minimal feasible certificate; A must be Hurwitz."""
    return sys._minimal_p.copy()


def exact_l1_gain(sys: PositiveSystem) -> float:
    """Closed-form tight gain: max over columns of -1'A^{-1}B."""
    return float(np.max(sys.B.T @ minimal_certificate_vector(sys)))


def _gain_orthant_problem(sys: PositiveSystem, gamma: float) -> OrthantProblem:
    """The conic program behind the gain bound, over z = (x, u) >= 0.

    L(x, u) = Ax + Bu and m = (-1_n, gamma 1_m): a feasible p turns
    p'L(z) <= m'z into exactly the two slack inequalities of Prop-style
    gain certification.
    """
    L = np.concatenate([sys.A, sys.B], axis=1)
    m = np.concatenate([-np.ones(sys.n), gamma * np.ones(sys.m)])
    return OrthantProblem(L, m)


def _gain_lp_feasible(sys: PositiveSystem, gamma: float) -> bool:
    """LP route to the gain decision.  A probe within FEAS_TOL of the gain can
    pass phase 1 with a vertex that fails its slack check; orthant_certificate
    then returns None, and the probe counts as infeasible.
    """
    return orthant_certificate(_gain_orthant_problem(sys, gamma)) is not None


def l1_certificate(sys: PositiveSystem, gamma: float, tol: float = 1e-8) -> GainCertificate | None:
    """Gain certificate at level gamma, or None when gamma is below the gain.

    Decision rule: feasible iff gamma >= exact_l1_gain - tol.  The LP
    route over the orthant problem is run as well; the two routes
    disagreeing farther than tol or 1e-6 (1 + gain) from the gain is a
    defect and raises.  The returned p is the closed-form minimal
    certificate, not an arbitrary LP vertex, so outputs are deterministic.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    p = minimal_certificate_vector(sys)
    gain = float(np.max(sys.B.T @ p))
    lp_feasible = _gain_lp_feasible(sys, gamma)
    # the same difference as the certificate's smallest input slack
    feasible = gamma - gain >= -tol
    if lp_feasible != feasible and abs(gamma - gain) > max(tol, 1e-6 * (1.0 + gain)):
        raise RuntimeError(
            f"LP and closed-form gain decisions disagree at gamma={gamma!r} "
            f"(closed-form gain {gain!r})"
        )
    if not feasible:
        return None
    slack_state = -(sys.A.T @ p + np.ones(sys.n))
    slack_input = gamma * np.ones(sys.m) - sys.B.T @ p
    return GainCertificate(p=p, gamma=float(gamma), slack_state=slack_state,
                           slack_input=slack_input, tol=max(tol, 1e-8))


def gain_supply_rate(sys: PositiveSystem, gamma: float) -> SupplyRate:
    """w(x, u) = gamma 1'u - 1'x, the supply rate certified by the gain bound."""
    return SupplyRate(c_x=-np.ones(sys.n), c_u=gamma * np.ones(sys.m))


def l1_gain_bisection(sys: PositiveSystem) -> float:
    """Smallest certifiable gamma by bisection on LP feasibility alone, to 1e-7 relative.

    Deliberately ignores the closed form so it can serve as an independent
    route for cross-checking exact_l1_gain.  A zero gain (B = 0) meets no
    infeasible probe; the search ends when the probe underflows, after 1,075 LPs.
    """
    hi = 1.0
    for _ in range(60):
        if _gain_lp_feasible(sys, hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("no feasible gamma found up to 2^60")
    lo = 0.0  # gamma must stay positive; lo is exclusive
    while hi - lo > 1e-7 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if _gain_lp_feasible(sys, mid):
            hi = mid
        else:
            lo = mid
    return hi


def simulate(sys: PositiveSystem, u, x0, grid: TimeGrid) -> TrajectoryGrid:
    """Integrate x' = Ax + Bu from x0 on the grid with ``rk4_linear``.

    u is a callable t -> R^m or a TrajectoryGrid of samples (see ``stage_inputs``).
    """
    x0 = as_vector("x0", x0, length=sys.n)
    return TrajectoryGrid(grid, rk4_linear(sys.A, sys.B @ stage_inputs(u, grid, sys.m), x0, grid))


def _nonnegative_input(u_samples: TrajectoryGrid) -> np.ndarray:
    """The sampled input as rows of shape (samples, m), checked nonnegative."""
    u_vals = np.asarray(u_samples.values, float)
    if u_vals.ndim == 1:
        u_vals = u_vals[:, None]
    if np.min(u_vals) < -METZLER_TOL:
        raise ValueError("input samples must be nonnegative")
    return u_vals


@dataclass
class DissipationReport:
    """Outcome of checking V(x(t)) - V(x(s)) <= int_s^t w over all windows."""

    holds: bool
    margins: np.ndarray  # per-cell: int_cell w - (V_next - V_prev)
    supply_integral: float
    storage_delta: float
    quad_tol: float
    worst_window: float  # max over sample windows of V-change minus supply
    state_min: float
    states: TrajectoryGrid = field(repr=False, default=None)


def simulate_and_check_dissipation(
    sys: PositiveSystem,
    supply: SupplyRate,
    p,
    u_samples: TrajectoryGrid,
    x0,
) -> DissipationReport:
    """Simulate and verify the dissipation inequality for V(x) = p'x.

    Positivity of the state is enforced (min over samples >= -1e-8); the
    inequality is checked on every window [t_j, t_k] of the sample grid via
    the running minimum of D_k = V(x_k) - cumulative supply, against
    quad_tol = 1e-4 * (1 + |int w|).
    """
    p = as_vector("p", p, length=sys.n)
    u_vals = _nonnegative_input(u_samples)
    x0 = as_vector("x0", x0, length=sys.n)
    if np.min(x0) < -METZLER_TOL:
        raise ValueError("x0 must be nonnegative")

    grid = u_samples.grid
    states = simulate(sys, u_samples, x0, grid)
    x = states.values
    state_min = float(np.min(x))
    if state_min < -1e-8:
        raise ValueError(
            f"state went negative ({state_min:.3e}); input data violate positivity"
        )

    w = supply.along(x, u_vals)
    h = grid.h
    W = float(np.trapezoid(w, dx=h))
    quad_tol = 1e-4 * (1.0 + abs(W))
    V = x @ p
    cells = 0.5 * h * (w[1:] + w[:-1])
    margins = cells - np.diff(V)
    D = V - cumtrapz(w, h)
    worst = float(np.max(D - np.minimum.accumulate(D)))
    return DissipationReport(
        holds=bool(worst <= quad_tol),
        margins=margins,
        supply_integral=W,
        storage_delta=float(V[-1] - V[0]),
        quad_tol=quad_tol,
        worst_window=worst,
        state_min=state_min,
        states=states,
    )


def empirical_l1_gain(sys: PositiveSystem, u_samples: TrajectoryGrid, x0=None) -> float:
    """||x||_1 / ||u||_1 on the simulation window by trapezoid quadrature.

    A lower bound on the true gain up to truncation of the tail; never a
    certificate.  Returns 0 for zero input.
    """
    if x0 is None:
        x0 = np.zeros(sys.n)
    u_vals = _nonnegative_input(u_samples)
    grid = u_samples.grid
    states = simulate(sys, u_samples, x0, grid)
    # for nonnegative signals the L1 norm is the integral of the coordinate sum
    num = float(np.trapezoid(states.values.sum(axis=1), dx=grid.h))
    den = float(np.trapezoid(u_vals.sum(axis=1), dx=grid.h))
    if den == 0.0:
        return 0.0
    return num / den
