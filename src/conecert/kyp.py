"""Non-strict KYP conditions as four independent checkers.

The linear-matrix-inequality route synthesizes a certificate through the
PSD conic machinery; the frequency-domain, pointwise, and integral routes
check the same property by entirely separate computations so the harness
can cross-validate them against each other.
"""

import dataclasses
import logging

import numpy as np

from .certificates import PsdProblem, psd_certificate
from .numerics import TimeGrid, rk4_linear
from .steering import controllability_rank
from .validation import as_matrix, as_square, as_symmetric, as_vector

log = logging.getLogger("conecert.kyp")

FORM_TOL = 1e-7
LMI_TOL = 1e-6
# RK4 steps per unit of IQC horizon, and the most steps one sampler run may
# take: 2**17 steps is a 1024 s horizon
IQC_STEPS_PER_UNIT = 128
IQC_MAX_STEPS = 2**17
# trials share one recurrence while a batch's stage values of x and u stay
# under this count (32 MB each), which bounds the sampler's memory near the
# step budget
IQC_BATCH_VALUES = 2**22


@dataclasses.dataclass
class KypInstance:
    """System pair (A, B) with a symmetric quadratic supply matrix M on (x, u)."""

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    controllable: bool = dataclasses.field(init=False)
    rank: int = dataclasses.field(init=False)

    def __post_init__(self):
        self.A = as_square("A", self.A)
        n = self.A.shape[0]
        self.B = as_matrix("B", self.B, rows=n)
        self.M = as_symmetric("M", self.M, dim=n + self.B.shape[1])
        self.controllable, self.rank = controllability_rank(self.A, self.B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


def imaginary_axis_frequencies(A, tol=1e-8):
    """|Im lambda| for every eigenvalue of A within tol of the imaginary axis."""
    eig = np.linalg.eigvals(as_square("A", A))
    on_axis = np.abs(eig.real) <= tol
    return np.sort(np.abs(eig[on_axis].imag))


@dataclasses.dataclass(frozen=True)
class FrequencyGrid:
    """Ascending real frequencies, none within 1e-8 of an eigenfrequency of A."""

    omegas: np.ndarray

    def __post_init__(self):
        om = as_vector("omegas", self.omegas)
        if om.size and np.any(np.diff(om) <= 0):
            raise ValueError("frequencies must be strictly ascending")
        object.__setattr__(self, "omegas", om)


def default_grid(A, points=200, tol=1e-8) -> FrequencyGrid:
    """Log-spaced grid over [1e-3, 1e3]*(1+||A||) plus 0, minus eigenfrequencies."""
    A = as_square("A", A)
    scale = 1.0 + float(np.linalg.norm(A, 2))
    omegas = np.concatenate([[0.0], np.logspace(-3.0, 3.0, points) * scale])
    excluded = imaginary_axis_frequencies(A, tol)
    if excluded.size:
        keep = np.all(np.abs(omegas[:, None] - excluded[None, :]) >= tol, axis=1)
        omegas = omegas[keep]
    return FrequencyGrid(np.unique(omegas))


@dataclasses.dataclass
class LmiResult:
    """Outcome of the matrix-inequality route."""

    status: str  # "feasible" | "infeasible" | "undecided"
    P: np.ndarray | None
    max_violation: float
    witness: np.ndarray | None
    iterations: int


def kyp_lmi(inst: KypInstance, seed=0) -> LmiResult:
    """Search for symmetric P with M + (A B)'P(I 0) + (I 0)'P(A B) <= 0."""
    n, m = inst.n, inst.m
    U = np.hstack([inst.A, inst.B])
    V = np.hstack([np.eye(n), np.zeros((n, m))])
    res = psd_certificate(PsdProblem(U=U, V=V, C=-inst.M), seed=seed)
    if res.status == "feasible":
        P = res.certificate.p
        slack = inst.M + U.T @ P @ V + V.T @ P @ U
        return LmiResult(
            status="feasible",
            P=P,
            max_violation=float(np.linalg.eigvalsh(slack)[-1]),
            witness=None,
            iterations=res.iterations,
        )
    if res.status == "infeasible":
        return LmiResult(
            status="infeasible",
            P=None,
            max_violation=float(-res.witness.objective),
            witness=res.witness.z0,
            iterations=res.iterations,
        )
    return LmiResult(
        status="undecided",
        P=None,
        max_violation=float(res.residual),
        witness=None,
        iterations=res.iterations,
    )


def _augmented_transfer(inst, omega):
    """Real and imaginary parts of (i*omega*I - A)^(-1) B via one real block solve."""
    n, m = inst.n, inst.m
    K = np.block(
        [[-inst.A, -omega * np.eye(n)], [omega * np.eye(n), -inst.A]]
    )
    rhs = np.vstack([inst.B, np.zeros((n, m))])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular transfer solve at omega = {omega!r}; "
            "the grid contains an eigenfrequency of A"
        ) from exc
    resid = float(np.linalg.norm(K @ sol - rhs))
    if not np.isfinite(resid) or resid > 1e-6 * (1.0 + float(np.linalg.norm(rhs))):
        raise ValueError(
            f"ill-conditioned transfer solve at omega = {omega!r} "
            f"(residual {resid:.3e}); the grid violates the eigenfrequency exclusion"
        )
    return sol[:n], sol[n:]


def _hermitian_eigmax(F, G):
    """Largest eigenvalue of the Hermitian matrix F + iG via its real embedding."""
    emb = np.block([[F, -G], [G, F]])
    return float(np.linalg.eigvalsh(0.5 * (emb + emb.T))[-1]), emb


@dataclasses.dataclass
class FrequencyReport:
    holds: bool
    worst_omega: float
    worst_value: float
    omegas: np.ndarray
    values: np.ndarray
    limit_value: float


def frequency_condition(
    inst: KypInstance, grid: FrequencyGrid | None = None, tol: float = FORM_TOL
) -> FrequencyReport:
    """Check ((i*omega*I - A)^(-1)B; I)* M (...) <= 0 on the grid and at the limit.

    Each frequency costs one real 2n x 2n solve; the m x m Hermitian form is
    assembled in real arithmetic and its top eigenvalue read off the 2m x 2m
    symmetric embedding.  The omega -> infinity limit reduces to the
    lower-right block of M.
    """
    if grid is None:
        grid = default_grid(inst.A)
    n, m = inst.n, inst.m
    M = inst.M
    Im = np.eye(m)
    Zm = np.zeros((m, m))
    values = np.empty(grid.omegas.size)
    for k, omega in enumerate(grid.omegas):
        X, Y = _augmented_transfer(inst, omega)
        Hr = np.vstack([X, Im])
        Hi = np.vstack([Y, Zm])
        F = Hr.T @ M @ Hr + Hi.T @ M @ Hi
        G = Hr.T @ M @ Hi - Hi.T @ M @ Hr
        values[k], _ = _hermitian_eigmax(F, G)
    limit_value = float(np.linalg.eigvalsh(inst.M[n:, n:])[-1]) if m else -np.inf
    if values.size and float(np.max(values)) >= limit_value:
        worst_idx = int(np.argmax(values))
        worst_omega = float(grid.omegas[worst_idx])
        worst_value = float(values[worst_idx])
    else:
        worst_omega, worst_value = np.inf, limit_value
    holds = worst_value <= tol
    return FrequencyReport(
        holds=holds,
        worst_omega=worst_omega,
        worst_value=worst_value,
        omegas=grid.omegas,
        values=values,
        limit_value=limit_value,
    )


@dataclasses.dataclass
class PointwiseWitness:
    """Frequency and complex input direction where the quadratic form is positive."""

    omega: float
    value: float
    u_real: np.ndarray
    u_imag: np.ndarray
    x_real: np.ndarray
    x_imag: np.ndarray


@dataclasses.dataclass
class PointwiseReport:
    holds: bool
    worst_omega: float
    worst_value: float
    witness: PointwiseWitness | None
    canonical_values: np.ndarray


def pointwise_condition(
    inst: KypInstance, grid: FrequencyGrid | None = None, tol: float = FORM_TOL
) -> PointwiseReport:
    """Check the quadratic form on (x, u) with i*omega*x = Ax + Bu, per frequency.

    Independent route from frequency_condition: each canonical input column
    is solved for separately and the Hermitian form is assembled pairwise
    from those solutions; the x = 0 branch is the lower-right block of M.
    """
    if grid is None:
        grid = default_grid(inst.A)
    n, m = inst.n, inst.m
    M = inst.M
    worst_omega, worst_value = np.inf, -np.inf
    worst_kind, worst_emb = "none", None
    canon = np.full((grid.omegas.size, max(m, 1)), -np.inf)
    for k, omega in enumerate(grid.omegas):
        K = np.block(
            [[-inst.A, -omega * np.eye(n)], [omega * np.eye(n), -inst.A]]
        )
        a = np.zeros((m, n + m))
        b = np.zeros((m, n + m))
        for j in range(m):
            rhs = np.concatenate([inst.B[:, j], np.zeros(n)])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError as exc:
                raise ValueError(
                    f"singular pointwise solve at omega = {omega!r}"
                ) from exc
            a[j, :n] = sol[:n]
            a[j, n + j] = 1.0
            b[j, :n] = sol[n:]
            canon[k, j] = float(a[j] @ M @ a[j] + b[j] @ M @ b[j])
        F = a @ M @ a.T + b @ M @ b.T
        G = a @ M @ b.T - b @ M @ a.T
        value, emb = _hermitian_eigmax(F, 0.5 * (G - G.T))
        if value > worst_value:
            worst_omega, worst_value = float(omega), value
            worst_kind, worst_emb = "grid", (emb, a, b)
    if m:
        lam, vec = np.linalg.eigh(inst.M[n:, n:])
        if float(lam[-1]) > worst_value:
            worst_omega, worst_value = np.inf, float(lam[-1])
            worst_kind, worst_emb = "limit", vec[:, -1]
    holds = worst_value <= tol
    witness = None
    if not holds and worst_kind == "limit":
        witness = PointwiseWitness(
            omega=np.inf,
            value=worst_value,
            u_real=worst_emb,
            u_imag=np.zeros(m),
            x_real=np.zeros(n),
            x_imag=np.zeros(n),
        )
    elif not holds and worst_kind == "grid":
        emb, a, b = worst_emb
        w = np.linalg.eigh(0.5 * (emb + emb.T))[1][:, -1]
        cr, ci = w[:m], w[m:]
        # z = sum_j (cr_j + i ci_j) (a_j + i b_j)
        zr = cr @ a - ci @ b
        zi = cr @ b + ci @ a
        witness = PointwiseWitness(
            omega=worst_omega,
            value=worst_value,
            u_real=zr[n:],
            u_imag=zi[n:],
            x_real=zr[:n],
            x_imag=zi[:n],
        )
    return PointwiseReport(
        holds=holds,
        worst_omega=worst_omega,
        worst_value=worst_value,
        witness=witness,
        canonical_values=canon,
    )


def _decay_rate(A):
    return -float(np.max(np.real(np.linalg.eigvals(A))))


@dataclasses.dataclass
class IqcSample:
    integral: float
    energy: float
    tail_norm: float


def _iqc_samples(inst: KypInstance, u_stages, grid: TimeGrid) -> list:
    """IQC samples of a batch of inputs given at the RK4 stage times.

    u_stages has shape (2*steps+1, m, trials): the inputs at t0 + j*h/2.
    Every trial starts from x(0) = 0; one recurrence runs them all, and
    each must have decayed at the horizon.
    """
    x0 = np.zeros((inst.n, u_stages.shape[2]))
    path = rk4_linear(inst.A, inst.B @ u_stages, x0, grid).values
    tails = np.linalg.norm(path[-1], axis=0)
    unsettled = tails > 1e-6
    if np.any(unsettled):
        tail = float(tails[np.argmax(unsettled)])
        raise ValueError(
            f"state norm {tail:.3e} at the horizon exceeds 1e-6; "
            "lengthen the horizon so the trajectory has decayed"
        )
    u_samples = u_stages[::2]
    Z = np.concatenate([path, u_samples], axis=1)
    w = np.einsum("kit,ij,kjt->kt", Z, inst.M, Z)
    integrals = np.trapezoid(w, dx=grid.h, axis=0)
    energies = np.trapezoid(np.einsum("kit,kit->kt", u_samples, u_samples), dx=grid.h, axis=0)
    return [
        IqcSample(integral=float(i), energy=float(e), tail_norm=float(t))
        for i, e, t in zip(integrals, energies, tails)
    ]


def iqc_integral(inst: KypInstance, u, horizon, steps=4096) -> IqcSample:
    """Integral of (x, u)'M(x, u) along x' = Ax + Bu, x(0) = 0, by trapezoid.

    u is called once at each RK4 stage time.  Requires the state to have
    decayed at the horizon (tail norm <= 1e-6); otherwise the finite
    integral does not represent the whole-line value.
    """
    grid = TimeGrid(0.0, float(horizon), steps)
    times = TimeGrid(0.0, float(horizon), 2 * steps).times()
    u_stages = np.stack([np.atleast_1d(np.asarray(u(t), dtype=float)) for t in times])
    return _iqc_samples(inst, u_stages[:, :, None], grid)[0]


def _ramped_input(rng, m, active):
    """Smooth random input supported on (0, active), vectorized over time.

    The returned u maps times of any shape to values of shape t.shape + (m,).
    """
    freqs = rng.uniform(0.2, 2.0, size=3)
    amps = rng.normal(size=(m, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, 3))

    def u(t):
        t = np.asarray(t, dtype=float)[..., None]
        env = np.sin(np.pi * t / active) ** 2
        waves = np.sum(amps * np.sin(freqs * t[..., None] + phases), axis=-1)
        return np.where((0.0 < t) & (t < active), env * waves, 0.0)

    return u


@dataclasses.dataclass
class IqcReport:
    status: str  # "holds" | "fails" | "not_applicable"
    worst_integral: float
    worst_margin: float
    samples: list

    @property
    def holds(self):
        return self.status == "holds"


def _iqc_not_applicable():
    return IqcReport(
        status="not_applicable", worst_integral=np.nan, worst_margin=np.nan, samples=[]
    )


def iqc_trajectory_condition(inst: KypInstance, trials=20, horizon=None, seed=0) -> IqcReport:
    """Sample decaying trajectories and test the integral quadratic constraint.

    Inputs are smooth, supported on the first third of the horizon; the
    state then decays freely, realizing square-integrable trajectories.
    Only applicable when A is Hurwitz and the horizon, max(30, 24/alpha)
    unless given, fits in IQC_MAX_STEPS steps; otherwise reports
    not_applicable.
    """
    alpha = _decay_rate(inst.A)
    if alpha <= 0:
        log.info("IQC sampler skipped: A is not Hurwitz (decay rate %.3e)", alpha)
        return _iqc_not_applicable()
    if horizon is None:
        horizon = max(30.0, 24.0 / alpha)
    steps = max(4096, int(np.ceil(IQC_STEPS_PER_UNIT * horizon)))
    if steps > IQC_MAX_STEPS:
        log.warning(
            "IQC sampler skipped: horizon %.6g needs %d steps, over the budget of %d",
            horizon, steps, IQC_MAX_STEPS,
        )
        return _iqc_not_applicable()
    rng = np.random.default_rng(seed)
    inputs = [_ramped_input(rng, inst.m, horizon / 3.0) for _ in range(trials)]
    grid = TimeGrid(0.0, float(horizon), steps)
    times = TimeGrid(0.0, float(horizon), 2 * steps).times()
    batch = max(1, IQC_BATCH_VALUES // (times.size * (inst.n + inst.m)))
    samples = []
    for lo in range(0, trials, batch):
        u_stages = np.stack([u(times) for u in inputs[lo : lo + batch]], axis=-1)
        samples += _iqc_samples(inst, u_stages, grid)
    worst_integral = max((s.integral for s in samples), default=-np.inf)
    worst_margin = max(
        (s.integral - 1e-5 * (1.0 + s.energy) for s in samples), default=-np.inf
    )
    status = "holds" if worst_margin <= 0.0 else "fails"
    return IqcReport(
        status=status,
        worst_integral=worst_integral,
        worst_margin=worst_margin,
        samples=samples,
    )


@dataclasses.dataclass
class CrossValidation:
    lmi: LmiResult
    frequency: FrequencyReport
    pointwise: PointwiseReport
    iqc: IqcReport
    defects: list
    consistent: bool


def cross_validate(
    inst: KypInstance, grid=None, trials=10, seed=0, horizon=None, tol=FORM_TOL
) -> CrossValidation:
    """Run every applicable checker and flag disagreements beyond tolerance.

    ``tol`` is the decision threshold of both frequency sweeps.
    """
    if grid is None:
        grid = default_grid(inst.A)
    lmi = kyp_lmi(inst, seed=seed)
    freq = frequency_condition(inst, grid, tol=tol)
    point = pointwise_condition(inst, grid, tol=tol)
    iqc = iqc_trajectory_condition(inst, trials=trials, horizon=horizon, seed=seed)
    defects = []
    if lmi.status == "undecided":
        log.warning("LMI route undecided (residual %.3e); not counted as agreement",
                    lmi.max_violation)
        defects.append("lmi_undecided")
    elif (lmi.status == "feasible") != freq.holds:
        defects.append("lmi_vs_frequency")
    if freq.holds != point.holds:
        defects.append("frequency_vs_pointwise")
    if iqc.status != "not_applicable":
        if freq.holds and freq.worst_value <= -1e-3 and iqc.status == "fails":
            defects.append("frequency_vs_iqc")
        if not freq.holds and freq.worst_value >= 1e-3 and iqc.status == "holds":
            # grid found a violation the sampler missed; informational only
            log.info("IQC sampler did not excite the frequency-domain violation")
    consistent = not [d for d in defects if d != "lmi_undecided"]
    return CrossValidation(
        lmi=lmi,
        frequency=freq,
        pointwise=point,
        iqc=iqc,
        defects=defects,
        consistent=consistent,
    )
