"""Random-instance generators shared across the test suite.

Every generator takes an explicit numpy Generator so tests stay
reproducible, and each one plants its own ground truth (a feasible point,
a kernel vector with negative cost, a known gain, a frequency violation)
so that assertions never rely on the code under test to label its inputs.
"""

import numpy as np

from conecert import (
    KypInstance,
    OrthantProblem,
    PositiveSystem,
    TimeGrid,
    controllability_rank,
    expm,
    kyp,
    synthesize_Q,
)
from conecert.certificates import LmiResult, psd_certificate, rank_one_witness
from conecert.simplex import solve_lp


def surjective_map(rng, x_dim, z_dim):
    """Random L whose columns include +-e_i, so L(orthant) = R^x_dim."""
    if z_dim < 2 * x_dim:
        raise ValueError("need z_dim >= 2 * x_dim for the signed-basis columns")
    L = rng.uniform(-1.0, 1.0, (x_dim, z_dim))
    L[:, :x_dim] = np.eye(x_dim)
    L[:, x_dim : 2 * x_dim] = -np.eye(x_dim)
    return L[:, rng.permutation(z_dim)]


def surjective_by_reachability(L):
    """Whether L maps the orthant onto R^x_dim, by reaching every +-e_i.

    L(orthant) is a convex cone, so it is the whole space iff each of the
    2 * x_dim signed basis vectors is the image of some z >= 0: one
    feasibility LP each.  The independent reference for orthant_surjectivity.
    """
    x_dim, z_dim = L.shape
    for i in range(x_dim):
        for sign in (1.0, -1.0):
            e = np.zeros(x_dim)
            e[i] = sign
            if solve_lp(np.zeros(z_dim), L, e).status != "optimal":
                return False
    return True


def feasible_orthant(rng, x_dim, z_dim):
    """Problem with a planted certificate: m = L'p + nonnegative slack."""
    L = surjective_map(rng, x_dim, z_dim)
    p = rng.standard_normal(x_dim)
    s = np.abs(rng.standard_normal(z_dim))
    return OrthantProblem(Lmap=L, m=L.T @ p + s)


def infeasible_orthant(rng, x_dim, z_dim):
    """Problem refuted by a planted kernel vector z0 >= 0 with <m, z0> < 0.

    L starts as [I, -I, R] so z0 = (w, w, 0) lies in the kernel; m is then
    shifted along z0 until the objective is strictly negative.  Any p with
    L'p <= m would give 0 = p'Lz0 <= m'z0 < 0.
    """
    if z_dim < 2 * x_dim:
        raise ValueError("need z_dim >= 2 * x_dim for the signed-basis columns")
    L = rng.uniform(-1.0, 1.0, (x_dim, z_dim))
    L[:, :x_dim] = np.eye(x_dim)
    L[:, x_dim : 2 * x_dim] = -np.eye(x_dim)
    z0 = np.zeros(z_dim)
    w = rng.uniform(0.2, 1.0, x_dim)
    z0[:x_dim] = w
    z0[x_dim : 2 * x_dim] = w
    perm = rng.permutation(z_dim)
    L, z0 = L[:, perm], z0[perm]
    m = rng.standard_normal(z_dim)
    target = -rng.uniform(0.1, 1.0)
    m = m + ((target - m @ z0) / (z0 @ z0)) * z0
    return OrthantProblem(Lmap=L, m=m), z0


def metzler_hurwitz(rng, n):
    """M - d*I with M >= 0 and d above the row-sum spectral radius bound."""
    M = rng.uniform(0.0, 1.0, (n, n))
    d = float(M.sum(axis=1).max()) + rng.uniform(0.2, 1.0)
    return M - d * np.eye(n)


def positive_system(rng, n, m):
    A = metzler_hurwitz(rng, n)
    B = rng.uniform(0.0, 1.0, (n, m))
    B[:, int(rng.integers(m))] = rng.uniform(0.1, 1.0, n)
    return PositiveSystem(A=A, B=B)


def nonneg_input(rng, m, grid, scale=1.0):
    """Smooth nonnegative input samples: squared sinusoid mixtures."""
    t = grid.times()
    out = np.zeros((t.size, m))
    for j in range(m):
        acc = np.zeros(t.size)
        for _ in range(3):
            amp = rng.uniform(0.2, 0.8)
            freq = rng.uniform(0.1, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            acc += amp * np.sin(2.0 * np.pi * freq * t + phase)
        out[:, j] = scale * acc**2
    return out


def controllable_pair(rng, n, m, hurwitz_margin=None):
    """Random controllable (A, B); shifted Hurwitz when a margin is given."""
    while True:
        A = rng.standard_normal((n, n))
        if hurwitz_margin is not None:
            shift = max(float(np.max(np.real(np.linalg.eigvals(A)))), 0.0)
            A = A - (shift + hurwitz_margin + rng.uniform(0.0, 0.5)) * np.eye(n)
        B = rng.standard_normal((n, m))
        ok, _ = controllability_rank(A, B)
        if ok:
            return A, B


def feasible_kyp(rng, n, m):
    """Instance with planted certificate P0 and strict slack S >= 0.2 I.

    M = -(U'P0 V + V'P0 U) - S makes P = P0 satisfy the matrix inequality
    with margin 0.2, and drives the frequency-domain form below -0.2 at
    every frequency (the P0 part vanishes identically on the graph of the
    transfer function).
    """
    A, B = controllable_pair(rng, n, m, hurwitz_margin=0.3)
    P0 = rng.standard_normal((n, n))
    P0 = 0.5 * (P0 + P0.T)
    G = rng.standard_normal((n + m, n + m))
    S = G @ G.T / (n + m) + 0.2 * np.eye(n + m)
    U = np.concatenate([A, B], axis=1)
    V = np.concatenate([np.eye(n), np.zeros((n, m))], axis=1)
    he = U.T @ P0 @ V
    M = -(he + he.T) - S
    return KypInstance(A=A, B=B, M=0.5 * (M + M.T)), P0, S


def infeasible_kyp(rng, n, m):
    """Feasible instance made infeasible by a planted frequency violation.

    Adds tau * (aa' + bb') with z0 = a + ib on the transfer graph at omega0,
    scaled so the Hermitian form at omega0 equals exactly +0.1.  Returns
    (instance, omega0).
    """
    base, _, _ = feasible_kyp(rng, n, m)
    A, B = base.A, base.B
    omega0 = float(rng.uniform(0.3, 3.0))
    u0 = rng.standard_normal(m)
    u0 /= np.linalg.norm(u0)
    x0 = np.linalg.solve(1j * omega0 * np.eye(n) - A, B @ u0)
    z0 = np.concatenate([x0, u0.astype(complex)])
    a, b = z0.real, z0.imag
    W = np.outer(a, a) + np.outer(b, b)
    val = float(np.real(np.conj(z0) @ (base.M @ z0)))
    quad = float(np.real(np.conj(z0) @ (W @ z0)))
    tau = (0.1 - val) / quad
    M = base.M + tau * W
    return KypInstance(A=A, B=B, M=0.5 * (M + M.T)), omega0


def decide_certificate_first(prob, inst, T):
    """kyp._decide's routes with the Riccati certificate before the frequency witness.

    The same private routes, each with its own check, in the order they ran
    before the witnesses were moved ahead of the Riccati solve: the
    independent reference for the claim that the order moves no verdict.
    """
    witness = rank_one_witness(prob)
    if witness is not None:
        return LmiResult.refuted(witness, "rank_one_witness")
    if inst is not None:
        cert = kyp._riccati_certificate(inst, prob)
        if cert is not None:
            return LmiResult.certified(cert, "riccati")
        witness = kyp._frequency_witness(inst, prob, T)
        if witness is not None:
            return LmiResult.refuted(witness, "frequency_witness")
    return psd_certificate(prob)


def smooth_signal(rng, channels, amp=0.6, max_freq=0.5):
    """Callable sum of three gentle sinusoids per channel.

    Returned as a function of time (not samples) so integrators evaluate it
    exactly at substeps; frequencies stay below max_freq Hz so fourth-order
    differences on 512-step grids resolve the result to well under 1e-6.
    """
    amps = rng.uniform(0.1, amp, (channels, 3))
    omegas = 2.0 * np.pi * rng.uniform(0.1, max_freq, (channels, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, (channels, 3))

    def u(t):
        return np.sum(amps * np.sin(omegas * t + phases), axis=1)

    return u


def synthesized_instance(rng, n, m, steps=512, horizon=2.0):
    """Random (traj, A, B) built by synthesize_Q from n+1 components.

    n+1 generic components keep Q_nn uniformly well conditioned over the
    horizon, which the decomposition's per-segment interpolation needs.
    A is nudged toward stability so states stay O(1) over the horizon.
    """
    A = 0.5 * rng.standard_normal((n, n))
    abscissa = float(np.max(np.real(np.linalg.eigvals(A))))
    if abscissa > 0.2:
        A = A - (abscissa - 0.2) * np.eye(n)
    B = rng.standard_normal((n, m))
    grid = TimeGrid(0.0, horizon, steps)
    comps = n + 1
    x_inits = [rng.standard_normal(n) for _ in range(comps)]
    u_signals = [smooth_signal(rng, m) for _ in range(comps)]
    traj = synthesize_Q(A, B, x_inits, u_signals, grid)
    return traj, A, B


def sinusoid_trajectory(rng, n, m, steps=512, horizon=2.0):
    """(A, B, grid, Q): Q the sum of zz' over n+1 exact sinusoid-driven solutions.

    Each input u = sum_q a_q sin(omega_q t + phi_q) per channel is the
    output of (sin, cos) oscillator pairs, so (x, oscillator) solves one
    linear system and is propagated by the exponential of its matrix over
    one step, with no integrator.  Nothing keeps Q_nn well conditioned.
    """
    A = 0.5 * rng.standard_normal((n, n))
    A = A - max(float(np.max(np.linalg.eigvals(A).real)) - 0.2, 0.0) * np.eye(n)
    B = rng.standard_normal((n, m))
    Q = np.zeros((steps + 1, n + m, n + m))
    for _ in range(n + 1):
        omega = 2.0 * np.pi * rng.uniform(0.1, 0.5, 3 * m)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3 * m)
        out = np.zeros((m, 6 * m))  # u reads the sin of each pair
        out[np.repeat(np.arange(m), 3), np.arange(0, 6 * m, 2)] = rng.uniform(0.1, 0.6, 3 * m)
        osc = np.kron(np.diag(omega), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        aug = np.block([[A, B @ out], [np.zeros((6 * m, n)), osc]])
        step = expm(aug * (horizon / steps))
        pairs = np.column_stack([np.sin(phase), np.cos(phase)]).ravel()
        state = np.concatenate([rng.standard_normal(n), pairs])
        for k in range(steps + 1):
            z = np.concatenate([state[:n], out @ state[n:]])
            Q[k] += np.outer(z, z)
            state = step @ state
    return A, B, TimeGrid(0.0, horizon, steps), Q


def random_psd(rng, dim, rank=None):
    """Random PSD matrix, optionally rank-limited."""
    k = dim if rank is None else rank
    G = rng.standard_normal((dim, k))
    return G @ G.T
