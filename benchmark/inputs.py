"""Seeded input generators for the three benchmark workloads.

Every instance plants its own ground truth (a certificate, a kernel vector,
a frequency violation, a rank pattern) or carries a reference value that is
computed here with scipy, apart from the program.  Nothing is imported from
the program or from its test suite, so neither can change or label the
benchmark's inputs.

A workload is a list of problems.  Each problem is a dict with
  id          unique name within the workload
  kind        "cli" (a problem file run through cone-cert) or "lib"
              (a library call, see worker.py)
  task        what the worker receives: CLI arguments with a file name, or
              a library operation with its arrays
  expect      what the checker compares against; never sent to the worker
  known_fault True for the one problem that fails on the current program
The sizes are a fixed schedule and only the entries depend on the seed, so
each seed gives a round of the same shape and the same count.
"""

import hashlib
import json
import os

import numpy as np
import scipy.linalg
import scipy.optimize

SAMPLES = {
    "l1gain": "sample_problems/l1gain_2x2.json",
    "kyp": "sample_problems/kyp_scalar_passivity.json",
    "decompose": "sample_problems/decompose_synthesized.json",
}


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _copy_sample(root, workdir, key):
    with open(os.path.join(root, SAMPLES[key]), "rb") as fh:
        raw = fh.read()
    path = os.path.join(workdir, os.path.basename(SAMPLES[key]))
    with open(path, "wb") as fh:
        fh.write(raw)
    return path, json.loads(raw.decode("utf-8"))


def _cli(pid, command, path, expect, known_fault=False):
    with open(path, "rb") as fh:
        sha = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    return {
        "id": pid,
        "kind": "cli",
        "task": {"argv": [command, "--input", path]},
        "expect": dict(expect, command=command, digest=sha),
        "known_fault": known_fault,
    }


def _lib(pid, op, arrays, expect, known_fault=False):
    return {
        "id": pid,
        "kind": "lib",
        "task": {"op": op, "arrays": arrays},
        "expect": expect,
        "known_fault": known_fault,
    }


# ---------------------------------------------------------------------------
# positive systems and the L1 gain


def metzler_hurwitz(rng, n):
    """M - d I with M >= 0 and d above every row sum of M (Gershgorin)."""
    M = rng.uniform(0.0, 1.0, (n, n))
    d = float(M.sum(axis=1).max()) + rng.uniform(0.2, 1.0)
    return M - d * np.eye(n)


def positive_system(rng, n, m):
    A = metzler_hurwitz(rng, n)
    B = rng.uniform(0.0, 1.0, (n, m))
    B[:, int(rng.integers(m))] = rng.uniform(0.1, 1.0, n)
    return A, B


def reference_gain(A, B):
    """min gamma s.t. A'p <= -1, B'p <= gamma 1, p >= 0, by HiGHS."""
    n, m = B.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.block([[A.T, np.zeros((n, 1))], [B.T, -np.ones((m, 1))]])
    b_ub = np.concatenate([-np.ones(n), np.zeros(m)])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * n + [(None, None)], method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1])


def nonneg_inputs(rng, m, times):
    """Smooth nonnegative input samples: squares of sinusoid mixtures."""
    out = np.zeros((times.size, m))
    for j in range(m):
        amp = rng.uniform(0.2, 0.8, 3)
        freq = rng.uniform(0.1, 1.0, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        acc = np.sin(2.0 * np.pi * freq[None, :] * times[:, None] + phase[None, :]) @ amp
        out[:, j] = acc**2
    return out


# ---------------------------------------------------------------------------
# orthant problems


def _signed_basis_map(rng, x_dim, z_dim):
    L = rng.uniform(-1.0, 1.0, (x_dim, z_dim))
    L[:, :x_dim] = np.eye(x_dim)
    L[:, x_dim : 2 * x_dim] = -np.eye(x_dim)
    return L


def feasible_orthant(rng, x_dim, z_dim):
    """m = L'p + s with s >= 0, so p is a planted certificate."""
    L = _signed_basis_map(rng, x_dim, z_dim)[:, rng.permutation(z_dim)]
    p = rng.standard_normal(x_dim)
    s = np.abs(rng.standard_normal(z_dim))
    return L, L.T @ p + s


def infeasible_orthant(rng, x_dim, z_dim):
    """A planted z0 >= 0 in ker L with m'z0 < 0 refutes every p."""
    L = _signed_basis_map(rng, x_dim, z_dim)
    z0 = np.zeros(z_dim)
    w = rng.uniform(0.2, 1.0, x_dim)
    z0[:x_dim] = w
    z0[x_dim : 2 * x_dim] = w
    perm = rng.permutation(z_dim)
    L, z0 = L[:, perm], z0[perm]
    m = rng.standard_normal(z_dim)
    m = m + ((-rng.uniform(0.1, 1.0) - m @ z0) / (z0 @ z0)) * z0
    return L, m


# ---------------------------------------------------------------------------
# KYP instances


def kalman_rank(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    K = np.hstack(blocks)
    s = np.linalg.svd(K, compute_uv=False)
    return int(np.count_nonzero(s > 1e-9 * s[0])) if s[0] > 0 else 0


def controllable_pair(rng, n, m, hurwitz_margin=None):
    while True:
        A = rng.standard_normal((n, n))
        if hurwitz_margin is not None:
            shift = max(float(np.max(np.linalg.eigvals(A).real)), 0.0)
            A = A - (shift + hurwitz_margin + rng.uniform(0.0, 0.5)) * np.eye(n)
        B = rng.standard_normal((n, m))
        if kalman_rank(A, B) == n:
            return A, B


def feasible_kyp(rng, n, m, decay=None):
    """M = -He(P0) - S with S >= 0.2 I, so P0 is a certificate with margin 0.2.

    A is Hurwitz with a random margin, or, given decay, shifted so that its
    spectral abscissa is exactly -decay.  Returns (A, B, M, P0).
    """
    if decay is None:
        A, B = controllable_pair(rng, n, m, hurwitz_margin=0.3)
    else:
        A, B = controllable_pair(rng, n, m)
        A = A - (float(np.max(np.linalg.eigvals(A).real)) + decay) * np.eye(n)
    P0 = rng.standard_normal((n, n))
    P0 = 0.5 * (P0 + P0.T)
    G = rng.standard_normal((n + m, n + m))
    S = G @ G.T / (n + m) + 0.2 * np.eye(n + m)
    U = np.hstack([A, B])
    V = np.hstack([np.eye(n), np.zeros((n, m))])
    he = U.T @ P0 @ V
    M = -(he + he.T) - S
    return A, B, 0.5 * (M + M.T), P0


def popov_form(A, B, M, omega):
    """H(i omega)* M H(i omega) with H = ((i omega I - A)^-1 B; I), complex."""
    n, m = B.shape
    X = np.linalg.solve(1j * omega * np.eye(n) - A, B.astype(complex))
    H = np.vstack([X, np.eye(m)])
    F = H.conj().T @ M @ H
    return 0.5 * (F + F.conj().T)


def infeasible_kyp(rng, n, m):
    """A feasible instance plus tau (aa' + bb'), making the form +0.1 at omega0."""
    A, B, M, _ = feasible_kyp(rng, n, m)
    omega0 = float(rng.uniform(0.3, 3.0))
    u0 = rng.standard_normal(m)
    u0 /= np.linalg.norm(u0)
    x0 = np.linalg.solve(1j * omega0 * np.eye(n) - A, B @ u0)
    z0 = np.concatenate([x0, u0.astype(complex)])
    W = np.outer(z0.real, z0.real) + np.outer(z0.imag, z0.imag)
    val = float(np.real(np.conj(z0) @ M @ z0))
    quad = float(np.real(np.conj(z0) @ W @ z0))
    M = M + ((0.1 - val) / quad) * W
    return A, B, 0.5 * (M + M.T), omega0


def resonance_kyp():
    """Lightly damped mode: zeta = 1e-4, omega0 = 7.3, peak gain 93.8 > 50."""
    A = np.array([[0.0, 1.0], [-53.29, -0.00146]])
    B = np.array([[0.0], [1.0]])
    M = np.zeros((3, 3))
    M[0, 0] = 1.0
    M[2, 2] = -2500.0
    return A, B, M


# ---------------------------------------------------------------------------
# steering


def random_psd(rng, dim, rank):
    G = rng.standard_normal((dim, rank))
    return G @ G.T


def gramian_vanloan(A, B, t1):
    """W(t1) = int_0^t1 e^{As} BB' e^{A's} ds from one block exponential.

    exp([[A, BB'], [0, -A']] t1) = [[E, F], [0, e^{-A't1}]] with
    W(t1) = F e^{A't1}.
    """
    n = A.shape[0]
    H = np.block([[A, B @ B.T], [np.zeros((n, n)), -A.T]])
    E = scipy.linalg.expm(H * t1)
    W = E[:n, n:] @ E[:n, :n].T
    return 0.5 * (W + W.T)


# ---------------------------------------------------------------------------
# decompose trajectories, propagated exactly


def sinusoid_components(rng, n, m, count, times, A, B):
    """count components (x_i, u_i): u_i sums of sinusoids, x_i' = A x_i + B u_i.

    Each input is the output of a block-diagonal oscillator, so (x, w) solves
    one linear system, and x on the uniform grid `times` is read off powers of
    the exponential of the augmented matrix over one step, with no integrator
    involved.
    """
    comps = []
    for _ in range(count):
        x0 = rng.standard_normal(n)
        amp = rng.uniform(0.1, 0.6, (m, 3))
        om = 2.0 * np.pi * rng.uniform(0.1, 0.5, (m, 3))
        ph = rng.uniform(0.0, 2.0 * np.pi, (m, 3))
        k = 2 * 3 * m  # oscillator state: (sin, cos) per sinusoid
        S = np.zeros((k, k))
        Cu = np.zeros((m, k))
        w0 = np.zeros(k)
        for j in range(m):
            for q in range(3):
                i = 2 * (3 * j + q)
                S[i, i + 1] = om[j, q]
                S[i + 1, i] = -om[j, q]
                w0[i] = np.sin(ph[j, q])
                w0[i + 1] = np.cos(ph[j, q])
                Cu[j, i] = amp[j, q]
        Aug = np.block([[A, B @ Cu], [np.zeros((k, n)), S]])
        step = scipy.linalg.expm(Aug * (times[1] - times[0]))
        state = np.concatenate([x0, w0])
        xs = np.empty((times.size, n))
        for k in range(times.size):
            xs[k] = state[:n]
            state = step @ state
        us = np.sum(amp[None] * np.sin(om[None] * times[:, None, None] + ph[None]), axis=2)
        comps.append((xs, us))
    return comps


def _outer_sum(comps):
    Z = [np.concatenate([x, u], axis=1) for x, u in comps]
    return sum(z[:, :, None] * z[:, None, :] for z in Z)


def decompose_instance(rng, n, m, steps=512, horizon=2.0):
    """n+1 generic components: Q_nn keeps full rank n, one rank segment.

    Q_nn is kept uniformly well conditioned: every eigenvalue at every
    sample is at least 0.01 times the largest over the trajectory.  The
    decomposition's interpolation of R = Q_nn^+ Q_nm needs that; below a
    ratio of about 0.002 its ODE residual can pass 1e-3, and it then reports
    fails on a valid trajectory (see CHANGES.md).
    """
    while True:
        A = 0.5 * rng.standard_normal((n, n))
        abscissa = float(np.max(np.linalg.eigvals(A).real))
        if abscissa > 0.2:
            A = A - (abscissa - 0.2) * np.eye(n)
        B = rng.standard_normal((n, m))
        times = np.linspace(0.0, horizon, steps + 1)
        Q = _outer_sum(sinusoid_components(rng, n, m, n + 1, times, A, B))
        lam = np.linalg.eigvalsh(Q[:, :n, :n])
        if lam[:, 0].min() >= 0.01 * lam[:, -1].max():
            return A, B, horizon, steps, Q


def rank_crossing_instance():
    """x(t) = t - 1 with u(t) = (t - 1)/2 + 1 on x' = -x/2 + u.

    Q_nn = x^2 vanishes at the single sample t = 1, so the planted rank
    pattern is 1, 0, 1: two segments sharing that sample.
    """
    steps, horizon = 512, 2.0
    t = np.linspace(0.0, horizon, steps + 1)
    x = t - 1.0
    u = 0.5 * (t - 1.0) + 1.0
    z = np.stack([x, u], axis=1)
    Q = z[:, :, None] * z[:, None, :]
    return np.array([[-0.5]]), np.array([[1.0]]), horizon, steps, Q


def _decompose_doc(A, B, horizon, steps, Q):
    return {
        "command": "decompose",
        "A": A.tolist(),
        "B": B.tolist(),
        "grid": {"t0": 0.0, "t1": horizon, "steps": steps},
        "samples": Q.reshape(steps + 1, -1).tolist(),
    }


# ---------------------------------------------------------------------------
# workloads


def lp_certify(rng, root, workdir):
    """Two positive systems for every (n, m) in 1..6 x 1..3, gamma alternating
    above and below the gain; the l1gain sample file; two orthant problems per
    (x_dim, planted kind) for x_dim 1..4.

    The generated systems go through the library gain routes, not through
    cone-cert l1gain: its LP bisection raises on about 0.7% of random systems
    (see CHANGES.md), which would make failures depend on the seed.
    """
    probs = []
    k = 0
    for rep in range(2):
        for n in range(1, 7):
            for m in range(1, 4):
                A, B = positive_system(rng, n, m)
                gstar = reference_gain(A, B)
                factor = rng.uniform(1.1, 1.6) if k % 2 == 0 else rng.uniform(0.5, 0.9)
                arrays = {"A": A, "B": B, "gamma": gstar * factor}
                probs.append(_lib(f"gain-{n}{m}{rep}", "l1_gain", arrays,
                                  dict(arrays, gstar=gstar)))
                k += 1
    path, doc = _copy_sample(root, workdir, "l1gain")
    A, B = np.array(doc["A"], float), np.array(doc["B"], float)
    probs.append(_cli("l1gain-sample", "l1gain", path,
                      {"A": A, "B": B, "gamma": float(doc["gamma"]),
                       "gstar": reference_gain(A, B)}))
    for rep in range(2):
        for x_dim in range(1, 5):
            for planted in ("certificate", "kernel"):
                z_dim = 2 * x_dim + 2
                if planted == "certificate":
                    L, mvec = feasible_orthant(rng, x_dim, z_dim)
                else:
                    L, mvec = infeasible_orthant(rng, x_dim, z_dim)
                doc = {"command": "certify", "kind": "orthant", "L": L.tolist(),
                       "m": mvec.tolist()}
                name = f"orthant-{x_dim}{planted[0]}{rep}"
                path = _write(workdir, name + ".json", doc)
                probs.append(_cli(name, "certify", path,
                                  {"L": L, "m": mvec, "feasible": planted == "certificate"}))
    return probs


# Sizes of the planted-feasible KYP instances.  Planted certificates far from
# the origin, sizes with n >= 3, and (2, 1) are left out: there kyp_lmi
# returns undecided on some seeds (see CHANGES.md).  None of the kept sizes
# came back undecided on 5600 instances each.
FEASIBLE_KYP_SIZES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]
# Sizes of the infeasible instances whose violation shows only at interior
# frequencies (no rank-one kernel witness); the rate is highest at m = 1.
INTERIOR_KYP_SIZES = [(2, 1), (3, 1), (4, 1), (4, 2)]


def near_feasible_kyp(rng, n, m, decay=None):
    """feasible_kyp with |P0|_F (1 + |M|_F) <= 4 |[A B]|_F: a planted
    certificate near the origin on the scale of the problem."""
    while True:
        A, B, M, P0 = feasible_kyp(rng, n, m, decay)
        if np.linalg.norm(P0) * (1.0 + np.linalg.norm(M)) <= 4.0 * np.linalg.norm(np.hstack([A, B])):
            return A, B, M


def limit_form(A, B, M):
    """Top eigenvalue of the Popov form over omega in {0, infinity}."""
    n = A.shape[0]
    return max(float(np.linalg.eigvalsh(M[n:, n:])[-1]),
               float(np.linalg.eigvalsh(popov_form(A, B, M, 0.0))[-1]))


def infeasible_kyp_at(rng, n, m, interior):
    """infeasible_kyp whose violation is visible at omega = 0 or infinity
    (interior False) or only at interior frequencies (interior True)."""
    while True:
        A, B, M, omega0 = infeasible_kyp(rng, n, m)
        top = limit_form(A, B, M)
        if (top < -1e-3) if interior else (top > 1e-3):
            return A, B, M, omega0


def kyp_decide(rng, root, workdir):
    """Planted-feasible instances at FEASIBLE_KYP_SIZES; planted-infeasible
    ones visible at omega in {0, infinity} for every (n, m) in 1..4 x 1..3 and
    visible only inside at INTERIOR_KYP_SIZES; the resonance instance."""
    probs = []

    def add(pid, A, B, M, verdict, known_fault=False):
        arrays = {"A": A, "B": B, "M": M}
        probs.append(_lib(pid, "kyp_decide", arrays, dict(arrays, verdict=verdict),
                          known_fault))

    for n, m in FEASIBLE_KYP_SIZES:
        add(f"feasible-{n}{m}", *near_feasible_kyp(rng, n, m), "feasible")
    for n in range(1, 5):
        for m in range(1, 4):
            add(f"limit-{n}{m}", *infeasible_kyp_at(rng, n, m, False)[:3], "infeasible")
    for n, m in INTERIOR_KYP_SIZES:
        add(f"interior-{n}{m}", *infeasible_kyp_at(rng, n, m, True)[:3], "infeasible")
    add("resonance", *resonance_kyp(), "infeasible", known_fault=True)
    return probs


def trajectories(rng, root, workdir):
    """kyp files (planted feasible, plus the passivity sample), steer files
    (one uncontrollable), decompose files (generic, rank crossing, sample) and
    dissipation checks of positive systems.

    The kyp files have decay rate 1, as the sample has: the IQC sampler's
    horizon is max(30, 24/decay), so every file integrates over the same 30 s.
    """
    probs = []
    for n, m in [(1, 2), (2, 1)]:
        A, B, M = near_feasible_kyp(rng, n, m, decay=1.0)
        doc = {"command": "kyp", "A": A.tolist(), "B": B.tolist(), "M": M.tolist()}
        path = _write(workdir, f"kyp_{n}{m}.json", doc)
        probs.append(_cli(f"kyp-{n}{m}", "kyp", path,
                          {"A": A, "B": B, "M": M, "verdict": "feasible"}))
    path, doc = _copy_sample(root, workdir, "kyp")
    probs.append(_cli("kyp-sample", "kyp", path,
                      {"A": np.array(doc["A"], float), "B": np.array(doc["B"], float),
                       "M": np.array(doc["M"], float), "verdict": "feasible"}))

    for n, m, r0, r1 in [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2), (3, 1, 2, 3), (3, 2, 3, 3)]:
        A, B = controllable_pair(rng, n, m)
        probs.append(_steer(workdir, f"steer-{n}{m}", A, B, random_psd(rng, n, r0),
                            random_psd(rng, n, r1)))
    # an uncontrollable mode: the obstruction path
    A = np.array([[-1.0, 0.0], [0.0, -2.0]])
    B = np.array([[1.0], [0.0]])
    probs.append(_steer(workdir, "steer-uncontrollable", A, B, np.eye(2), 2.0 * np.eye(2)))

    # three decompose files per size: the largest group, so problem_ms_p50
    # falls inside it rather than in the gap above it
    for rep in range(3):
        for n, m in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
            A, B, horizon, steps, Q = decompose_instance(rng, n, m)
            name = f"decompose-{n}{m}{rep}"
            path = _write(workdir, name + ".json", _decompose_doc(A, B, horizon, steps, Q))
            probs.append(_cli(name, "decompose", path, {"n": n, "m": m, "segments": 1}))
    path = _write(workdir, "decompose_crossing.json",
                  _decompose_doc(*rank_crossing_instance()))
    probs.append(_cli("decompose-crossing", "decompose", path,
                      {"n": 1, "m": 1, "segments": 2}))
    path, _ = _copy_sample(root, workdir, "decompose")
    probs.append(_cli("decompose-sample", "decompose", path, {"n": 2, "m": 1, "segments": 1}))

    times = np.linspace(0.0, 6.0, 1025)
    for n, m in [(1, 1), (2, 2), (4, 3), (6, 2)]:
        A, B = positive_system(rng, n, m)
        u = np.stack([nonneg_inputs(rng, m, times) for _ in range(3)])
        x0 = np.abs(rng.standard_normal((3, n)))
        arrays = {"A": A, "B": B, "t1": 6.0, "steps": 1024, "u": u, "x0": x0}
        probs.append(_lib(f"dissipation-{n}{m}", "dissipation", arrays,
                          {"A": A, "B": B, "gstar": reference_gain(A, B)}))
    return probs


def _steer(workdir, pid, A, B, X0, X1):
    doc = {"command": "steer", "A": A.tolist(), "B": B.tolist(), "X0": X0.tolist(),
           "X1": X1.tolist()}
    path = _write(workdir, pid + ".json", doc)
    return _cli(pid, "steer", path, {"A": A, "B": B, "X0": X0, "X1": X1, "t1": 1.0,
                                     "rank": kalman_rank(A, B)})


WORKLOADS = {
    "lp_certify": lp_certify,
    "kyp_decide": kyp_decide,
    "trajectories": trajectories,
}


def generate(workload, seed, root, workdir):
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, root, workdir)
