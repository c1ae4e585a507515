"""Finite conic-duality certificates and witnesses, checked on the problem.

The central question: given a linear map L and a cost functional m on a cone
K, does there exist p with <p, L(z)> <= <m, z> for all z in K?  Feasibility
is equivalent to the adjoint inequality L*(p) - m <=_{K*} 0, and failure is
refuted by a kernel witness: z0 in K with L(z0) = 0 and <m, z0> < 0.

Each problem class supplies the three operations a verdict rests on: the
dual slack of a certificate p, the membership margin of a kernel element z,
and z's kernel residual and objective.  Every route's artifact becomes a
verdict only through the two checks built on them, certify and refute.

Two instantiations:
* orthant: L is a matrix, the adjoint inequality L'p <= m is an LP,
  decided by the two-phase simplex;
* PSD cone: L(Q) = U Q V' + V Q U', the adjoint inequality
  U'PV + V'PU <= C is decided up to a (feasible / infeasible-with-witness
  / undecided) trichotomy.  This module holds the rank-one witness search
  and the interior-point fallback; kyp.psd_lmi runs the whole route chain.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .numerics import SV_CUTOFF, matrix_rank
from .simplex import solve_lp
from .validation import as_matrix, as_symmetric, as_vector, frobenius, symmetrize

__all__ = [
    "OrthantProblem",
    "PsdProblem",
    "Certificate",
    "KernelWitness",
    "LmiResult",
    "certify",
    "refute",
    "orthant_certificate",
    "orthant_kernel_minimum",
    "orthant_surjectivity",
    "psd_certificate",
    "rank_one_witness",
]

logger = logging.getLogger("conecert.certificates")

LMI_TOL = 1e-6  # bounds a PSD certificate's slack and a witness's objective
IPM_MAX_ITERATIONS = 50  # psd_certificate's cap; no surveyed problem needed 12


@dataclass
class OrthantProblem:
    """Find p with L'p <= m, i.e. <p, Lz> <= <m, z> for all z >= 0."""

    Lmap: np.ndarray  # x_dim x z_dim
    m: np.ndarray  # length z_dim

    SLACK_TOL = 1e-8  # how far below 0 a certificate's slack may reach
    OBJECTIVE_TOL = 1e-7  # a witness's objective must lie below its negative

    def __post_init__(self):
        self.Lmap = as_matrix("Lmap", self.Lmap)
        self.m = as_vector("m", self.m, length=self.Lmap.shape[1])

    @property
    def x_dim(self) -> int:
        return self.Lmap.shape[0]

    @property
    def z_dim(self) -> int:
        return self.Lmap.shape[1]

    def dual_slack(self, p) -> np.ndarray:
        """m - L'p."""
        return self.m - self.Lmap.T @ p

    def margin(self, z) -> float:
        """The smallest entry of z: z is in the orthant iff it is >= 0."""
        return float(np.min(as_vector("z", z, length=self.z_dim)))

    def kernel(self, z):
        """(||Lz||, 1 + ||L||, <m, z>): kernel residual, its scale, objective."""
        return np.linalg.norm(self.Lmap @ z), 1.0 + frobenius("Lmap", self.Lmap), float(self.m @ z)


@dataclass
class PsdProblem:
    """Find symmetric P with U'PV + V'PU <= C (PSD order)."""

    U: np.ndarray  # n x d
    V: np.ndarray  # n x d
    C: np.ndarray  # d x d symmetric

    SLACK_TOL = LMI_TOL
    OBJECTIVE_TOL = LMI_TOL

    def __post_init__(self):
        self.U = as_matrix("U", self.U)
        self.V = as_matrix("V", self.V, rows=self.U.shape[0], cols=self.U.shape[1])
        self.C = as_symmetric("C", self.C, dim=self.U.shape[1])

    @property
    def state_dim(self) -> int:
        return self.U.shape[0]

    @property
    def cone_dim(self) -> int:
        return self.U.shape[1]

    def dual_slack(self, P) -> np.ndarray:
        """The eigenvalues of C - He(P), ascending, with He(P) = U'PV + V'PU; NaN on overflow."""
        G = self.U.T @ P @ self.V
        S = self.C - symmetrize(G + G.T)
        # eigvalsh of a matrix holding NaN can return finite values, or raise
        return np.linalg.eigvalsh(S) if np.isfinite(S).all() else np.full(self.cone_dim, np.nan)

    def margin(self, Z) -> float:
        """The smallest eigenvalue of Z: Z is in S^d_+ iff it is >= 0."""
        return float(np.linalg.eigvalsh(as_symmetric("z", Z, dim=self.cone_dim))[0])

    def kernel(self, Z):
        """(||UZV' + VZU'||, 1 + ||U||, tr(CZ)): kernel residual, its scale, objective."""
        image = self.U @ Z @ self.V.T
        residual = np.linalg.norm(image + image.T)
        return residual, 1.0 + frobenius("U", self.U), float(np.trace(self.C @ Z))


@dataclass
class Certificate:
    """A feasible p and its slack prob.dual_slack(p), built by certify alone.

    slack is m - L'p (orthant) or the ascending eigenvalues of C - U'PV - V'PU (PSD).
    """

    p: np.ndarray
    slack: np.ndarray


@dataclass
class KernelWitness:
    """z0 in K with L(z0) ~ 0 whose objective <m, z0> refutes feasibility.

    Every one has passed refute; 1'z0 = 1 (orthant) or tr(z0) = 1 (PSD) up to rounding.
    """

    z0: np.ndarray
    objective: float


def certify(prob, p) -> Certificate | None:
    """p with the dual slack computed here, or None when it reaches below -prob.SLACK_TOL."""
    slack = prob.dual_slack(p)
    if not np.min(slack, initial=np.inf) >= -prob.SLACK_TOL:
        return None
    return Certificate(p=p, slack=slack)


def refute(prob, z0) -> KernelWitness | None:
    """z0 as a witness against prob, or None unless it passes three checks.

    On prob's own data, z0 taken as it is: its margin is >= -1e-9, its kernel
    residual at most 1e-9 times its scale, and its objective < -prob.OBJECTIVE_TOL,
    which rules out every p that certify accepts: <m - L'p, z0> = <m, z0> on the kernel.
    """
    residual, scale, objective = prob.kernel(z0)
    if prob.margin(z0) >= -1e-9 and residual <= 1e-9 * scale and objective < -prob.OBJECTIVE_TOL:
        return KernelWitness(z0=z0, objective=objective)
    return None


@dataclass
class LmiResult:
    """Outcome of deciding U'PV + V'PU <= C, and the route that decided it.

    max_violation is lambda_max(He(P) - C) at P, the certificate (feasible) or
    the last interior-point iterate (undecided), or minus the witness
    objective (infeasible); slack is the certificate's (feasible only);
    iterations counts interior-point iterations.
    """

    status: str  # "feasible" | "infeasible" | "undecided"
    P: np.ndarray | None
    max_violation: float
    witness: np.ndarray | None
    iterations: int
    # "rank_one_witness" | "frequency_witness" | "riccati" | "interior_point"
    decided_by: str
    slack: np.ndarray | None = None

    @classmethod
    def certified(cls, cert: Certificate, route, iterations=0) -> "LmiResult":
        return cls("feasible", cert.p, float(-cert.slack[0]), None, iterations, route, cert.slack)

    @classmethod
    def refuted(cls, witness: KernelWitness, route, iterations=0) -> "LmiResult":
        return cls("infeasible", None, float(-witness.objective), witness.z0, iterations, route)


# ---------------------------------------------------------------------------
# orthant instantiation (via LP)


def orthant_certificate(prob: OrthantProblem) -> Certificate | None:
    """Decide {p : L'p <= m} by phase-1 simplex; None when empty.

    Free p is split p = p+ - p-; slacks s close the inequality:
    L'(p+ - p-) + s = m, all variables >= 0.  The vertex's p is returned
    through certify, so a vertex whose slack fails the check gives None too.
    """
    x, z = prob.x_dim, prob.z_dim
    Lt = prob.Lmap.T
    A = np.concatenate([Lt, -Lt, np.eye(z)], axis=1)
    c = np.zeros(2 * x + z)
    res = solve_lp(c, A, prob.m)
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise RuntimeError(f"unexpected LP status {res.status} in feasibility phase")
    return certify(prob, res.x[:x] - res.x[x : 2 * x])


def orthant_kernel_minimum(prob: OrthantProblem):
    """min <m, z> over z >= 0, Lz = 0, 1'z = 1.

    Returns (value, z), the LP's optimum and its vertex; (+inf, None) when
    the kernel meets the orthant only at 0, which makes the nonnegativity
    condition vacuous.  z refutes feasibility only as refute(prob, z) does.
    """
    z = prob.z_dim
    A = np.concatenate([prob.Lmap, np.ones((1, z))], axis=0)
    b = np.concatenate([np.zeros(prob.x_dim), [1.0]])
    res = solve_lp(prob.m, A, b)
    if res.status == "infeasible":
        return np.inf, None
    if res.status != "optimal":
        raise RuntimeError(f"unexpected LP status {res.status} in kernel minimum")
    return float(res.objective), res.x


def orthant_surjectivity(Lmap) -> bool:
    """True iff L maps the orthant onto the whole target space.

    L(K) = R^x iff L has full row rank (by SV_CUTOFF) and Lz = 0 for some
    z > 0.  By Stiemke's transposition theorem (1915) such z is missing
    exactly when some y has L'y >= 0 and L'y != 0, and then L(K) lies in
    the half-space y'v >= 0.  One feasibility LP decides it: Lw = -L1 with
    w = z - 1 >= 0, after each row of L is scaled to largest entry 1, which
    keeps the kernel and keeps L1 finite.
    """
    L = as_matrix("Lmap", Lmap)
    if matrix_rank(L) < L.shape[0]:
        return False
    L = L / np.abs(L).max(axis=1, keepdims=True)
    return solve_lp(np.zeros(L.shape[1]), L, -L.sum(axis=1)).status == "optimal"


# ---------------------------------------------------------------------------
# PSD instantiation (rank-one witness search + interior-point method)


def _null_basis(M):
    """Orthonormal basis of ker(M) as columns, by SVD with relative cutoff SV_CUTOFF."""
    M = np.asarray(M, dtype=float)
    _, s, vt = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > SV_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:].T


def rank_one_witness(prob: PsdProblem) -> KernelWitness | None:
    """Search rank-one kernel elements vv' for a negative objective.

    For L(Q) = UQV' + VQU', the rank-one Q = vv' with L(Q) = 0 are exactly
    v in ker(U) or v in ker(V): Uv(Vv)' + Vv(Uv)' = 0 forces one factor to
    vanish.  Minimizing tr(C vv') over each kernel is a small symmetric
    eigenproblem.  The best vv' (|v| = 1) is kept when it passes refute,
    with that smallest eigenvalue, tr(C vv') up to rounding, as objective.
    """
    best = None
    for M in (prob.U, prob.V):
        N = _null_basis(M)
        if N.shape[1] == 0:
            continue
        w, W = np.linalg.eigh(symmetrize(N.T @ prob.C @ N))
        if w[0] < -LMI_TOL and (best is None or w[0] < best[0]):
            v = N @ W[:, 0]
            v = v / np.linalg.norm(v)
            best = (float(w[0]), v)
    if best is None:
        return None
    val, v = best
    witness = refute(prob, np.outer(v, v))
    return None if witness is None else KernelWitness(z0=witness.z0, objective=val)


def _step(L, D):
    """The largest a <= 1 keeping LL' + aD PSD, cut to 0.98 of the way to the boundary."""
    low = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, D).T))[0]
    return min(1.0, -0.98 / low) if low < 0 else 1.0


def psd_certificate(prob: PsdProblem) -> LmiResult:
    """Decide U'PV + V'PU <= C by a primal-dual interior-point method.

    The last route of kyp's decision chain.  HKM directions with Mehrotra's
    predictor-corrector (Helmberg, Rendl, Vanderbei and Wolkowicz 1996;
    Vandenberghe and Boyd 1996) solve the phase-I pair min t with
    Z = tI + C - He(P) >= 0, and max -tr(CX) with X >= 0, tr X = 1 and
    UXV' + VXU' = 0, in an orthonormal basis F_k of span{-I, He(P)}: a basis
    keeps the Schur matrix nonsingular where P -> He(P) has a kernel.  An
    iterate's P certifies when certify accepts it and C - He(P) >= 0, or
    the gap tr(XZ) has converged; its X, moved onto the dual constraints
    along XGX and scaled to trace 1, refutes when it passes refute.  After
    a numerical breakdown or IPM_MAX_ITERATIONS iterations, the last
    iterate that certify accepted certifies; without one it is undecided.
    """
    n, d = prob.state_dim, prob.cone_dim
    E = np.eye(n * n).reshape(n * n, n, n)
    E = E + np.swapaxes(E, 1, 2)
    G = prob.U.T @ E @ prob.V
    S = np.concatenate([-np.eye(d)[None], G + np.swapaxes(G, 1, 2)]).reshape(-1, d * d)
    coef, s, F = np.linalg.svd(S)
    r = int(np.count_nonzero(s > SV_CUTOFF * s[0]))
    P, X, k = np.zeros((n, n)), np.eye(d) / d, 0
    t0 = 1.0 - min(np.linalg.eigvalsh(prob.C)[0], 0.0)  # C + t0 I >= I
    y = coef[:, r:] @ coef[0, r:]  # y[0] I = He(sum_j y[j + 1] E_j)
    if y[0] > SV_CUTOFF:  # I = He(P_I), and P = -t0 P_I leaves C + t0 I
        cert = certify(prob, -t0 / y[0] * symmetrize(np.tensordot(y[1:], E, 1)))
        if cert is not None and cert.slack[0] >= 0:
            return LmiResult.certified(cert, "interior_point")
    F, coef = F[:r], coef[:, :r] / s[:r]
    F3, b = F.reshape(r, d, d), -coef[0]  # max b'w is min t
    w = -t0 * (F @ np.eye(d).ravel())  # Z = C + t0 I
    reason = f"no decision in {IPM_MAX_ITERATIONS} iterations"
    passed = None  # the last iterate whose P passed certify
    try:
        for k in range(1, IPM_MAX_ITERATIONS + 1):
            Z = prob.C - (w @ F).reshape(d, d)
            Lx, Lz, Zi = np.linalg.cholesky(X), np.linalg.cholesky(Z), np.linalg.inv(Z)
            schur, mu = F @ (X @ F3 @ Zi).reshape(r, -1).T, np.vdot(X, Z) / d

            def direction(R):  # X dZ + dX Z = R - XZ, symmetrized
                dw = np.linalg.solve(schur, b - F @ (R @ Zi).ravel())
                dZ = -(dw @ F).reshape(d, d)
                dX = symmetrize((R - X @ dZ) @ Zi) - X
                return dw, dZ, dX, _step(Lx, dX), _step(Lz, dZ)

            dw, dZ, dX, ap, ad = direction(np.zeros((d, d)))
            sigma = (np.vdot(X + ap * dX, Z + ad * dZ) / (d * mu)) ** 3
            dw, dZ, dX, ap, ad = direction(sigma * mu * np.eye(d) - dX @ dZ)
            X, w = X + ap * dX, w + ad * dw
            if not (np.isfinite(X).all() and np.isfinite(w).all()):
                raise np.linalg.LinAlgError("non-finite iterate")
            P = symmetrize(np.tensordot(coef[1:] @ w, E, 1))
            cert = certify(prob, P)
            gap = np.vdot(X, prob.C - (w @ F).reshape(d, d))
            converged = gap <= 1e-8 * (1.0 + frobenius("C", prob.C))
            if cert is not None:
                passed = LmiResult.certified(cert, "interior_point", k)
                if cert.slack[0] >= 0 or converged:
                    return passed
            lam = np.linalg.lstsq(F @ (X @ F3 @ X).reshape(r, -1).T, F @ X.ravel() - b)[0]
            Q = symmetrize(X - X @ (lam @ F).reshape(d, d) @ X)
            witness = refute(prob, Q / np.trace(Q))
            if witness is not None:
                return LmiResult.refuted(witness, "interior_point", k)
    except np.linalg.LinAlgError as exc:
        reason = f"numerical breakdown in iteration {k}: {exc}"
    logger.info("psd_certificate %s: %s", "undecided" if passed is None else "certified", reason)
    return passed or LmiResult(
        "undecided", None, float(-prob.dual_slack(P)[0]), None, k, "interior_point")
