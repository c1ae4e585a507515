"""Non-strict KYP conditions as four independent checkers.

The linear-matrix-inequality route decides the conic problem by rank-one
and rank-2 kernel witnesses, a Riccati certificate, or the interior-point
method of psd_certificate; the frequency-domain, pointwise, and integral
routes check the same property by separate computations so the harness can
cross-validate them against each other.  The same route chain decides the
general PSD-cone problem U'PV + V'PU <= C (psd_lmi) through its KYP form.
"""

import dataclasses
import functools
import logging

import numpy as np

from .certificates import (
    LMI_TOL,
    Certificate,
    KernelWitness,
    LmiResult,
    PsdProblem,
    certify,
    psd_certificate,
    rank_one_witness,
    refute,
)
from .numerics import SV_CUTOFF, TimeGrid, rk4_linear, stage_inputs
from .steering import controllability_rank
from .validation import as_matrix, as_square, as_symmetric, as_vector, frobenius, symmetrize

log = logging.getLogger("conecert.kyp")

FORM_TOL = 1e-7
# eigenvalues of A this close to the imaginary axis are poles; grids keep this far away
AXIS_TOL = 1e-8
# added to a singular R = -M22 before the Riccati solve; the LMI's top
# eigenvalue at the solution equals it, and 1e-8 already moves the scalar
# passivity certificate P = 1 by 1.4e-4
RICCATI_REG = 1e-10
# without inputs the Riccati route solves the n^2 x n^2 Kronecker form of the
# Lyapunov equation (2 MB at n = 16); larger instances go to psd_certificate
LYAPUNOV_MAX_N = 16
# a stacked frequency sweep solves at most this many complex entries of n x n
# systems at once (512 KB); with a chunk's other per-frequency arrays that
# keeps a chunk to a few MB however large the grid
SWEEP_BATCH_VALUES = 2**15
# multi-section search per peak of the pointwise sweep: 10 passes of 15 points
# shrink a bracket to 8**-10 = 9.3e-10 of its width
SECTION_POINTS = 15
SECTION_PASSES = 10
# RK4 steps per unit of IQC horizon, and the most steps one sampler run may
# take: 2**17 steps is a 1024 s horizon
IQC_STEPS_PER_UNIT = 128
IQC_MAX_STEPS = 2**17
# input trials of one sampler run by default and at most; each is simulated
IQC_TRIALS = 5
IQC_MAX_TRIALS = 100
# trials share one recurrence while a batch's stage values of x and u stay
# under this count (32 MB each), which bounds the sampler's memory near the
# step budget
IQC_BATCH_VALUES = 2**22
_EYE3 = np.eye(3)[:, :, None]
_TINY = np.finfo(float).tiny


@dataclasses.dataclass
class KypInstance:
    """System pair (A, B) with a symmetric quadratic supply matrix M on (x, u).

    What the checkers read of the instance alone is computed once, on first
    use, and shared: the Kalman rank test, the eigenvalues of A and its
    eigenfrequencies, the Hamiltonian of _hamiltonian and its crossing
    points.  Nothing that depends on a frequency set is cached, so each
    sweep still solves its own frequencies.  Change no field afterwards.
    """

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.A = as_square("A", self.A)
        n = self.A.shape[0]
        self.B = as_matrix("B", self.B, rows=n)
        self.M = as_symmetric("M", self.M, dim=n + self.B.shape[1])

    @functools.cached_property
    def controllable(self):
        return controllability_rank(self.A, self.B)[0]

    @functools.cached_property
    def eigenvalues(self):
        return np.linalg.eigvals(self.A)

    @functools.cached_property
    def axis_frequencies(self):
        return _axis_frequencies(self.eigenvalues)

    @functools.cached_property
    def hamiltonian(self):
        """The matrix of _hamiltonian, or None when M22 is singular or empty."""
        M22 = self.M[self.n :, self.n :]
        return None if _singular(M22) else _hamiltonian(self, M22)

    @functools.cached_property
    def crossing_points(self):
        """One frequency in every interval where the Popov form keeps its inertia.

        These are 0, each of hamiltonian_crossings, the midpoints between
        consecutive crossings and one point past the last, minus
        eigenfrequencies of A; empty when there is no crossing.
        """
        crossings = hamiltonian_crossings(self)
        if not crossings.size:
            return crossings
        edges = np.concatenate([[0.0], crossings])
        points = np.concatenate(
            [edges, 0.5 * (edges[:-1] + edges[1:]), [2.0 * crossings[-1] + 1.0]]
        )
        return _off_eigenfrequencies(self.axis_frequencies, np.unique(points))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


def imaginary_axis_frequencies(A):
    """|Im lambda| for every eigenvalue of A within AXIS_TOL of the imaginary axis."""
    return _axis_frequencies(np.linalg.eigvals(as_square("A", A)))


def _axis_frequencies(eig):
    on_axis = np.abs(eig.real) <= AXIS_TOL
    return np.sort(np.abs(eig[on_axis].imag))


def _off_eigenfrequencies(excluded, omegas):
    """The omegas at least AXIS_TOL away from every frequency in excluded."""
    if not excluded.size:
        return omegas
    keep = np.all(np.abs(omegas[:, None] - excluded[None, :]) >= AXIS_TOL, axis=1)
    return omegas[keep]


@dataclasses.dataclass(frozen=True)
class FrequencyGrid:
    """Ascending real frequencies, none within AXIS_TOL of an eigenfrequency of A."""

    omegas: np.ndarray

    def __post_init__(self):
        om = as_vector("omegas", self.omegas)
        if om.size and np.any(np.diff(om) <= 0):
            raise ValueError("frequencies must be strictly ascending")
        object.__setattr__(self, "omegas", om)


@functools.lru_cache(maxsize=8, typed=True)
def _log_frequencies(points):
    base = np.logspace(-3.0, 3.0, points)
    base.flags.writeable = False
    return base


def default_grid(A, points=200) -> FrequencyGrid:
    """Log-spaced grid over [1e-3, 1e3]*(1+||A||) plus 0, minus eigenfrequencies."""
    A = as_square("A", A)
    return _default_grid(A, imaginary_axis_frequencies(A), points)


def _default_grid(A, axis_frequencies, points=200):
    """default_grid of A whose eigenfrequencies are known, such as a KypInstance's."""
    scale = 1.0 + float(np.linalg.norm(A, 2))
    omegas = np.concatenate([[0.0], _log_frequencies(points) * scale])
    return FrequencyGrid(np.unique(_off_eigenfrequencies(axis_frequencies, omegas)))


def _singular(S):
    """True for a numerically singular S, and for an empty one (no inputs)."""
    s = np.linalg.svd(S, compute_uv=False)
    return not s.size or bool(s[-1] <= SV_CUTOFF * (1.0 + s[0]))


def _hamiltonian(inst, M22):
    """[[Ah, -B M22^-1 B'], [-(M11 - M12 M22^-1 M21), -Ah']], Ah = A - B M22^-1 M21.

    Raises np.linalg.LinAlgError when an entry is not finite.
    """
    n, M = inst.n, inst.M
    K = np.linalg.solve(M22, np.hstack([M[n:, :n], inst.B.T]))
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = inst.A - inst.B @ K[:, :n]
    H[:n, n:] = -inst.B @ K[:, n:]
    H[n:, :n] = -(M[:n, :n] - M[:n, n:] @ K[:, :n])
    H[n:, n:] = -H[:n, :n].T
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError(
            "the KYP Hamiltonian has non-finite entries: a product with M22^-1 overflows"
        )
    return H


def hamiltonian_crossings(inst: KypInstance) -> np.ndarray:
    """Ascending frequencies where an eigenvalue of the Popov form can change sign.

    With M22 nonsingular the form is singular at omega exactly when
    i*omega is an eigenvalue of the instance's Hamiltonian (Boyd,
    Balakrishnan and Kabamba 1989).  Empty when M22 is singular.
    """
    if inst.hamiltonian is None:
        return np.empty(0)
    eig = np.linalg.eigvals(inst.hamiltonian)
    # generous: a spurious crossing only adds a point that is evaluated
    on_axis = np.abs(eig.real) <= 1e-6 * (1.0 + np.abs(eig))
    return np.unique(np.abs(eig[on_axis].imag))


def _sweep(f, omegas, n):
    """f(omegas), frequencies first, in chunks whose stacks of n x n systems
    hold at most SWEEP_BATCH_VALUES entries; one call when omegas fit in one."""
    size = max(1, SWEEP_BATCH_VALUES // n**2)
    if omegas.size <= size:
        return f(omegas)
    return np.concatenate([f(omegas[lo : lo + size]) for lo in range(0, omegas.size, size)])


def _resolvents(A, omegas):
    """i*omega*I - A, complex, stacked over omegas."""
    return 1j * omegas[:, None, None] * np.eye(A.shape[0]) - A


def _stacked_solve(A, rhs, omegas, message):
    """X with (i*omega*I - A) X = rhs at each omega, the frequencies innermost: (n, m, k).

    One state is a division; more take one stacked LAPACK solve.  Either
    way each column of rhs comes out as a solve of that column alone
    gives it.  A singular system raises ValueError naming its omega.
    """
    if A.shape[0] == 1:
        pivots = 1j * omegas - A[0, 0]
        if not pivots.all():
            raise ValueError(message.format(omega=omegas[int(np.argmax(pivots == 0))]))
        return rhs[:, :, None] / pivots
    K = _resolvents(A, omegas)
    try:
        return np.linalg.solve(K, rhs).transpose(1, 2, 0)
    except np.linalg.LinAlgError:
        for k in range(K.shape[0]):
            try:
                np.linalg.solve(K[k], rhs)
            except np.linalg.LinAlgError as exc:
                raise ValueError(message.format(omega=omegas[k])) from exc
        raise


def _transfer(inst, omegas):
    """G = (i*omega*I - A)^(-1) B at every omega, the frequencies innermost: (n, m, k)."""
    n, m, k, A, B = inst.n, inst.m, omegas.size, inst.A, inst.B
    G = np.ascontiguousarray(_stacked_solve(
        A, B, omegas,
        "singular transfer solve at omega = {omega!r}; the grid contains an eigenfrequency of A",
    ))
    AG = (A @ G.reshape(n, m * k)).reshape(n, m, k)
    resid = np.linalg.norm(1j * omegas * G - AG - B[:, :, None], axis=(0, 1))
    bad = ~(resid <= 1e-6 * (1.0 + float(frobenius("B", B))))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"ill-conditioned transfer solve at omega = {omegas[k]!r} "
            f"(residual {resid[k]:.3e}); the grid violates the eigenfrequency exclusion"
        )
    return G


def _finite_forms(forms, omegas, sweep):
    """The (m, m, k) forms; a non-finite entry raises ValueError naming its omega."""
    finite = np.isfinite(forms).all(axis=(0, 1))
    if not finite.all():
        raise ValueError(f"non-finite {sweep} form at omega = {omegas[int(np.argmin(finite))]!r}")
    return forms


def _top_eigenvalues(forms):
    """Largest eigenvalue of the Hermitian part of each m x m form, stacked on trailing axes.

    forms has shape (m, m) + stack.  For m = 1 that is the real entry; for
    m = 2, with diagonal a, d and off-diagonal mean b, it is (a + d)/2 +
    hypot((a - d)/2, |b|); for m = 3 the trigonometric root of
    _top_of_three; otherwise eigvalsh, -inf for an empty (m = 0) form.
    """
    m = forms.shape[0]
    if m == 1:
        return forms[0, 0].real
    if m == 2:
        a, d = forms[0, 0].real, forms[1, 1].real
        b = 0.5 * (forms[0, 1] + np.conj(forms[1, 0]))
        return 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(b))
    if m == 3:
        return _top_of_three(forms.reshape(3, 3, -1)).reshape(forms.shape[2:])
    hermitian = np.moveaxis(0.5 * (forms + np.conj(np.swapaxes(forms, 0, 1))), (0, 1), (-2, -1))
    return np.max(np.linalg.eigvalsh(hermitian), axis=-1, initial=-np.inf)


def _top_of_three(forms):
    """Largest eigenvalue of the Hermitian part H of each 3 x 3 form of a (3, 3, k) stack.

    With q = tr(H)/3, D = H - qI and p = |D|_F/sqrt(6), the eigenvalues of
    H are q + 2p cos((theta + 2 pi j)/3), j = 0, 1, 2, where cos(theta) =
    det(D)/(2p^3) = tr(D^3)/(6p^3) (Smith 1961); j = 0 is the largest.
    theta is taken by atan2, whose two arguments may share any positive
    factor: 6p^4 cos(theta) = p tr(D^3), and 6p^4 sin(theta) = |G|_F/sqrt(6)
    for G = |D|^2 D^2 - tr(D^3) D - |D|^4 I/3, whose eigenvalues go to zero
    with the gap where two eigenvalues meet.  There the arccos of a
    rounded det(D)/(2p^3) loses half the digits; the sine from G keeps
    them, so the root stays within a few eps |H|_F at a double eigenvalue
    as anywhere else.  Each form is first divided by its largest entry, so
    no power of an entry overflows; a multiple of I (p = 0) gives q.
    """
    s = np.maximum(np.abs(forms).reshape(9, -1).max(axis=0), _TINY)
    F = forms * (0.5 / s)
    H = F + F.conj().transpose(1, 0, 2)  # H/s
    q = H.reshape(9, -1)[::4].real.sum(axis=0) / 3.0
    D = H - q * _EYE3
    D2 = (D[:, :, None] * D[None]).sum(axis=1)
    P2 = D2.reshape(9, -1)[::4].real.sum(axis=0)  # |D|_F^2 = tr(D^2)
    T = (D2 * D.transpose(1, 0, 2)).real.sum(axis=(0, 1))  # tr(D^3)
    G = P2 * D2 - T * D - (P2 * P2 / 3.0) * _EYE3
    p = np.sqrt(P2 / 6.0)
    sine = np.sqrt((G * G.conj()).real.sum(axis=(0, 1)) / 6.0)
    return s * (q + 2.0 * p * np.cos(np.arctan2(sine, T * p) / 3.0))


def _popov_tops(inst, omegas):
    """Top eigenvalue of the Popov form H* M H, H = ((i*omega*I - A)^-1 B; I), at each omega.

    One stacked complex solve (a division for n = 1) gives
    G = (i*omega*I - A)^-1 B; with
    MH = M[:, :n] G + M[:, n:], the form is G* (MH)[:n] + (MH)[n:], the
    frequencies innermost.
    """
    n, m, k, M = inst.n, inst.m, omegas.size, inst.M
    G = _transfer(inst, omegas)
    MH = (M[:, :n] @ G.reshape(n, m * k)).reshape(n + m, m, k) + M[:, n:, None]
    forms = np.einsum("pik,pjk->ijk", np.conj(G), MH[:n]) + MH[n:]
    return _top_eigenvalues(_finite_forms(forms, omegas, "frequency"))


def _frequency_values(inst, omegas):
    return _sweep(lambda w: _popov_tops(inst, w), omegas, inst.n)


def _kyp_form(prob: PsdProblem):
    """(instance, T): prob in KYP form, or (None, None) when V lacks full row rank
    or has no rows.

    With T = [V^+, N], N an orthonormal basis of ker V, VT = [I 0] and
    T'(C - He(P))T = -M - (A B)'P(I 0) - (I 0)'P(A B) for A = UV^+,
    B = UN and M = -T'CT: the same P, and T is nonsingular.  A Q of the
    instance's cone maps to TQT' in prob's.
    """
    n, d = prob.V.shape
    W, s, Xt = np.linalg.svd(prob.V)
    if not n or n > d or not s[-1] > SV_CUTOFF * s[0]:
        return None, None
    T = np.hstack([(Xt[:n].T / s) @ W.T, Xt[n:].T])
    UT = prob.U @ T
    return KypInstance(A=UT[:, :n], B=UT[:, n:], M=-symmetrize(T.T @ prob.C @ T)), T


def _riccati_solution(inst) -> np.ndarray | None:
    """Symmetric P where the KYP LMI's Schur complement vanishes, or None.

    With inputs, P is the stabilizing solution of A'P + PA + M11 - (PB +
    M12) M22^-1 (B'P + M21) = 0 (Willems 1971), a singular M22 replaced by
    M22 - RICCATI_REG I: the n eigenvectors [V1; V2] of _hamiltonian (the
    instance's own when M22 is nonsingular) with Re lambda < 0 span its
    graph, so P = Re(V2 V1^-1) (Laub 1979).  None when there are not n of
    them or V1 is singular.  Without inputs, P solves A'P + PA + M11 = 0 in
    Kronecker form, (I (x) A' + A' (x) I) vec P = -vec M11, for n <=
    LYAPUNOV_MAX_N; None when that system's singular values show it
    singular (eigenvalues of A with l_i + l_j = 0).
    """
    n, M = inst.n, inst.M
    try:
        if not inst.m:
            if n > LYAPUNOV_MAX_N:
                return None
            L = np.kron(np.eye(n), inst.A.T) + np.kron(inst.A.T, np.eye(n))
            s = np.linalg.svd(L, compute_uv=False)
            if not s[-1] > SV_CUTOFF * s[0]:
                return None
            P = np.linalg.solve(L, -M.ravel()).reshape(n, n)
        else:
            H = inst.hamiltonian
            if H is None:
                H = _hamiltonian(inst, M[n:, n:] - RICCATI_REG * np.eye(inst.m))
            lam, V = np.linalg.eig(H)
            V = V[:, lam.real < 0]
            if V.shape[1] != n:
                return None
            P = np.linalg.solve(V[:n].T, V[n:].T).T.real
    except np.linalg.LinAlgError:
        return None
    return symmetrize(P) if np.all(np.isfinite(P)) else None


def _riccati_certificate(inst, prob) -> Certificate | None:
    """The P of _riccati_solution as a certificate of prob, kept only when certify accepts it."""
    P = _riccati_solution(inst)
    return None if P is None else certify(prob, P)


def _frequency_witness(inst, prob, T) -> KernelWitness | None:
    """Rank-2 kernel witness from the Popov form at the worst crossing point.

    At the instance's crossing point where the form's top eigenvalue is
    largest, z = H(i*omega)u with H = ((i*omega*I - A)^-1 B; I) and u a top
    eigenvector.  Q0 = Re(zz*)/tr is PSD, lies in the kernel of
    UQV' + VQU' because Uz = i*omega*Vz, and has tr(-M Q0) = -(form
    value)/tr.  With a congruence T from _kyp_form, z is mapped to Tz
    first.  Q0 is returned only when it passes refute.
    """
    points = inst.crossing_points
    if not points.size:
        return None
    try:
        values = _frequency_values(inst, points)
    except ValueError:
        return None
    omega = points[int(np.argmax(values))]
    G = np.linalg.solve(1j * omega * np.eye(inst.n) - inst.A, inst.B)
    H = np.vstack([G, np.eye(inst.m)])
    u = np.linalg.eigh(H.conj().T @ inst.M @ H)[1][:, -1]
    z = H @ u
    if T is not None:
        z = T @ z
    Q = np.real(np.outer(z, z.conj()))
    return refute(prob, Q / np.trace(Q))


def _decide(prob: PsdProblem, inst, T) -> LmiResult:
    """Decide U'PV + V'PU <= C by the one route chain; each route proves itself on prob.

    In order: a rank-one kernel witness; a rank-2 frequency witness; the
    Riccati certificate; the interior-point method of psd_certificate.
    Every witness passes refute and every certificate certify, on prob,
    before it is a verdict.  The witnesses go first so that a refutable
    instance pays no Riccati solve.  The order cannot move a verdict: by
    weak duality a witness that passes refute excludes every P that
    certify accepts.  The frequency and Riccati routes run on inst, prob
    in KYP form, whose coordinates T maps to prob's (T None: the same);
    they are skipped when inst is None.
    """
    witness = rank_one_witness(prob)
    if witness is not None:
        return LmiResult.refuted(witness, "rank_one_witness")
    if inst is not None:
        witness = _frequency_witness(inst, prob, T)
        if witness is not None:
            return LmiResult.refuted(witness, "frequency_witness")
        cert = _riccati_certificate(inst, prob)
        if cert is not None:
            return LmiResult.certified(cert, "riccati")
    return psd_certificate(prob)


def kyp_lmi(inst: KypInstance) -> LmiResult:
    """Search for symmetric P with M + (A B)'P(I 0) + (I 0)'P(A B) <= 0 by _decide."""
    V = np.hstack([np.eye(inst.n), np.zeros((inst.n, inst.m))])
    return _decide(PsdProblem(U=np.hstack([inst.A, inst.B]), V=V, C=-inst.M), inst, None)


def psd_lmi(prob: PsdProblem) -> LmiResult:
    """Decide U'PV + V'PU <= C by _decide, on the KYP form when V has full row rank."""
    return _decide(prob, *_kyp_form(prob))


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

    The grid is merged with the crossing points (one frequency in every
    interval between Hamiltonian crossings), so a peak narrower than the
    grid spacing is still evaluated; the Hamiltonian only chooses points,
    and the form itself is evaluated at every point.  Each frequency costs
    one complex division for n = 1, else one complex n x n solve, stacked
    over the grid, and the m x m Hermitian form is assembled from it
    directly; its top eigenvalue is in closed form for m <= 3.  The
    omega -> infinity limit reduces to the lower-right block of M.
    """
    if grid is None:
        grid = _default_grid(inst.A, inst.axis_frequencies)
    n, m = inst.n, inst.m
    omegas = np.union1d(grid.omegas, inst.crossing_points)
    values = _frequency_values(inst, omegas)
    limit_value = float(_top_eigenvalues(inst.M[n:, n:]))
    # with no input (m = 0) the form is empty: there is no worst frequency
    if m and values.size and float(np.max(values)) >= limit_value:
        worst_idx = int(np.argmax(values))
        worst_omega = float(omegas[worst_idx])
        worst_value = float(values[worst_idx])
    else:
        worst_omega, worst_value = np.inf, limit_value
    holds = worst_value <= tol
    return FrequencyReport(
        holds=holds,
        worst_omega=worst_omega,
        worst_value=worst_value,
        omegas=omegas,
        values=values,
        limit_value=limit_value,
    )


@dataclasses.dataclass
class PointwiseReport:
    holds: bool
    worst_omega: float
    worst_value: float
    canonical_values: np.ndarray


def _pointwise_forms(inst, omegas):
    """The m x m Hermitian form on the canonical input columns at each omega: (m, m, k).

    Each canonical input column j gives z_j = (x_j, e_j) with
    i*omega*x_j = Ax_j + B e_j.  All m columns are the right-hand sides of
    one stacked complex solve over the frequencies, a division for n = 1;
    each x_j comes out bit for bit as a solve of its column alone would
    give it.  The form's entries are z_i* M z_j, the frequencies
    innermost; its diagonal holds the canonical values.
    """
    n, m, k = inst.n, inst.m, omegas.size
    Z = np.empty((n + m, m, k), dtype=complex)  # z_j at omega_k is Z[:, j, k]
    Z[:n] = _stacked_solve(inst.A, inst.B, omegas, "singular pointwise solve at omega = {omega!r}")
    Z[n:] = np.eye(m)[:, :, None]
    MZ = (inst.M @ Z.reshape(n + m, m * k)).reshape(Z.shape)
    return _finite_forms(np.einsum("pik,pjk->ijk", np.conj(Z), MZ), omegas, "pointwise")


def _pointwise_grid_values(inst, omegas):
    """(k, 1 + m): the top eigenvalue of the pointwise form, then its canonical values."""
    forms = _pointwise_forms(inst, omegas)
    return np.column_stack([_top_eigenvalues(forms), np.diagonal(forms).real])


def _pointwise_tops(inst, omegas):
    """The top eigenvalue of the pointwise form at each omega, and nothing else."""
    return _sweep(lambda w: _top_eigenvalues(_pointwise_forms(inst, w)), omegas, inst.n)


def _peak_brackets(poles, omegas, values):
    """[omega_(k-1), omega_(k+1)] around each local maximum k of the grid values.

    Brackets holding one of the poles (eigenfrequencies of A) are left out.
    """
    padded = np.concatenate([[-np.inf], values, [-np.inf]])
    peaks = np.flatnonzero((padded[1:-1] > padded[:-2]) & (padded[1:-1] >= padded[2:]))
    lo = omegas[np.maximum(peaks - 1, 0)]
    hi = omegas[np.minimum(peaks + 1, omegas.size - 1)]
    clear = ~np.any((poles > lo[:, None]) & (poles < hi[:, None]), axis=1)
    return lo[clear], hi[clear]


def _multisection_maxima(f, lo, hi):
    """Multi-section search for a maximum of f on every [lo_i, hi_i] at once.

    Each pass calls f once on SECTION_POINTS equally spaced interior points
    of every bracket, bracket after bracket, and keeps the best point so far
    +- one spacing; SECTION_POINTS is odd, so that point is the next midpoint.
    Returns the best point of each bracket and its value.
    """
    if not lo.size:
        return lo, lo
    t, rows = np.linspace(-1.0, 1.0, SECTION_POINTS + 2)[1:-1], np.arange(lo.size)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for _ in range(SECTION_PASSES):
        x = mid[:, None] + half[:, None] * t
        v = f(x.ravel()).reshape(x.shape)
        k = np.argmax(v, axis=1)
        mid, half = x[rows, k], half * (t[1] - t[0])
    return mid, v[rows, k]


def pointwise_condition(
    inst: KypInstance, grid: FrequencyGrid | None = None, tol: float = FORM_TOL
) -> PointwiseReport:
    """Check the quadratic form on (x, u) with i*omega*x = Ax + Bu, per frequency.

    Independent route from frequency_condition: the canonical input columns
    are solved for, all in one stacked solve (a division for n = 1) per
    frequency set, and the Hermitian form is assembled pairwise from those
    solutions; the x = 0 branch is the lower-right block of M.
    When the grid and the limit hold, every local maximum of the grid
    values is refined by a multi-section search over its bracketing
    interval, 10 stacked passes of 15 points, so a peak narrower than the
    grid spacing still refutes.  A pass evaluates only the top eigenvalue
    of each form, in one call.  No Hamiltonian is used; of the instance's
    cached data only the eigenfrequencies of A are read, to drop brackets
    around a pole.  worst_omega is inf where the limit is worst.
    """
    if grid is None:
        grid = _default_grid(inst.A, inst.axis_frequencies)
    n, m = inst.n, inst.m
    omegas = grid.omegas
    grid_values = _sweep(lambda w: _pointwise_grid_values(inst, w), omegas, n)
    values, canon = grid_values[:, 0], grid_values[:, 1:]
    limit_value = float(np.max(np.linalg.eigh(inst.M[n:, n:])[0], initial=-np.inf))
    if max(np.max(values, initial=-np.inf), limit_value) <= tol:
        # only a peak between grid points can still refute
        peak_omegas, peak_values = _multisection_maxima(
            lambda w: _pointwise_tops(inst, w),
            *_peak_brackets(inst.axis_frequencies, omegas, values),
        )
        omegas, values = np.append(omegas, peak_omegas), np.append(values, peak_values)
    worst_omega, worst_value = np.inf, -np.inf
    if m and values.size:  # an input-free (m = 0) form is empty
        k = int(np.argmax(values))
        worst_omega, worst_value = float(omegas[k]), float(values[k])
    if limit_value > worst_value:
        worst_omega, worst_value = np.inf, limit_value
    return PointwiseReport(
        holds=worst_value <= tol,
        worst_omega=worst_omega,
        worst_value=worst_value,
        canonical_values=canon,
    )


@dataclasses.dataclass
class IqcSample:
    integral: float
    energy: float
    tail_norm: float


def _iqc_samples(inst: KypInstance, u_stages, grid: TimeGrid) -> list:
    """IQC samples of a batch of inputs given at the RK4 stage times.

    u_stages has shape (m, 2*steps+1, trials), component-major: the inputs
    at t0 + j*h/2.  Every trial starts from x(0) = 0; one recurrence runs
    them all, and each must have decayed at the horizon.
    """
    n, m = inst.n, inst.m
    _, count, trials = u_stages.shape
    Bu = (inst.B @ u_stages.reshape(m, count * trials)).reshape(n, count, trials)
    # the states, component-major (n, steps+1, trials)
    x = rk4_linear(inst.A, Bu, np.zeros((n, trials)), grid).transpose(1, 0, 2)
    tails = np.linalg.norm(x[:, -1], axis=0)
    unsettled = tails > 1e-6
    if np.any(unsettled):
        tail = float(tails[np.argmax(unsettled)])
        raise ValueError(
            f"state norm {tail:.3e} at the horizon exceeds 1e-6; "
            "lengthen the horizon so the trajectory has decayed"
        )
    u = u_stages[:, ::2]
    Z = np.concatenate([x, u]).reshape(n + m, -1)
    w = (Z * (inst.M @ Z)).sum(axis=0).reshape(x.shape[1:])
    integrals = np.trapezoid(w, dx=grid.h, axis=0)
    energies = np.trapezoid((u * u).sum(axis=0), dx=grid.h, axis=0)
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
    return _iqc_samples(inst, stage_inputs(u, grid, inst.m)[:, :, None], grid)[0]


def _ramped_input(rng, m, active):
    """Smooth random input supported on (0, active), vectorized over time.

    The returned u maps times of any shape to values of shape (m,) + t.shape;
    the sinusoids are evaluated only at the times in (0, active).
    """
    freqs = rng.uniform(0.2, 2.0, size=3)
    amps = rng.normal(size=(m, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, 3))

    def u(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros((m,) + t.shape)
        on = (0.0 < t) & (t < active)
        s = t[on]
        # with time innermost, np.sum adds the three sinusoids left to right
        waves = np.sum(amps[:, :, None] * np.sin(freqs[:, None] * s + phases[:, :, None]), axis=1)
        out[:, on] = np.sin(np.pi * s / active) ** 2 * waves
        return out

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


def iqc_trajectory_condition(
    inst: KypInstance, trials=IQC_TRIALS, horizon=None, seed=0
) -> IqcReport:
    """Sample decaying trajectories and test the integral quadratic constraint.

    Inputs are smooth, supported on the first third of the horizon; the
    state then decays freely, realizing square-integrable trajectories.
    Only applicable when A is Hurwitz and the horizon, max(30, 24/alpha)
    unless given, fits in IQC_MAX_STEPS steps; otherwise reports
    not_applicable.  More than IQC_MAX_TRIALS trials raise ValueError.
    """
    if trials > IQC_MAX_TRIALS:
        raise ValueError(f"trials {trials} over the budget of {IQC_MAX_TRIALS}")
    alpha = -float(np.max(inst.eigenvalues.real))
    if alpha <= 0:
        log.info("IQC sampler skipped: A is not Hurwitz (decay rate %.3e)", alpha)
        return _iqc_not_applicable()
    if horizon is None:
        horizon = max(30.0, 24.0 / alpha)
    # compared as a float: the count may be too large for an int, or infinite
    steps = max(4096.0, np.ceil(IQC_STEPS_PER_UNIT * horizon))
    if steps > IQC_MAX_STEPS:
        log.warning(
            "IQC sampler skipped: horizon %.6g needs %.0f steps, over the budget of %d",
            horizon, steps, IQC_MAX_STEPS,
        )
        return _iqc_not_applicable()
    steps = int(steps)
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
    inst: KypInstance, grid=None, trials=IQC_TRIALS, seed=0, horizon=None, tol=FORM_TOL
) -> CrossValidation:
    """Run every applicable checker and flag disagreements beyond tolerance.

    ``tol`` is the decision threshold of both frequency sweeps.
    """
    if grid is None:
        grid = _default_grid(inst.A, inst.axis_frequencies)
    lmi = kyp_lmi(inst)
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
