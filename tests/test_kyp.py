"""Four independent KYP-condition checkers and their cross-validation."""

import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conecert import (
    FrequencyGrid,
    KypInstance,
    PsdProblem,
    TimeGrid,
    certificates,
    cross_validate,
    default_grid,
    frequency_condition,
    iqc_integral,
    iqc_trajectory_condition,
    kyp,
    kyp_lmi,
    pointwise_condition,
    psd_lmi,
)
from conecert.certificates import rank_one_witness
from conecert.kyp import imaginary_axis_frequencies
from conecert.numerics import rk4_linear


def passivity_instance():
    return KypInstance(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.array([[0.0, -1.0], [-1.0, 0.0]])
    )


def input_penalty_instance():
    # M penalizes only u: z'Mz = u^2 > 0 on any trajectory with input
    return KypInstance(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.array([[0.0, 0.0], [0.0, 1.0]])
    )


def resonance_instance():
    # zeta = 1e-4 at omega0 = 7.3: |G|^2 - 2500 peaks at +6.3e3 between
    # grid points of the default grid, which reads -2499.9 at best
    return KypInstance(
        A=np.array([[0.0, 1.0], [-53.29, -0.00146]]),
        B=np.array([[0.0], [1.0]]),
        M=np.diag([1.0, 0.0, -2500.0]),
    )


def grid_refuted_instance():
    # (x, u)'M(x, u) = 5|G|^2 - 1 with G = 1/(i omega + 1): 4 at omega = 0
    return KypInstance(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.diag([5.0, -1.0])
    )


def touching_instance():
    # |G(i omega)|^2 - 1 <= 0 with equality at omega = 0: the LMI holds only
    # at P = 1 and the Riccati equation has no stabilizing solution
    return KypInstance(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.diag([1.0, -1.0])
    )


def interior_only_instance():
    # planted violation of +0.1 at omega0 = 2.94 only: the form reads -4.04
    # at omega = 0 and its limit is -1.51, so no rank-one witness refutes it
    return helpers.infeasible_kyp(np.random.default_rng(13), 2, 1)[0]


def kyp_problem(inst):
    """inst as the PSD problem kyp_lmi decides: U = (A B), V = (I 0), C = -M."""
    V = np.hstack([np.eye(inst.n), np.zeros((inst.n, inst.m))])
    return PsdProblem(U=np.hstack([inst.A, inst.B]), V=V, C=-inst.M)


def assert_psd_witness(prob, Q):
    """Q is PSD, in the kernel of UQV' + VQU' and has tr(CQ) < 0."""
    assert np.linalg.eigvalsh(0.5 * (Q + Q.T))[0] >= -1e-9 * np.trace(Q)
    image = prob.U @ Q @ prob.V.T + prob.V @ Q @ prob.U.T
    assert np.linalg.norm(image) <= 1e-9 * np.trace(Q) * (1.0 + np.linalg.norm(prob.U))
    assert np.trace(prob.C @ Q) < 0


def assert_kernel_witness(inst, Q):
    """Q is PSD, in the kernel of UQV' + VQU' and has tr(-MQ) < 0."""
    assert_psd_witness(kyp_problem(inst), Q)


def test_instance_validation():
    with pytest.raises(ValueError):
        KypInstance(A=np.eye(2), B=np.ones((2, 1)), M=np.eye(2))  # M must be 3x3
    inst = passivity_instance()
    assert inst.controllable
    assert inst.n == 1 and inst.m == 1


def test_lmi_scalar_passivity_anchor():
    res = kyp_lmi(passivity_instance())
    assert res.status == "feasible"
    assert abs(res.P[0, 0] - 1.0) <= 1e-4
    assert res.max_violation <= 1e-6


def test_lmi_trivially_feasible():
    inst = KypInstance(A=np.array([[-1.0]]), B=np.array([[1.0]]), M=-np.eye(2))
    res = kyp_lmi(inst)
    assert res.status == "feasible"


def test_lmi_infeasible_witness():
    res = kyp_lmi(input_penalty_instance())
    assert res.status == "infeasible"
    assert res.P is None
    np.testing.assert_allclose(res.witness, [[0.0, 0.0], [0.0, 1.0]], atol=1e-9)
    assert abs(res.max_violation - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "make, status, route",
    [
        (input_penalty_instance, "infeasible", "rank_one_witness"),
        (passivity_instance, "feasible", "riccati"),
        (resonance_instance, "infeasible", "frequency_witness"),
        (touching_instance, "feasible", "interior_point"),
    ],
)
def test_lmi_decided_by_route(make, status, route):
    inst = make()
    res = kyp_lmi(inst)
    assert (res.status, res.decided_by) == (status, route)
    if status == "infeasible":
        assert_kernel_witness(inst, res.witness)
    else:
        assert res.max_violation <= kyp.LMI_TOL
        assert abs(res.P[0, 0] - 1.0) <= 1e-4  # both hold only at P = 1
    assert (res.iterations > 0) == (route == "interior_point")


def test_lmi_without_inputs_is_a_lyapunov_inequality():
    # m = 0: M + A'P + PA <= 0, met by every P >= 0.25 for A = -1, M = 0.5;
    # the Lyapunov equation gives P = 0.25, where it holds with equality
    inst = KypInstance(A=-np.eye(1), B=np.zeros((1, 0)), M=0.5 * np.eye(1))
    res = kyp_lmi(inst)
    assert res.status == "feasible" and res.decided_by == "riccati"
    assert res.P[0, 0] >= 0.25 - kyp.LMI_TOL


def test_lyapunov_route_is_bounded_in_n():
    # A = -I, M = I: A'P + PA + M = 0 at P = I/2, solved up to LYAPUNOV_MAX_N
    for n in (kyp.LYAPUNOV_MAX_N, kyp.LYAPUNOV_MAX_N + 1):
        P = kyp._riccati_solution(KypInstance(A=-np.eye(n), B=np.zeros((n, 0)), M=np.eye(n)))
        if n <= kyp.LYAPUNOV_MAX_N:
            np.testing.assert_allclose(P, 0.5 * np.eye(n), atol=1e-14)
        else:
            assert P is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A", [np.zeros((1, 1)), np.array([[0.0, 1.0], [-1.0, 0.0]])])
def test_lmi_without_inputs_skips_a_singular_lyapunov_equation(A):
    # eigenvalues with lambda_i + lambda_j = 0 make A'P + PA = -M11 singular:
    # its Kronecker form's singular values show it, and the route is skipped
    inst = KypInstance(A=A, B=np.zeros((A.shape[0], 0)), M=-np.eye(A.shape[0]))
    res = kyp_lmi(inst)
    assert res.status == "feasible" and res.decided_by != "riccati"
    assert np.max(np.abs(res.P)) <= 1.0


def test_psd_lmi_without_kyp_form_reaches_interior_point():
    # V has rank 1 < 2 rows: no congruence to a KYP form, so the Riccati and
    # frequency routes are skipped
    prob = PsdProblem(
        U=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        V=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        C=np.eye(3),
    )
    assert kyp._kyp_form(prob) == (None, None)
    res = psd_lmi(prob)
    assert (res.status, res.decided_by) == ("feasible", "interior_point")
    assert res.iterations > 0 and res.max_violation <= kyp.LMI_TOL


def hidden_resonance_problem():
    # the resonance instance behind R (3 x 2) and S as U = R(A B)S,
    # V = R(I 0)S, C = -S'MS: V has rank 2 < 3 rows, so there is no KYP form,
    # and no rank-one vv' in the kernel has a negative objective
    inst = resonance_instance()
    rng = np.random.default_rng(0)
    R, S = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
    C = -S.T @ inst.M @ S
    return PsdProblem(
        U=R @ np.hstack([inst.A, inst.B]) @ S,
        V=R @ np.hstack([np.eye(2), np.zeros((2, 1))]) @ S,
        C=0.5 * (C + C.T),
    )


def test_interior_point_refutes_without_kyp_form_or_rank_one_witness():
    prob = hidden_resonance_problem()
    assert kyp._kyp_form(prob) == (None, None) and rank_one_witness(prob) is None
    res = psd_lmi(prob)
    assert (res.status, res.decided_by) == ("infeasible", "interior_point")
    assert res.iterations > 0
    assert_psd_witness(prob, res.witness)
    assert res.max_violation == -np.trace(prob.C @ res.witness)


@pytest.mark.parametrize(
    "decide, route",
    [
        (lambda: kyp_lmi(input_penalty_instance()), "rank_one_witness"),
        (lambda: kyp_lmi(resonance_instance()), "frequency_witness"),
        (lambda: kyp_lmi(passivity_instance()), "riccati"),
        (lambda: kyp_lmi(touching_instance()), "interior_point"),
        (lambda: psd_lmi(hidden_resonance_problem()), "interior_point"),
    ],
    ids=["rank_one", "frequency", "riccati", "interior_point_certificate",
         "interior_point_witness"],
)
def test_every_route_artifact_passes_a_check(monkeypatch, decide, route):
    # the artifact in the verdict is one that certify or refute accepted
    accepted = []
    checks = {name: getattr(certificates, name) for name in ("certify", "refute")}
    for name, check in checks.items():
        def spy(prob, artifact, check=check):
            out = check(prob, artifact)
            if out is not None:
                accepted.append(artifact)
            return out

        for module in (certificates, kyp):
            monkeypatch.setattr(module, name, spy)
    res = decide()
    assert res.decided_by == route
    artifact = res.P if res.status == "feasible" else res.witness
    assert any(artifact is a for a in accepted)


@pytest.mark.parametrize(
    "C, status, route",
    [
        (np.eye(2), "feasible", "interior_point"),
        (-np.eye(2), "infeasible", "rank_one_witness"),
        (np.diag([1.0, -1.0]), "infeasible", "rank_one_witness"),
    ],
)
def test_psd_lmi_without_states(C, status, route):
    # U and V with no rows: He(P) = 0, so the question is whether C >= 0
    prob = PsdProblem(U=np.zeros((0, 2)), V=np.zeros((0, 2)), C=C)
    assert kyp._kyp_form(prob) == (None, None)
    res = psd_lmi(prob)
    assert (res.status, res.decided_by) == (status, route)


def test_riccati_failing_post_check_falls_back_to_interior_point(monkeypatch):
    calls = []
    original = kyp._riccati_solution

    def off_by_one(inst):
        calls.append(inst)
        return original(inst) - 1.0  # P = 0 instead of 1: slack fails

    monkeypatch.setattr(kyp, "_riccati_solution", off_by_one)
    res = kyp_lmi(passivity_instance())
    assert len(calls) == 1
    assert res.status == "feasible" and res.decided_by == "interior_point"
    assert res.iterations > 0
    assert abs(res.P[0, 0] - 1.0) <= 1e-4


def test_riccati_solver_error_falls_through(monkeypatch):
    monkeypatch.setattr(kyp, "_riccati_solution", lambda inst: None)
    res = kyp_lmi(passivity_instance())
    assert res.status == "feasible" and res.decided_by == "interior_point"
    assert res.iterations > 0


@pytest.mark.parametrize(
    "A, B, M",
    [
        # Hamiltonian [[0, 1], [0, 0]]: no eigenvalue with Re < 0
        ([[0.0]], [[1.0]], [[0.0, 0.0], [0.0, -1.0]]),
        # Hamiltonian [[1, 0], [-1, -1]]: its stable eigenvector (0, 1) has V1 = 0
        ([[1.0]], [[0.0]], [[1.0, 0.0], [0.0, -1.0]]),
    ],
)
def test_riccati_solution_needs_n_stable_eigenvectors_and_nonsingular_v1(A, B, M):
    assert kyp._riccati_solution(KypInstance(A=A, B=B, M=M)) is None


def test_riccati_solution_matches_scipy():
    # unit-scale planted-feasible instances, n <= 5 and m <= 3: the
    # Hamiltonian's stable eigenvectors give scipy's stabilizing solution,
    # P = -X, and every P passes the post-check
    rng = np.random.default_rng(21)
    for _ in range(150):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        inst = helpers.feasible_kyp(rng, n, m)[0]
        M = inst.M
        X = scipy.linalg.solve_continuous_are(
            inst.A, inst.B, -M[:n, :n], -M[n:, n:], s=-M[:n, n:]
        )
        P = kyp._riccati_solution(inst)
        assert np.linalg.norm(P + X) <= 1e-8 * np.linalg.norm(X)
        assert kyp._riccati_certificate(inst, kyp_problem(inst)) is not None


@pytest.mark.parametrize(
    "make, route, solves",
    [
        (resonance_instance, "frequency_witness", 0),
        (interior_only_instance, "frequency_witness", 0),
        (passivity_instance, "riccati", 1),
    ],
)
def test_witnesses_run_before_the_riccati_solve(make, route, solves, monkeypatch):
    calls = []
    original = kyp._riccati_solution

    def counted(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(kyp, "_riccati_solution", counted)
    assert kyp_lmi(make()).decided_by == route
    assert len(calls) == solves


def assert_order_moves_no_verdict(res, prob, inst, T):
    """res, from the chain, equals the certificate-first reference bit for bit,
    and the Riccati certificate and the frequency witness never both pass."""
    def bits(r):
        arrays = (None if a is None else a.tobytes() for a in (r.P, r.witness))
        return (r.status, r.decided_by, r.iterations, r.max_violation, *arrays)

    assert bits(res) == bits(helpers.decide_certificate_first(prob, inst, T))
    if inst is not None:
        cert = kyp._riccati_certificate(inst, prob)
        assert cert is None or kyp._frequency_witness(inst, prob, T) is None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    feasible=st.booleans(),
    scale=st.none() | st.integers(-8, 10),
)
def test_route_order_moves_no_kyp_verdict(seed, n, m, feasible, scale):
    # planted-feasible and planted-infeasible instances, at unit scale and
    # with M scaled by 10**scale
    planted = helpers.feasible_kyp if feasible else helpers.infeasible_kyp
    inst = planted(np.random.default_rng(seed), n, m)[0]
    if scale is not None:
        inst = KypInstance(A=inst.A, B=inst.B, M=inst.M * 10.0**scale)
    assert_order_moves_no_verdict(kyp_lmi(inst), kyp_problem(inst), inst, None)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 3), cols=st.integers(1, 4))
def test_route_order_moves_no_psd_verdict(seed, rows, cols):
    # entries in {-1, 0, 1}: V often lacks full row rank or leaves B empty,
    # and weakly infeasible problems occur
    rng = np.random.default_rng(seed)
    U, V = rng.integers(-1, 2, (2, rows, cols)).astype(float)
    G = rng.integers(-1, 2, (cols, cols)).astype(float)
    prob = PsdProblem(U=U, V=V, C=0.5 * (G + G.T))
    assert_order_moves_no_verdict(psd_lmi(prob), prob, *kyp._kyp_form(prob))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 3)
)
def test_lmi_witnesses_pass_their_checks(seed, n, m):
    inst, _ = helpers.infeasible_kyp(np.random.default_rng(seed), n, m)
    res = kyp_lmi(inst)
    assert res.status != "feasible"
    assert (res.status == "infeasible") == (res.witness is not None)
    if res.witness is not None:
        assert_kernel_witness(inst, res.witness)
        assert abs(res.max_violation + np.trace(-inst.M @ res.witness)) <= 1e-12 * (
            1.0 + res.max_violation
        )


def reference_frequency_values(inst, omegas):
    """The Popov form's top eigenvalue, one complex solve per frequency."""
    out = []
    for omega in omegas:
        G = np.linalg.solve(1j * omega * np.eye(inst.n) - inst.A, inst.B)
        H = np.vstack([G, np.eye(inst.m)])
        out.append(np.linalg.eigvalsh(H.conj().T @ inst.M @ H)[-1])
    return np.array(out)


def reference_canonical_values(inst, omegas):
    """Per frequency and input column: x_j solved alone, then (x_j, e_j)*M(x_j, e_j)."""
    out = np.empty((omegas.size, inst.m))
    for k, omega in enumerate(omegas):
        for j in range(inst.m):
            z = np.zeros(inst.n + inst.m, dtype=complex)
            z[: inst.n] = np.linalg.solve(1j * omega * np.eye(inst.n) - inst.A, inst.B[:, j])
            z[inst.n + j] = 1.0
            out[k, j] = np.real(np.conj(z) @ inst.M @ z)
    return out


@pytest.mark.parametrize("batch_values", [None, 64])
def test_batched_sweeps_match_per_frequency_reference(batch_values, monkeypatch):
    if batch_values is not None:  # many small chunks instead of one stack
        monkeypatch.setattr(kyp, "SWEEP_BATCH_VALUES", batch_values)
    rng = np.random.default_rng(62)
    for n, m in [(1, 1), (2, 2), (3, 1), (4, 3)]:
        for inst in (helpers.feasible_kyp(rng, n, m)[0], helpers.infeasible_kyp(rng, n, m)[0]):
            grid = default_grid(inst.A, points=60)
            fr = frequency_condition(inst, grid=grid)
            ref = reference_frequency_values(inst, fr.omegas)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(fr.values - ref) / scale) <= 1e-12
            pw = pointwise_condition(inst, grid=grid)
            ref = reference_canonical_values(inst, grid.omegas)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(pw.canonical_values - ref) / scale) <= 1e-12


def test_sweeps_name_the_frequency_of_a_singular_solve():
    # an integrator, solved by division, and eigenvalues +-i, by stacked LAPACK
    for A, B, omegas, omega in [
        (np.array([[0.0]]), np.array([[1.0, 2.0]]), [0.0, 1.0, 2.0], 0.0),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]), [0.5, 1.0, 2.0], 1.0),
    ]:
        inst = KypInstance(A=A, B=B, M=-np.eye(A.shape[0] + B.shape[1]))
        grid = FrequencyGrid(np.array(omegas))
        at = rf" at omega = np\.float64\({omega!r}\)"
        with pytest.raises(ValueError, match="^singular transfer solve" + at + "; the grid contains"):
            frequency_condition(inst, grid=grid)
        with pytest.raises(ValueError, match="^singular pointwise solve" + at + "$"):
            pointwise_condition(inst, grid=grid)


def overflowing_instance():
    # |G(i omega)| = 1e160/|i omega + 1|, so the form |G|^2 - 1 overflows near omega = 0
    return KypInstance(A=np.array([[-1.0]]), B=np.array([[1e160]]), M=np.diag([1.0, -1.0]))


def test_sweeps_refuse_a_form_that_is_not_finite(monkeypatch):
    inst, grid = overflowing_instance(), FrequencyGrid(np.array([0.0, 1.0]))
    at_zero = r" form at omega = np\.float64\(0\.0\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^non-finite pointwise" + at_zero):
            pointwise_condition(inst, grid=grid)
        # the Hamiltonian overflows before the frequency sweep evaluates a form
        with pytest.raises(np.linalg.LinAlgError):
            kyp.hamiltonian_crossings(inst)
        monkeypatch.setattr(kyp, "hamiltonian_crossings", lambda inst: np.empty(0))
        with pytest.raises(ValueError, match="^non-finite frequency" + at_zero):
            frequency_condition(inst, grid=grid)


def hermitian_stack(rng, m, k):
    X = rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m))
    return X + np.conj(np.swapaxes(X, 1, 2))


def special_forms_of_three(rng):
    """3 x 3 Hermitian forms where eigenvalues meet, and real symmetric ones like M22."""
    unitary = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    orthogonal = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    spectra = [
        (2.0, 2.0, -1.0),  # a double top eigenvalue
        (3.0, -1.0, -1.0),  # a double bottom eigenvalue
        (1.0, 1.0 - 1e-4, -2.0),  # the top two close, where arccos(det(B)/2) loses digits
        (1.0, 1.0 - 1e-12, -2.0),
        (5.0, 0.0, 0.0),  # rank one
        (0.7, 0.7, 0.7),  # a multiple of I in a rotated frame
    ]
    forms = [U @ np.diag(lam) @ U.conj().T for U in (unitary, orthogonal) for lam in spectra]
    v = np.array([1.0, 2.0 - 1.0j, 0.5j])
    forms += [
        np.outer(v, v.conj()),  # rank one
        1.5 * np.eye(3),
        -np.eye(3),  # M22 of M = -I
        np.diag([-3.0, -3.0, 0.5]),
        np.diag([0.5, 0.5, -2.0]),
    ]
    forms = np.array(forms)
    return 0.5 * (forms + np.conj(np.swapaxes(forms, 1, 2)))  # Hermitian to the last bit


@pytest.mark.parametrize("m", [1, 2, 3])
def test_top_eigenvalues_match_eigvalsh(m):
    rng = np.random.default_rng(26)
    forms = hermitian_stack(rng, m, 200)
    if m == 2:
        b = 1.0 + 2.0j
        special = np.array([
            [[1.5, b], [np.conj(b), 1.5]],  # equal diagonals
            [[2.0, 0.0], [0.0, -3.0]],  # b = 0
            [[-1.0, 1e9 * b], [1e9 * np.conj(b), -1.0 + 1e-6]],  # |b| >> |a - d|
            [[4.0, 0.0], [0.0, 4.0]],
        ])
        forms = np.concatenate([forms, special])
    if m == 3:
        forms = np.concatenate([forms, special_forms_of_three(rng)])
    if m > 1:
        forms = np.concatenate([forms, 1e150 * forms, 1e-150 * forms])
    for stack in (forms, forms.real):  # Hermitian, and real symmetric like M22
        top = np.max(np.abs(stack), axis=(1, 2), keepdims=True)  # |F|_F without overflow
        norm = top[:, 0, 0] * np.linalg.norm(stack / top, axis=(1, 2))
        bound = 8.0 * np.finfo(float).eps * (1.0 + norm)
        ref = np.linalg.eigvalsh(stack)[:, -1]
        # the sweeps stack forms on the trailing axis; frequency_condition's
        # limit passes M22 unstacked
        assert np.all(np.abs(kyp._top_eigenvalues(np.moveaxis(stack, 0, -1)) - ref) <= bound)
        unstacked = np.array([kyp._top_eigenvalues(F) for F in stack])
        assert np.all(np.abs(unstacked - ref) <= bound)


def test_top_eigenvalues_of_three_call_no_eigvalsh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the m = 3 top eigenvalue is in closed form")

    stack = np.concatenate([hermitian_stack(np.random.default_rng(31), 3, 50),
                            special_forms_of_three(np.random.default_rng(32))])
    ref = np.linalg.eigvalsh(stack)[:, -1]
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    top = kyp._top_eigenvalues(np.moveaxis(stack, 0, -1))
    bound = 8.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(stack, axis=(1, 2)))
    assert np.all(np.abs(top - ref) <= bound)
    assert float(kyp._top_eigenvalues(-np.eye(3))) == -1.0
    np.testing.assert_array_equal(kyp._top_eigenvalues(np.zeros((3, 3, 2))), [0.0, 0.0])


def test_top_eigenvalue_of_an_empty_form_is_minus_infinity():
    assert kyp._top_eigenvalues(np.zeros((0, 0))) == -np.inf
    np.testing.assert_array_equal(kyp._top_eigenvalues(np.zeros((0, 0, 3))), [-np.inf] * 3)


def test_pointwise_limit_is_computed_without_the_closed_forms(monkeypatch):
    top = kyp._top_eigenvalues

    def stacked_only(forms):
        assert forms.ndim == 3, "the pointwise limit must stay on np.linalg.eigh"
        return top(forms)

    monkeypatch.setattr(kyp, "_top_eigenvalues", stacked_only)
    inst = KypInstance(A=-np.eye(2), B=np.eye(2), M=np.diag([-3.0, -3.0, 0.5, 0.2]))
    rep = pointwise_condition(inst)
    assert rep.worst_omega == np.inf and rep.worst_value == 0.5


def test_frequency_sweep_residual_check_names_its_frequency(monkeypatch):
    solve = kyp._stacked_solve

    def spoiled(A, rhs, omegas, message):  # a wrong solution at omega = 1 only
        sol = solve(A, rhs, omegas, message)
        sol[:, :, omegas == 1.0] += 1.0
        return sol

    monkeypatch.setattr(kyp, "_stacked_solve", spoiled)
    grid = FrequencyGrid(np.array([0.5, 1.0, 2.0]))
    message = r"ill-conditioned transfer solve at omega = np\.float64\(1\.0\)"
    # the division of one state and the stacked LAPACK solve of two
    for inst in (passivity_instance(), contraction_pair_instance()):
        with pytest.raises(ValueError, match=message):
            frequency_condition(inst, grid=grid)


def test_frequency_condition_merges_hamiltonian_crossings():
    inst = resonance_instance()
    crossings = kyp.hamiltonian_crossings(inst)
    np.testing.assert_allclose(crossings, [7.29884069, 7.30115898], atol=1e-7)
    grid = default_grid(inst.A)
    rep = frequency_condition(inst, grid=grid)
    assert np.max(rep.values[np.isin(rep.omegas, grid.omegas)]) < -2499.0
    assert not rep.holds
    assert crossings[0] < rep.worst_omega < crossings[1]
    assert rep.worst_value > 6000.0


def test_pointwise_refutes_resonance_without_the_hamiltonian(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pointwise_condition must not use the Hamiltonian")

    monkeypatch.setattr(kyp, "hamiltonian_crossings", forbidden)
    inst = resonance_instance()
    rep = pointwise_condition(inst)
    assert not rep.holds
    # |G(i omega)|^2 = 1/((w0^2 - omega^2)^2 + c^2 omega^2) peaks at
    # omega^2 = w0^2 - c^2/2 with value 1/(c^2 w0^2 - c^4/4)
    w0_sq, c = 53.29, 0.00146
    peak_omega = np.sqrt(w0_sq - c**2 / 2.0)
    peak_value = 1.0 / (c**2 * w0_sq - c**4 / 4.0) - 2500.0
    assert abs(rep.worst_value - peak_value) <= 1e-10 * peak_value
    assert abs(rep.worst_omega - peak_omega) <= 1e-8 * peak_omega


def test_multisection_search_against_a_dense_oracle():
    lo, hi = np.array([0.0, 2.0, 5.0]), np.array([1.0, 3.5, 6.0])
    oracles = [np.linspace(a, b, 10**5 + 1) for a, b in zip(lo, hi)]
    peaks = [oracles[0][31416], oracles[1][77777]]  # on oracle nodes

    def g(w):  # unimodal, unimodal, bimodal
        return np.select(
            [w < 1.5, w < 4.0],
            [
                1.0 / (1.0 + 50.0 * (w - peaks[0]) ** 2),
                3.0 - np.cosh(w - peaks[1]),
            ],
            np.exp(-200.0 * (w - 5.2) ** 2) + 0.8 * np.exp(-200.0 * (w - 5.75) ** 2),
        )

    passes = []

    def f(w):  # points come bracket after bracket
        passes.append(w.reshape(lo.size, -1))
        return g(w)

    omega, value = kyp._multisection_maxima(f, lo, hi)
    points = np.stack(passes)  # (pass, bracket, point)
    assert points.shape == (kyp.SECTION_PASSES, lo.size, kyp.SECTION_POINTS)
    assert np.all((points > lo[:, None]) & (points < hi[:, None]))
    assert np.all(np.diff(np.max(g(points), axis=2), axis=0) >= 0.0)
    last = points[-1]
    final_width = 2.0 * (last[:, -1] - last[:, 0]) / (kyp.SECTION_POINTS - 1)
    assert np.all(final_width <= 0.618**40 * (hi - lo))
    assert np.all((omega > lo) & (omega < hi))
    np.testing.assert_array_equal(value, g(omega))
    best = np.array([np.max(g(o)) for o in oracles])
    np.testing.assert_allclose(value[:2], best[:2], rtol=1e-12, atol=0.0)
    assert 0.8 <= value[2] <= best[2] * (1.0 + 1e-12)


def contraction_pair_instance():
    # |G(i omega) u|^2 - |u|^2 with two inputs and ||G||_inf = 0.5: the grid holds
    return KypInstance(
        A=np.array([[-1.0, 0.5], [-0.5, -2.0]]), B=0.5 * np.eye(2), M=np.diag([1.0, 1.0, -1.0, -1.0])
    )


@pytest.mark.parametrize(
    "make, solves",
    [
        (grid_refuted_instance, 1),
        (passivity_instance, 1 + kyp.SECTION_PASSES),
        (resonance_instance, 1 + kyp.SECTION_PASSES),
        (contraction_pair_instance, 1 + kyp.SECTION_PASSES),
    ],
)
def test_pointwise_solves_each_frequency_set_once(make, solves, monkeypatch):
    # the grid once; when it holds, one stacked call per refinement pass, and
    # one stacked solve per call whatever the number of inputs
    def forbidden(*args, **kwargs):
        raise AssertionError("pointwise_condition must not use the Hamiltonian")

    monkeypatch.setattr(kyp, "hamiltonian_crossings", forbidden)
    monkeypatch.setattr(kyp, "_hamiltonian", forbidden)
    calls, solved = [], []
    forms, solve = kyp._pointwise_forms, kyp._stacked_solve

    def counted(inst, omegas):
        calls.append(omegas.size)
        return forms(inst, omegas)

    def counted_solve(A, rhs, omegas, message):
        solved.append(omegas.size)
        return solve(A, rhs, omegas, message)

    monkeypatch.setattr(kyp, "_pointwise_forms", counted)
    monkeypatch.setattr(kyp, "_stacked_solve", counted_solve)
    pointwise_condition(make())
    assert len(calls) == len(solved) == solves
    assert solved == calls


def bounded_real_instance():
    # |G(i omega)|^2 - 4 < 0 with G = 1/(i omega + 1): M22 = -4 is nonsingular
    # and the Hamiltonian has no eigenvalue on the imaginary axis
    return KypInstance(A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.diag([1.0, -4.0]))


@pytest.mark.parametrize(
    "make, decided_by, hamiltonian_eigvals",
    [
        # M22 = 0 is singular: only the Riccati route builds a (regularized) Hamiltonian
        (passivity_instance, "riccati", 0),
        (bounded_real_instance, "riccati", 1),
        (resonance_instance, "frequency_witness", 1),
    ],
)
def test_an_instance_builds_its_hamiltonian_once(make, decided_by, hamiltonian_eigvals, monkeypatch):
    # the frequency witness, the Riccati route and frequency_condition share one
    # Hamiltonian and one set of crossing points; all four checkers share the
    # eigenvalues of A
    inst = make()
    grid = default_grid(inst.A)
    builds, shapes = [], []
    build, eigvals = kyp._hamiltonian, np.linalg.eigvals

    def counted_build(*args):
        builds.append(1)
        return build(*args)

    def counted_eigvals(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(kyp, "_hamiltonian", counted_build)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    assert kyp_lmi(inst).decided_by == decided_by
    frequency_condition(inst, grid)
    pointwise_condition(inst, grid)
    iqc_trajectory_condition(inst, trials=1)
    n = inst.n
    assert len(builds) == 1
    assert shapes.count((2 * n, 2 * n)) == hamiltonian_eigvals
    assert shapes.count((n, n)) == 1


def test_cross_validate_resonance_has_no_defects():
    out = cross_validate(resonance_instance(), trials=2)
    assert out.lmi.status == "infeasible"
    assert not out.frequency.holds and not out.pointwise.holds
    assert out.iqc.status == "not_applicable"
    assert out.defects == [] and out.consistent


def test_sweeps_on_an_input_free_instance():
    # m = 0: the frequency-domain form is empty, so both sweeps hold everywhere
    inst = KypInstance(A=-np.eye(1), B=np.zeros((1, 0)), M=-np.eye(1))
    assert kyp_lmi(inst).status == "feasible"
    freq = frequency_condition(inst)
    point = pointwise_condition(inst)
    for report in (freq, point):
        assert report.holds
        assert report.worst_value == -np.inf and report.worst_omega == np.inf
    assert freq.limit_value == -np.inf
    out = cross_validate(inst, trials=2)
    assert out.lmi.status == "feasible" and out.frequency.holds and out.pointwise.holds
    assert out.defects == [] and out.consistent


def test_frequency_scalar_passivity_values():
    grid = FrequencyGrid(np.array([0.0, 1.0, 10.0]))
    rep = frequency_condition(passivity_instance(), grid=grid)
    assert rep.holds
    np.testing.assert_allclose(rep.values, [-2.0, -1.0, -2.0 / 101.0], atol=1e-12)
    assert rep.limit_value == 0.0


def test_frequency_fails_on_input_penalty():
    rep = frequency_condition(input_penalty_instance())
    assert not rep.holds
    assert abs(rep.worst_value - 1.0) <= 1e-9


def test_frequency_grid_must_ascend():
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([1.0, 1.0, 2.0]))


def test_default_grid_excludes_eigenfrequencies():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    freqs = imaginary_axis_frequencies(A)
    np.testing.assert_allclose(freqs, [1.0, 1.0])  # one entry per conjugate eigenvalue
    grid = default_grid(A)
    assert np.min(np.abs(grid.omegas - 1.0)) > 1e-8
    assert grid.omegas[0] == 0.0


def test_default_grid_excludes_zero_for_integrator():
    grid = default_grid(np.array([[0.0]]))
    assert np.all(grid.omegas > 0)


def test_pointwise_scalar_passivity():
    grid = FrequencyGrid(np.array([0.0, 1.0]))
    rep = pointwise_condition(passivity_instance(), grid=grid)
    assert rep.holds
    assert abs(rep.canonical_values[0, 0] + 2.0) <= 1e-12


def test_pointwise_fails_with_witness():
    rep = pointwise_condition(grid_refuted_instance())
    assert not rep.holds
    assert abs(rep.worst_omega) <= 1e-12
    assert abs(rep.worst_value - 4.0) <= 1e-9


def test_pointwise_limit_witness():
    # the form is -2/(1 + omega^2) + 0.1, below its omega -> inf limit 0.1 at
    # every finite frequency, so the limit is the worst value
    inst = KypInstance(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.array([[-3.0, 0.5], [0.5, 0.1]])
    )
    rep = pointwise_condition(inst)
    assert not rep.holds
    assert rep.worst_omega == np.inf
    assert rep.worst_value == 0.1


def test_pointwise_agrees_with_frequency():
    rng = np.random.default_rng(60)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        inst, _, _ = helpers.feasible_kyp(rng, n, m)
        grid = default_grid(inst.A, points=40)
        fr = frequency_condition(inst, grid=grid)
        pw = pointwise_condition(inst, grid=grid)
        assert fr.holds == pw.holds
        # same worst value over the same grid, independent assembly routes
        grid_worst_f = float(np.max(fr.values))
        grid_worst_p = float(np.max(pw.canonical_values)) if inst.m == 1 else None
        if grid_worst_p is not None:
            assert abs(grid_worst_f - grid_worst_p) <= 1e-8 * (1.0 + abs(grid_worst_f))


def test_iqc_integral_passivity_anchor():
    sample = iqc_integral(passivity_instance(), lambda t: np.array([np.exp(-t)]), horizon=30.0)
    assert abs(sample.integral + 0.5) <= 1e-4
    assert abs(sample.energy - 0.5) <= 1e-4
    assert sample.tail_norm <= 1e-6


def test_iqc_integral_zero_state_branch():
    # B = 0 keeps x at 0; the integral reduces to the M_uu quadrature
    inst = KypInstance(
        A=np.array([[-1.0]]), B=np.array([[0.0]]), M=np.diag([0.0, -1.0])
    )
    sample = iqc_integral(inst, lambda t: np.array([np.exp(-t)]), horizon=30.0)
    assert abs(sample.integral + 0.5) <= 1e-4


def test_iqc_integral_rejects_unsettled_tail():
    with pytest.raises(ValueError):
        iqc_integral(passivity_instance(), lambda t: np.array([np.exp(-t)]), horizon=3.0)


def test_iqc_trajectory_condition_holds():
    rep = iqc_trajectory_condition(passivity_instance(), trials=5, seed=1)
    assert rep.status == "holds"
    assert rep.worst_integral <= 1e-5 * (1.0 + 1.0)
    assert len(rep.samples) == 5


def test_iqc_trajectory_condition_fails():
    rep = iqc_trajectory_condition(input_penalty_instance(), trials=5, seed=1)
    assert rep.status == "fails"
    assert rep.worst_integral > 0


@pytest.mark.parametrize("batch", [4, 3])
def test_iqc_trajectory_condition_batch_matches_single_trials(batch, monkeypatch):
    inst = KypInstance(
        A=np.array([[-0.8, 0.5], [-0.3, -1.1]]),
        B=np.array([[1.0, 0.0], [0.4, 1.0]]),
        M=np.diag([1.0, -0.5, -2.0, 0.3]),
    )
    # trials per recurrence: all 4 at once, or a batch of 3 and one of 1
    monkeypatch.setattr(kyp, "IQC_BATCH_VALUES", batch * (2 * 4096 + 1) * 4)
    rep = iqc_trajectory_condition(inst, trials=4, seed=9)
    # the same draws, in the same order, as the sampler makes them
    rng = np.random.default_rng(9)
    horizon = max(30.0, 24.0 / -np.max(inst.eigenvalues.real))
    steps = max(4096, int(np.ceil(kyp.IQC_STEPS_PER_UNIT * horizon)))
    assert len(rep.samples) == 4
    for sample in rep.samples:
        u = kyp._ramped_input(rng, inst.m, horizon / 3.0)
        single = iqc_integral(inst, u, horizon, steps)
        for field in ("integral", "energy", "tail_norm"):
            a, b = getattr(sample, field), getattr(single, field)
            assert abs(a - b) <= 1e-12 * abs(b)


def test_iqc_samples_match_the_einsum_integrand():
    # (x, u)'M(x, u) and |u|^2 along each trial, as einsum over (time, i, trial)
    inst = KypInstance(
        A=np.array([[-0.8, 0.5], [-0.3, -1.1]]),
        B=np.array([[1.0, 0.0], [0.4, 1.0]]),
        M=np.diag([1.0, -0.5, -2.0, 0.3]) + 0.1,
    )
    grid = TimeGrid(0.0, 30.0, 4096)
    times = TimeGrid(0.0, 30.0, 2 * 4096).times()
    rng = np.random.default_rng(10)
    u_stages = np.stack([kyp._ramped_input(rng, 2, 10.0)(times) for _ in range(3)], axis=-1)
    samples = kyp._iqc_samples(inst, u_stages, grid)
    g = np.einsum("ij,jtk->itk", inst.B, u_stages)
    path = rk4_linear(inst.A, g, np.zeros((2, 3)), grid)  # (time, i, trial)
    u = u_stages[:, ::2].transpose(1, 0, 2)
    Z = np.concatenate([path, u], axis=1)
    integrals = np.trapezoid(np.einsum("tik,ij,tjk->tk", Z, inst.M, Z), dx=grid.h, axis=0)
    energies = np.trapezoid(np.einsum("tik,tik->tk", u, u), dx=grid.h, axis=0)
    assert len(samples) == 3
    for sample, integral, energy in zip(samples, integrals, energies):
        assert abs(sample.integral - integral) <= 1e-12 * abs(integral)
        assert abs(sample.energy - energy) <= 1e-12 * abs(energy)


def test_ramped_input_matches_the_masked_formula_bit_for_bit():
    # the sinusoids run only on (0, active); the values are those of
    # np.where over every time, endpoints and outside times included
    def masked(rng, m, active):
        freqs = rng.uniform(0.2, 2.0, size=3)
        amps = rng.normal(size=(m, 3))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, 3))

        def u(t):
            t = np.asarray(t, dtype=float)[..., None]
            env = np.sin(np.pi * t / active) ** 2
            waves = np.sum(amps * np.sin(freqs * t[..., None] + phases), axis=-1)
            return np.where((0.0 < t) & (t < active), env * waves, 0.0)

        return u

    active = 10.0
    times = [0.0, active, 3.7, -1.0, np.linspace(-1.0, 3.0 * active, 1001),
             np.linspace(0.0, active, 35).reshape(5, 7)]
    for m in (1, 3):
        ref = masked(np.random.default_rng(12), m, active)
        u = kyp._ramped_input(np.random.default_rng(12), m, active)
        for t in times:
            got, want = u(t), np.moveaxis(ref(t), -1, 0)
            assert got.shape == want.shape == (m,) + np.shape(t)
            assert got.tobytes() == want.tobytes()


def test_iqc_horizon_over_step_budget_not_applicable(caplog):
    horizon = 1.5 * kyp.IQC_MAX_STEPS / kyp.IQC_STEPS_PER_UNIT
    with caplog.at_level(logging.WARNING, logger="conecert.kyp"):
        rep = iqc_trajectory_condition(passivity_instance(), trials=2, horizon=horizon)
    assert rep.status == "not_applicable"
    assert rep.samples == []
    assert "196608 steps, over the budget of 131072" in caplog.text


def test_iqc_trials_over_budget_raise():
    with pytest.raises(ValueError, match="over the budget of 100"):
        iqc_trajectory_condition(passivity_instance(), trials=kyp.IQC_MAX_TRIALS + 1)


def test_iqc_not_applicable_without_decay():
    inst = KypInstance(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.array([[0.0], [1.0]]), M=-np.eye(3)
    )
    rep = iqc_trajectory_condition(inst, trials=2)
    assert rep.status == "not_applicable"


def test_cross_validate_consistent_feasible():
    out = cross_validate(passivity_instance(), trials=5, seed=2)
    assert out.lmi.status == "feasible"
    assert out.frequency.holds and out.pointwise.holds and out.iqc.holds
    assert out.consistent and out.defects == []


def test_cross_validate_consistent_infeasible():
    out = cross_validate(input_penalty_instance(), trials=5, seed=2)
    assert out.lmi.status == "infeasible"
    assert not out.frequency.holds and not out.pointwise.holds
    assert out.iqc.status == "fails"
    assert out.consistent


def test_cross_validate_randomized_ensembles_agree():
    rng = np.random.default_rng(61)
    for _ in range(4):
        inst, _, _ = helpers.feasible_kyp(rng, int(rng.integers(1, 3)), 1)
        out = cross_validate(inst, trials=3, seed=0)
        assert out.consistent, out.defects
        assert out.frequency.holds
    for _ in range(4):
        inst, om0 = helpers.infeasible_kyp(rng, int(rng.integers(1, 3)), 1)
        omegas = np.unique(np.append(default_grid(inst.A).omegas, om0))
        out = cross_validate(inst, grid=FrequencyGrid(omegas), trials=3, seed=0)
        assert out.consistent, out.defects
        assert not out.frequency.holds
        assert out.lmi.status != "feasible"
