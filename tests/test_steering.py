"""Gramian steering: vector case, PSD-cone case, controllability checks."""

import numpy as np
import pytest
import scipy.linalg

import helpers
from conecert import rankone, steering
from conecert import (
    TimeGrid,
    controllability_rank,
    decompose,
    expm,
    gramian,
    min_energy_input,
    ode_solve,
    psd_steer,
    verify_k_controllability,
)
from conecert.steering import controllability_matrix


def test_controllability_matrix_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(controllability_matrix(A, B), [[0.0, 1.0], [1.0, 0.0]])


def test_controllability_rank_cases():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert controllability_rank(A, np.array([[0.0], [1.0]])) == (True, 2)
    assert controllability_rank(A, np.zeros((2, 1))) == (False, 0)
    assert controllability_rank(np.array([[-1.0]]), np.array([[1.0]])) == (True, 1)


def test_controllability_rank_similarity_invariant():
    rng = np.random.default_rng(50)
    A, B = helpers.controllable_pair(rng, 3, 1)
    T = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    _, r1 = controllability_rank(A, B)
    _, r2 = controllability_rank(np.linalg.solve(T, A @ T), np.linalg.solve(T, B))
    assert r1 == r2 == 3


def test_gramian_scalar_unit():
    g = gramian(np.array([[0.0]]), np.array([[1.0]]), t1=1.0)
    np.testing.assert_allclose(g.W, [[1.0]], atol=1e-12)
    assert abs(g.cond - 1.0) <= 1e-12


def test_gramian_matches_lyapunov_ode():
    # W(t) solves W' = AW + WA' + BB', W(0) = 0: independent integration route
    rng = np.random.default_rng(51)
    A = rng.standard_normal((3, 3))
    A -= (np.max(np.real(np.linalg.eigvals(A))) + 0.2) * np.eye(3)
    B = rng.standard_normal((3, 2))
    BBt = B @ B.T
    grid = TimeGrid(0.0, 1.5, 1024)
    ref = ode_solve(
        lambda t, W: A @ W + W @ A.T + BBt, np.zeros((3, 3)), grid, error_estimate=False
    )
    g = gramian(A, B, t1=1.5, steps=1024)
    assert np.linalg.norm(g.W - ref.values[-1]) <= 1e-6 * (1.0 + np.linalg.norm(g.W))


def test_gramian_matches_infinite_horizon_lyapunov():
    rng = np.random.default_rng(52)
    A = rng.standard_normal((3, 3))
    A -= (np.max(np.real(np.linalg.eigvals(A))) + 1.0) * np.eye(3)
    B = rng.standard_normal((3, 2))
    W_inf = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    g = gramian(A, B, t1=40.0, steps=4096)
    assert np.linalg.norm(g.W - W_inf) <= 1e-8 * (1.0 + np.linalg.norm(W_inf))


def test_min_energy_scalar_constant_input():
    # A = 0, B = 1, steer 0 -> 1 in time 1: W = 1, eta = 1, u(t) = 1
    sig = min_energy_input(np.array([[0.0]]), np.array([[1.0]]), np.zeros(1), np.ones(1))
    np.testing.assert_allclose(sig.values, 1.0, atol=1e-12)
    assert sig.endpoint_error <= 1e-10


def test_min_energy_free_motion_needs_no_input():
    rng = np.random.default_rng(53)
    A, B = helpers.controllable_pair(rng, 3, 2)
    x0 = rng.standard_normal(3)
    sig = min_energy_input(A, B, x0, expm(A) @ x0)
    assert np.max(np.abs(sig.values)) <= 1e-9


def test_min_energy_double_integrator_endpoint():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sig = min_energy_input(A, B, np.zeros(2), np.array([1.0, 0.0]))
    assert sig.endpoint_error <= 1e-8


def test_min_energy_input_energy_identity():
    # integral of ||u||^2 equals eta' W eta for u = B' e^{A'(t1-t)} eta
    rng = np.random.default_rng(54)
    A, B = helpers.controllable_pair(rng, 2, 1)
    x1 = rng.standard_normal(2)
    sig = min_energy_input(A, B, np.zeros(2), x1, steps=1024)
    h = 0.5 * sig.grid.h  # values sit on the half grid
    energy = np.trapezoid(np.sum(sig.values**2, axis=1), dx=h)
    ref = float(sig.eta @ sig.gramian.W @ sig.eta)
    assert abs(energy - ref) <= 1e-6 * (1.0 + abs(ref))


def test_min_energy_rejects_uncontrollable():
    A = np.diag([-1.0, -2.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        min_energy_input(A, B, np.zeros(2), np.ones(2))


def test_psd_steer_zero_to_zero():
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    plan = psd_steer(A, B, np.zeros((1, 1)), np.zeros((1, 1)))
    np.testing.assert_allclose(plan.trajectory.values, 0.0)
    assert plan.inputs.shape[0] == 0
    assert plan.endpoint_errors == (0.0, 0.0)


def test_psd_steer_scalar():
    plan = psd_steer(np.array([[0.0]]), np.array([[1.0]]), np.zeros((1, 1)), np.ones((1, 1)))
    assert max(plan.endpoint_errors) <= 1e-8
    np.testing.assert_allclose(plan.trajectory.values[0, 0, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(plan.trajectory.values[-1, 0, 0], 1.0, atol=1e-8)


def test_psd_steer_identity_to_identity():
    rng = np.random.default_rng(56)
    A, B = helpers.controllable_pair(rng, 2, 1)
    plan = psd_steer(A, B, np.eye(2), np.eye(2))
    tol = 1e-5 * (1.0 + np.sqrt(2.0))
    assert max(plan.endpoint_errors) <= tol


def test_psd_steer_trajectory_is_solution():
    # the stacked trajectory must pass the decompose dynamics gate
    rng = np.random.default_rng(57)
    A, B = helpers.controllable_pair(rng, 2, 1)
    X0 = helpers.random_psd(rng, 2, rank=1)
    X1 = helpers.random_psd(rng, 2)
    plan = psd_steer(A, B, X0, X1)
    traj = plan.trajectory
    assert traj.dynamics_residual is not None and traj.dynamics_residual <= 1e-6
    dec = decompose(traj, A, B)
    assert dec.reconstruction_error <= 1e-4 * max(dec.max_q_norm, 1.0)


def test_psd_steer_rank_change_endpoints():
    rng = np.random.default_rng(58)
    A, B = helpers.controllable_pair(rng, 3, 2)
    X0 = helpers.random_psd(rng, 3, rank=1)
    X1 = helpers.random_psd(rng, 3, rank=3)
    plan = psd_steer(A, B, X0, X1)
    tol = 1e-5 * (1.0 + np.linalg.norm(X1))
    assert max(plan.endpoint_errors) <= tol
    np.testing.assert_allclose(plan.trajectory.values[0, :3, :3], X0, atol=tol)
    np.testing.assert_allclose(plan.trajectory.values[-1, :3, :3], X1, atol=tol)


def test_psd_steer_integrates_all_components_once(monkeypatch):
    # one batched run gives both the trajectory and each component's endpoint
    rng = np.random.default_rng(60)
    A, B = helpers.controllable_pair(rng, 3, 2)
    X0 = helpers.random_psd(rng, 3, rank=2)
    X1 = helpers.random_psd(rng, 3, rank=3)
    runs = []
    kernel = rankone.rk4_linear
    for module in (rankone, steering):
        monkeypatch.setattr(module, "rk4_linear", lambda *args: runs.append(1) or kernel(*args))
    plan = psd_steer(A, B, X0, X1)
    assert len(runs) == 1
    assert len(plan.component_endpoint_errors) == 3 == plan.inputs.shape[0]
    assert all(isinstance(e, float) for e in plan.component_endpoint_errors)
    # each component alone, steered and integrated by min_energy_input; X0
    # has rank 2, so the third component starts at zero
    for x0, x1, err, u in zip(
        steering._psd_factors("X0", X0).tolist() + [[0.0] * 3],
        steering._psd_factors("X1", X1),
        plan.component_endpoint_errors,
        plan.inputs,
    ):
        sig = min_energy_input(A, B, np.array(x0), x1)
        np.testing.assert_array_equal(sig.values[::2], u)
        assert abs(err - sig.endpoint_error) <= 1e-12
        assert err <= 1e-8


def test_psd_steer_rejects_uncontrollable():
    A = np.diag([-1.0, -2.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        psd_steer(A, B, np.eye(2), np.eye(2))


def test_verify_k_controllability_pass():
    rng = np.random.default_rng(59)
    A, B = helpers.controllable_pair(rng, 2, 1)
    report = verify_k_controllability(A, B)
    assert report.controllable and report.rank == 2
    assert report.obstruction is None


def test_verify_k_controllability_obstruction():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = verify_k_controllability(A, np.zeros((2, 1)))
    assert not report.controllable and report.rank == 0
    w = report.obstruction
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    # obstruction annihilates the reachable subspace
    assert np.linalg.norm(controllability_matrix(A, np.zeros((2, 1))).T @ w) <= 1e-10
