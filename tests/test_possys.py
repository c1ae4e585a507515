"""Positive-system L1 gain certificates and dissipation verification."""

import numpy as np
import pytest

import helpers
from conecert import (
    PositiveSystem,
    SupplyRate,
    TimeGrid,
    TrajectoryGrid,
    empirical_l1_gain,
    exact_l1_gain,
    gain_supply_rate,
    is_hurwitz_metzler,
    is_metzler,
    l1_certificate,
    l1_gain_bisection,
    minimal_certificate_vector,
    ode_solve,
    simulate,
    simulate_and_check_dissipation,
)
from conecert import possys
from conecert.numerics import interpolate_samples


def test_is_metzler():
    assert is_metzler([[-1.0, 1.0], [0.0, -1.0]])
    assert not is_metzler([[-1.0, -0.1], [0.0, -1.0]])
    assert is_metzler(np.diag([-3.0, 5.0]))


def test_is_hurwitz_metzler():
    assert is_hurwitz_metzler([[-1.0, 1.0], [0.0, -1.0]])
    assert not is_hurwitz_metzler([[0.0]])
    assert not is_hurwitz_metzler([[-1.0, 2.0], [2.0, -1.0]])


def test_is_hurwitz_metzler_rejects_non_metzler():
    with pytest.raises(ValueError):
        is_hurwitz_metzler([[-1.0, -0.5], [0.0, -1.0]])


def test_hurwitz_lp_agrees_with_eigenvalues():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        M = rng.uniform(0.0, 1.0, (n, n))
        d = float(rng.uniform(0.0, 2.0 * n))
        A = M - d * np.eye(n)
        if not is_metzler(A):
            continue
        spectral = float(np.max(np.real(np.linalg.eigvals(A))))
        if abs(spectral) < 1e-9:
            continue  # too close to the boundary to classify either way
        assert is_hurwitz_metzler(A) == (spectral < 0)


def test_positive_system_validation():
    with pytest.raises(ValueError):
        PositiveSystem(A=np.array([[-1.0, -0.5], [0.0, -1.0]]), B=np.ones((2, 1)))
    with pytest.raises(ValueError):
        PositiveSystem(A=-np.eye(2), B=np.array([[1.0], [-0.2]]))
    with pytest.raises(ValueError, match="^B has no columns"):
        PositiveSystem(A=-np.eye(2), B=np.zeros((2, 0)))
    with pytest.raises(ValueError, match="^A is 0x0"):
        PositiveSystem(A=np.zeros((0, 0)), B=np.zeros((0, 1)))


def test_exact_l1_gain_scalar():
    sys_ = PositiveSystem(A=np.array([[-2.0]]), B=np.array([[1.0]]))
    assert abs(exact_l1_gain(sys_) - 0.5) <= 1e-12


def test_exact_l1_gain_jordan():
    sys_ = PositiveSystem(A=np.array([[-1.0, 1.0], [0.0, -1.0]]), B=np.array([[1.0], [1.0]]))
    assert abs(exact_l1_gain(sys_) - 3.0) <= 1e-12


def test_exact_l1_gain_identity():
    for n in (1, 3, 5):
        sys_ = PositiveSystem(A=-np.eye(n), B=np.eye(n))
        assert abs(exact_l1_gain(sys_) - 1.0) <= 1e-12


def test_exact_l1_gain_requires_hurwitz():
    with pytest.raises(ValueError):
        exact_l1_gain(PositiveSystem(A=np.array([[0.0]]), B=np.array([[1.0]])))


def test_minimal_certificate_requires_hurwitz():
    sys_ = PositiveSystem(A=np.array([[-1.0, 2.0], [1.0, -1.0]]), B=np.ones((2, 1)))
    with pytest.raises(ValueError, match="^A is not Hurwitz; the L1 gain is unbounded$"):
        minimal_certificate_vector(sys_)


def test_l1_certificate_jordan():
    sys_ = PositiveSystem(A=np.array([[-1.0, 1.0], [0.0, -1.0]]), B=np.array([[1.0], [1.0]]))
    cert = l1_certificate(sys_, 3.0)
    assert cert is not None
    np.testing.assert_allclose(cert.p, [1.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(cert.slack_state, 0.0, atol=1e-9)
    np.testing.assert_allclose(cert.slack_input, 0.0, atol=1e-9)


def test_l1_certificate_identity():
    sys_ = PositiveSystem(A=-np.eye(3), B=np.eye(3))
    cert = l1_certificate(sys_, 1.0)
    np.testing.assert_allclose(cert.p, 1.0, atol=1e-9)


def test_l1_certificate_below_gain_infeasible():
    sys_ = PositiveSystem(A=np.array([[-2.0]]), B=np.array([[1.0]]))
    assert l1_certificate(sys_, 0.4) is None


def test_certificate_invariants():
    rng = np.random.default_rng(31)
    for _ in range(20):
        sys_ = helpers.positive_system(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        g = exact_l1_gain(sys_)
        cert = l1_certificate(sys_, g * 1.01)
        assert cert is not None
        assert np.min(cert.p) > 0
        assert np.min(cert.slack_state) >= -1e-8
        assert np.min(cert.slack_input) >= -1e-8


def test_minimal_certificate_closed_form():
    sys_ = PositiveSystem(A=np.array([[-1.0, 1.0], [0.0, -1.0]]), B=np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(
        minimal_certificate_vector(sys_), -np.ones(2) @ np.linalg.inv(sys_.A)
    )


def test_tightness_window():
    rng = np.random.default_rng(32)
    for _ in range(20):
        sys_ = helpers.positive_system(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        g = exact_l1_gain(sys_)
        assert l1_certificate(sys_, g * (1 + 1e-6)) is not None
        assert l1_certificate(sys_, g * (1 - 1e-3)) is None


def test_bisection_consistency():
    rng = np.random.default_rng(33)
    for _ in range(20):
        sys_ = helpers.positive_system(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        g = exact_l1_gain(sys_)
        assert abs(l1_gain_bisection(sys_) - g) <= 1e-6 * g


def test_bisection_of_a_zero_gain_ends(monkeypatch):
    # B = 0: every probe is feasible, so the bracket never closes relative to
    # its upper end; the search ends when the probe underflows to zero
    sys_ = PositiveSystem(A=np.array([[-1.0, 0.0], [0.5, -2.0]]), B=np.zeros((2, 1)))
    probes = []
    feasible = possys._gain_lp_feasible
    monkeypatch.setattr(possys, "_gain_lp_feasible",
                        lambda s, g: probes.append(g) or feasible(s, g))
    assert l1_gain_bisection(sys_) == 5e-324
    assert len(probes) <= 1100


def test_l1_certificate_just_below_gain():
    # the LP cross-check at this gamma returns a vertex that fails the slack
    # check; within tol of the gain the closed form decides
    sys_ = PositiveSystem(
        A=np.array([[-1.6352207853162564, 0.02967488385246675],
                    [0.9392218526135089, -1.8849607184816306]]),
        B=np.array([[0.18486418226300527, 0.07156478423739909, 0.5040179858988221],
                    [0.4876293848129365, 0.9160125489834334, 0.10366490746230453]]),
    )
    cert = l1_certificate(sys_, exact_l1_gain(sys_) * (1 - 1e-9))
    assert cert is not None
    np.testing.assert_allclose(cert.p, minimal_certificate_vector(sys_))


def test_gain_supply_rate_evaluation():
    sys_ = PositiveSystem(A=-np.eye(2), B=np.ones((2, 1)))
    w = gain_supply_rate(sys_, 2.0)
    assert abs(w.along(np.array([[1.0, 2.0]]), np.array([[3.0]]))[0] - (2.0 * 3.0 - 3.0)) <= 1e-12


def test_simulation_positivity():
    rng = np.random.default_rng(34)
    grid = TimeGrid(0.0, 8.0, 1024)
    for _ in range(10):
        sys_ = helpers.positive_system(rng, int(rng.integers(1, 6)), int(rng.integers(1, 3)))
        u = helpers.nonneg_input(rng, sys_.m, grid)
        x0 = np.abs(rng.standard_normal(sys_.n))
        states = simulate(sys_, TrajectoryGrid(grid, u), x0, grid)
        assert np.min(states.values) >= -1e-8


def test_dissipation_zero_trajectory():
    sys_ = PositiveSystem(A=np.array([[-2.0]]), B=np.array([[1.0]]))
    grid = TimeGrid(0.0, 4.0, 256)
    rep = simulate_and_check_dissipation(
        sys_,
        gain_supply_rate(sys_, 0.5),
        np.array([0.5]),
        TrajectoryGrid(grid, np.zeros((257, 1))),
        np.zeros(1),
    )
    assert rep.holds
    np.testing.assert_allclose(rep.margins, 0.0, atol=1e-12)
    assert rep.state_min >= 0.0


def test_dissipation_scalar_closed_form():
    # x(t) = e^{-t} - e^{-2t} under u = e^{-t}; V = 0.5 x, w = 0.5 u - x
    sys_ = PositiveSystem(A=np.array([[-2.0]]), B=np.array([[1.0]]))
    grid = TimeGrid(0.0, 10.0, 2048)
    t = grid.times()
    u = np.exp(-t)[:, None]
    rep = simulate_and_check_dissipation(
        sys_, gain_supply_rate(sys_, 0.5), np.array([0.5]), TrajectoryGrid(grid, u), np.zeros(1)
    )
    assert rep.holds
    # sampled u is interpolated linearly, which biases x by ~h^2/8 * |u''|
    x_ref = np.exp(-t) - np.exp(-2.0 * t)
    np.testing.assert_allclose(rep.states.values[:, 0], x_ref, atol=1e-5)
    w_exact = 0.5 * (1.0 - np.exp(-10.0)) - (
        (1.0 - np.exp(-10.0)) - 0.5 * (1.0 - np.exp(-20.0))
    )
    assert abs(rep.supply_integral - w_exact) <= 1e-4
    assert rep.worst_window <= rep.quad_tol


def test_dissipation_equilibrium():
    # at x0 = -A^{-1}B u0 with constant input, V is constant and the supply
    # integral is w(x0, u0) * (t1 - t0) >= 0
    sys_ = PositiveSystem(
        A=np.array([[-2.0, 0.5], [0.3, -1.5]]), B=np.array([[1.0], [0.5]])
    )
    gamma = exact_l1_gain(sys_) * 1.5
    p = minimal_certificate_vector(sys_)
    u0 = np.array([0.8])
    x0 = -np.linalg.solve(sys_.A, sys_.B @ u0)
    grid = TimeGrid(0.0, 5.0, 512)
    u = np.tile(u0, (513, 1))
    supply = gain_supply_rate(sys_, gamma)
    rep = simulate_and_check_dissipation(sys_, supply, p, TrajectoryGrid(grid, u), x0)
    assert rep.holds
    assert abs(rep.storage_delta) <= 1e-7
    w0 = supply.along(x0[None], u0[None])[0]
    assert w0 >= 0.0
    assert abs(rep.supply_integral - w0 * 5.0) <= 1e-8


def test_dissipation_rejects_negative_input():
    sys_ = PositiveSystem(A=-np.eye(1), B=np.eye(1))
    grid = TimeGrid(0.0, 1.0, 8)
    u = np.full((9, 1), -0.5)
    with pytest.raises(ValueError):
        simulate_and_check_dissipation(
            sys_, gain_supply_rate(sys_, 1.0), np.ones(1), TrajectoryGrid(grid, u), np.zeros(1)
        )
    with pytest.raises(ValueError):
        simulate_and_check_dissipation(
            sys_,
            gain_supply_rate(sys_, 1.0),
            np.ones(1),
            TrajectoryGrid(grid, np.zeros((9, 1))),
            -np.ones(1),
        )


def test_empirical_gain_below_certified():
    rng = np.random.default_rng(35)
    grid = TimeGrid(0.0, 12.0, 2048)
    for _ in range(10):
        sys_ = helpers.positive_system(rng, int(rng.integers(1, 6)), int(rng.integers(1, 3)))
        g = exact_l1_gain(sys_)
        u = helpers.nonneg_input(rng, sys_.m, grid)
        emp = empirical_l1_gain(sys_, TrajectoryGrid(grid, u))
        assert emp <= g * (1 + 1e-3)


def test_simulate_sampled_input_matches_ode_solve():
    # samples on a shorter, coarser grid than the run: interpolation between
    # them and clamping after their end both enter the stage values
    rng = np.random.default_rng(31)
    sys_ = helpers.positive_system(rng, 3, 2)
    u_grid = TimeGrid(0.0, 2.0, 50)
    u_vals = helpers.nonneg_input(rng, 2, u_grid)
    grid = TimeGrid(0.0, 3.0, 300)
    x0 = rng.uniform(0.0, 1.0, 3)

    def f(t, x):
        return sys_.A @ x + sys_.B @ interpolate_samples(u_grid, u_vals, t)

    ref = ode_solve(f, x0, grid)
    out = simulate(sys_, TrajectoryGrid(u_grid, u_vals), x0, grid)
    scale = float(np.max(np.abs(ref.values)))
    assert float(np.max(np.abs(out.values - ref.values))) <= 1e-12 * scale
