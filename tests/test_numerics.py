"""Linear-algebra and integration primitives against closed-form oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import (
    TimeGrid,
    TrajectoryGrid,
    expm,
    matrix_rank,
    ode_solve,
    pinv,
)
from conecert.numerics import central_diff4, cumtrapz, interpolate_samples, rk4_linear
from conecert.steering import _expm_table


def test_time_grid_samples():
    g = TimeGrid(0.0, 2.0, 4)
    assert g.h == 0.5
    np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_time_grid_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, np.inf, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_trajectory_grid_sample_count():
    g = TimeGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        TrajectoryGrid(g, np.zeros(3))
    TrajectoryGrid(g, np.zeros(4))


def test_pinv_rank_deficient_diagonal():
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_identity():
    np.testing.assert_allclose(pinv(np.eye(2)), np.eye(2))


def test_pinv_least_squares():
    np.testing.assert_allclose(pinv([[1.0], [1.0]]), [[0.5, 0.5]])


def test_pinv_moore_penrose_ensemble():
    # 200 random matrices including rank-deficient ones
    rng = np.random.default_rng(1)
    for k in range(200):
        r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        M = rng.standard_normal((r, c))
        if k % 3 == 0 and min(r, c) > 1:
            M[:, -1] = M[:, 0]  # force rank deficiency
        P = pinv(M)
        t = 1e-8 * (1.0 + np.linalg.norm(M))
        assert np.linalg.norm(M @ P @ M - M) <= t
        assert np.linalg.norm(P @ M @ P - P) <= t
        assert np.linalg.norm((M @ P).T - M @ P) <= t
        assert np.linalg.norm((P @ M).T - P @ M) <= t


def test_matrix_rank_cutoff():
    assert matrix_rank(np.diag([1.0, 1e-12])) == 1
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(4)) == 4


def test_expm_zero():
    np.testing.assert_allclose(expm(np.zeros((2, 2))), np.eye(2))


def test_expm_scalar():
    np.testing.assert_allclose(expm([[1.0]]), [[np.e]], rtol=1e-12)


def test_expm_nilpotent():
    np.testing.assert_allclose(
        expm([[0.0, 1.0], [0.0, 0.0]]), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14
    )


def test_expm_matches_scipy():
    # n <= 8 and 1-norms up to 250, so up to 6 squarings; with the zero
    # matrix, a nilpotent matrix and a rotation generator, both of which
    # need squaring (1-norm over theta_13 = 5.37)
    rng = np.random.default_rng(2)
    cases = [
        np.zeros((3, 3)),
        20.0 * np.triu(rng.standard_normal((5, 5)), 1),
        np.array([[0.0, 40.0], [-40.0, 0.0]]),
    ]
    for _ in range(300):
        d = int(rng.integers(1, 9))
        M = rng.standard_normal((d, d))
        cases.append(M * (rng.uniform(0.0, 250.0) / np.linalg.norm(M, 1)))
    for M in cases:
        ref = scipy.linalg.expm(M)
        assert np.linalg.norm(expm(M) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_ode_solve_exponential_decay():
    grid = TimeGrid(0.0, 1.0, 256)
    out = ode_solve(lambda t, x: -x, np.array([1.0]), grid)
    assert abs(out.values[-1, 0] - np.exp(-1.0)) <= 1e-6
    assert out.local_error is not None and out.local_error <= 1e-8


def test_ode_solve_constant():
    grid = TimeGrid(0.0, 1.0, 16)
    out = ode_solve(lambda t, x: 0.0 * x, np.array([3.0, -2.0]), grid)
    np.testing.assert_allclose(out.values, np.tile([3.0, -2.0], (17, 1)))


def test_ode_solve_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    grid = TimeGrid(0.0, 1.0, 128)
    out = ode_solve(lambda t, x: A @ x, np.array([0.0, 1.0]), grid)
    np.testing.assert_allclose(out.values[-1], [1.0, 1.0], atol=1e-6)


def test_ode_solve_matches_expm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d))
        A *= min(1.0, 5.0 / np.linalg.norm(A, 2))
        x0 = rng.standard_normal(d)
        t1 = float(rng.uniform(0.5, 2.0))
        grid = TimeGrid(0.0, t1, 1024)
        out = ode_solve(lambda t, x: A @ x, x0, grid, error_estimate=False)
        ref = expm(A * t1) @ x0
        assert np.linalg.norm(out.values[-1] - ref) <= 1e-6 * (1.0 + np.linalg.norm(ref))


def test_ode_solve_skips_error_estimate():
    grid = TimeGrid(0.0, 1.0, 8)
    out = ode_solve(lambda t, x: -x, np.array([1.0]), grid, error_estimate=False)
    assert out.local_error is None


def test_ode_solve_matrix_state():
    A = np.array([[-0.3, 0.2], [0.0, -0.5]])
    grid = TimeGrid(0.0, 1.0, 512)
    out = ode_solve(lambda t, X: A @ X, np.eye(2), grid, error_estimate=False)
    assert out.values.shape == (513, 2, 2)
    np.testing.assert_allclose(out.values[-1], expm(A), atol=1e-9)


def _stage_times(grid):
    return TimeGrid(grid.t0, grid.t1, 2 * grid.steps).times()


def _rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_rk4_linear_matches_ode_solve_callable_input():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
    B = rng.standard_normal((4, 2))

    def u(t):
        return np.array([np.sin(3.0 * t), np.exp(-t)])

    grid = TimeGrid(0.5, 4.0, 700)
    x0 = rng.standard_normal(4)
    ref = ode_solve(lambda t, x: A @ x + B @ u(t), x0, grid, error_estimate=False)
    g = np.stack([B @ u(t) for t in _stage_times(grid)])
    out = rk4_linear(A, g, x0, grid)
    assert out.values.shape == (701, 4)
    assert _rel_dev(out.values, ref.values) <= 1e-12


def test_rk4_linear_matches_ode_solve_batched_state():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    W = rng.standard_normal((3, 5))

    def G(t):
        return W * np.cos(np.arange(1, 6) * t)

    grid = TimeGrid(0.0, 3.0, 512)
    X0 = rng.standard_normal((3, 5))
    ref = ode_solve(lambda t, X: A @ X + G(t), X0, grid, error_estimate=False)
    out = rk4_linear(A, np.stack([G(t) for t in _stage_times(grid)]), X0, grid)
    assert out.values.shape == (513, 3, 5)
    assert _rel_dev(out.values, ref.values) <= 1e-12


def test_rk4_linear_matches_ode_solve_time_varying_field():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((3, 3)) - np.eye(3)
    E = rng.standard_normal((3, 3))

    def F(t):
        return A + np.sin(2.0 * t) * E

    grid = TimeGrid(0.0, 2.0, 400)
    F_stages = np.stack([F(t) for t in _stage_times(grid)])
    X0 = rng.standard_normal((3, 3))
    ref = ode_solve(lambda t, X: F(t) @ X, X0, grid, error_estimate=False)
    out = rk4_linear(F_stages, None, X0, grid)
    assert _rel_dev(out.values, ref.values) <= 1e-12
    # backward from t1: in tau = t1 - t the field is -F, met in reverse order
    ref = ode_solve(lambda tau, X: -F(2.0 - tau) @ X, X0, TimeGrid(0.0, 2.0, 400),
                    error_estimate=False)
    out = rk4_linear(-F_stages[::-1], None, X0, TimeGrid(0.0, 2.0, 400))
    assert _rel_dev(out.values, ref.values) <= 1e-12


def test_rk4_linear_rejects_diverging_field():
    # x_k = T^k x0 with T near 1.7e10 leaves the double range at step 31 from
    # 1 and at step 60 from 1e-300; the power T^32 overflows before either,
    # and the first non-finite sample is reported all the same
    grid = TimeGrid(0.0, 100.0, 100)
    with pytest.raises(ValueError, match="non-finite state encountered at t = 31$"):
        rk4_linear(np.array([[800.0]]), None, np.ones(1), grid)
    with pytest.raises(ValueError, match="non-finite state encountered at t = 60$"):
        rk4_linear(np.diag([800.0, -1.0]), None, np.array([1e-300, 1.0]), grid)
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="non-finite state encountered at t = "
    ):
        ode_solve(lambda t, x: 800.0 * x, np.ones(1), grid, error_estimate=False)


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 1023, 1025])
@pytest.mark.parametrize("forced", [False, True])
def test_rk4_linear_doubling_edges(steps, forced):
    # step counts on both sides of a power of two, with and without g, each on
    # a batched state; ode_solve steps the same method one sample at a time
    rng = np.random.default_rng(24 + steps)
    A = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    W = rng.standard_normal((3, 4))

    def G(t):
        return W * np.cos(np.arange(1, 5) * t) if forced else np.zeros((3, 4))

    grid = TimeGrid(0.0, 0.01 * steps + 0.05, steps)
    X0 = rng.standard_normal((3, 4))
    ref = ode_solve(lambda t, X: A @ X + G(t), X0, grid, error_estimate=False)
    g = np.stack([G(t) for t in _stage_times(grid)]) if forced else None
    out = rk4_linear(A, g, X0, grid)
    assert out.values.shape == (steps + 1, 3, 4)
    assert _rel_dev(out.values, ref.values) <= 1e-12


@pytest.mark.parametrize("steps", [1, 5, 1025])
def test_rk4_linear_time_varying_field_with_input(steps):
    rng = np.random.default_rng(25)
    A = rng.standard_normal((2, 2)) - np.eye(2)
    E = rng.standard_normal((2, 2))
    W = rng.standard_normal((2, 3))

    def F(t):
        return A + np.cos(3.0 * t) * E

    def G(t):
        return W * np.sin(np.arange(1, 4) * t)

    grid = TimeGrid(0.2, 2.2, steps)
    times = _stage_times(grid)
    X0 = rng.standard_normal((2, 3))
    ref = ode_solve(lambda t, X: F(t) @ X + G(t), X0, grid, error_estimate=False)
    out = rk4_linear(np.stack([F(t) for t in times]), np.stack([G(t) for t in times]),
                     X0, grid)
    assert _rel_dev(out.values, ref.values) <= 1e-12


def test_rk4_linear_long_constant_field_run():
    rng = np.random.default_rng(26)
    A = rng.standard_normal((2, 2)) - 1.5 * np.eye(2)
    b = rng.standard_normal(2)
    grid = TimeGrid(0.0, 64.0, 2**15)
    x0 = rng.standard_normal(2)
    ref = ode_solve(lambda t, x: A @ x + np.sin(t) * b, x0, grid, error_estimate=False)
    g = np.sin(_stage_times(grid))[:, None] * b
    out = rk4_linear(A, g, x0, grid)
    assert _rel_dev(out.values, ref.values) <= 1e-12


def test_rk4_linear_overflowing_products_keep_a_finite_path():
    # powers of the step map overflow here while the stepped state does not;
    # the result must be that of stepping: zeros from zero, and the decaying
    # mode alone from e1
    grid = TimeGrid(0.0, 100.0, 100)
    zeros = rk4_linear(np.array([[800.0]]), None, np.zeros(1), grid)
    assert not np.any(zeros.values)
    path = rk4_linear(np.diag([-1.0, 800.0]), None, np.array([1.0, 0.0]), grid)
    assert np.all(np.isfinite(path.values)) and not np.any(path.values[:, 1])
    ref = ode_solve(lambda t, x: -x, np.ones(1), grid, error_estimate=False)
    assert _rel_dev(path.values[:, :1], ref.values) <= 1e-12


def test_rk4_linear_empty_batch():
    grid = TimeGrid(0.0, 1.0, 8)
    out = rk4_linear(-np.eye(2), np.zeros((17, 2, 0)), np.zeros((2, 0)), grid)
    assert out.values.shape == (9, 2, 0)


def test_rk4_linear_rejects_mismatched_stage_values():
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="g must have shape"):
        rk4_linear(-np.eye(2), np.zeros((9, 2)), np.ones(2), grid)
    with pytest.raises(ValueError, match="F must have shape"):
        rk4_linear(np.zeros((9, 2, 2)), None, np.ones(2), grid)


@pytest.mark.parametrize("count", [0, 1, 2, 7, 1025])
def test_expm_table_matches_expm(count):
    rng = np.random.default_rng(27)
    A = rng.standard_normal((3, 3)) - np.eye(3)
    step = 1.0 / max(count, 1)
    table = _expm_table(A, step, count)
    assert table.shape == (count + 1, 3, 3)
    for j in range(count + 1):
        ref = expm(A * j * step)
        assert np.linalg.norm(table[j] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cumtrapz_endpoint_matches_trapz():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(33)
    grid = TimeGrid(0.0, 1.0, 32)
    running = cumtrapz(v, grid.h)
    assert running[0] == 0.0
    assert abs(running[-1] - np.trapezoid(v, dx=grid.h)) <= 1e-12


def test_central_diff4_exact_on_quartic():
    h = 0.1
    t = h * np.arange(41)
    vals = t**4 - 2.0 * t**3 + t
    d = central_diff4(vals, h)
    ref = 4.0 * t**3 - 6.0 * t**2 + 1.0
    np.testing.assert_allclose(d, ref[2:-2], atol=1e-10)


def test_central_diff4_vector_samples():
    h = 0.05
    t = h * np.arange(21)
    vals = np.stack([np.sin(t), np.cos(t)], axis=1)
    d = central_diff4(vals, h)
    ref = np.stack([np.cos(t), -np.sin(t)], axis=1)[2:-2]
    # truncation bound h^4 |f^(5)| / 30 = 2.1e-7 at h = 0.05
    np.testing.assert_allclose(d, ref, atol=5e-7)


def test_interpolate_samples_midpoints_and_clamp():
    grid = TimeGrid(0.0, 1.0, 2)
    u = interpolate_samples(grid, np.array([0.0, 2.0, 6.0]), np.array([0.25, 0.75, -1.0, 5.0]))
    assert u.tolist() == [1.0, 4.0, 0.0, 6.0]
