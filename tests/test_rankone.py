"""Rank-one trajectory decomposition, both directions, plus image inclusion."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

import helpers
from conecert import rankone
from conecert import (
    MatrixTrajectory,
    TimeGrid,
    decompose,
    dynamics_residual,
    image_inclusion_check,
    ode_solve,
    rank_segments,
    synthesize_Q,
)
from conecert.numerics import interpolate_samples
from conecert.validation import frobenius

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_image_inclusion_identity():
    holds, residual = image_inclusion_check(np.eye(4), 2, 2)
    assert holds and residual <= 1e-14


def test_image_inclusion_rank_one():
    rng = np.random.default_rng(40)
    v = rng.standard_normal(3)
    w = rng.standard_normal(2)
    z = np.concatenate([v, w])
    holds, residual = image_inclusion_check(np.outer(z, z), 3, 2)
    assert holds and residual <= 1e-7


def test_image_inclusion_rejects_indefinite():
    with pytest.raises(ValueError):
        image_inclusion_check(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1)


def test_image_inclusion_random_psd_ensemble():
    rng = np.random.default_rng(41)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(1, dim))
        Q = helpers.random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        holds, residual = image_inclusion_check(Q, n, dim - n)
        assert holds, residual


def test_rank_segments_parabola_dip():
    # Q_nn = diag(t^2, 1) has rank 1 only at t = 0: two segments, one boundary
    grid = TimeGrid(-1.0, 1.0, 64)
    t = grid.times()
    vals = np.zeros((65, 2, 2))
    vals[:, 0, 0] = t**2
    vals[:, 1, 1] = 1.0
    traj = MatrixTrajectory(grid=grid, values=vals, n=2, m=0)
    seg = rank_segments(traj)
    assert len(seg.segments) == 2
    assert seg.boundaries == [32]
    (lo0, hi0, r0), (lo1, hi1, r1) = seg.segments
    assert (lo0, r0) == (0, 2) and (hi1, r1) == (64, 2)
    assert hi0 == lo1  # segments share the boundary sample


def test_rank_segments_constant():
    grid = TimeGrid(0.0, 1.0, 16)
    vals = np.tile(np.eye(3), (17, 1, 1))
    traj = MatrixTrajectory(grid=grid, values=vals, n=2, m=1)
    seg = rank_segments(traj)
    assert seg.segments == [(0, 16, 2)]
    assert seg.boundaries == []


def test_rank_segments_zero():
    grid = TimeGrid(0.0, 1.0, 8)
    traj = MatrixTrajectory(grid=grid, values=np.zeros((9, 2, 2)), n=1, m=1)
    seg = rank_segments(traj)
    assert seg.segments == [(0, 8, 0)]


def test_trajectory_rejects_indefinite_sample():
    grid = TimeGrid(0.0, 1.0, 2)
    vals = np.tile(np.eye(2), (3, 1, 1))
    vals[1] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValueError):
        MatrixTrajectory(grid=grid, values=vals, n=1, m=1)


def _with_min_eigenvalue(scale):
    # identity samples, sample 1 rotated to eigenvalues (1, -scale * tau)
    # with tau = 1e-8 (1 + ||Q_1||_F), the acceptance tolerance
    tau = 1e-8 * (1.0 + np.hypot(1.0, scale * 2e-8))
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    vals = np.tile(np.eye(2), (3, 1, 1))
    vals[1] = rot @ np.diag([1.0, -scale * tau]) @ rot.T
    return vals


def test_trajectory_psd_tolerance_boundary():
    grid = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError, match=r"^sample 1 is not PSD: min eigenvalue -4\.\d+e-08$"):
        MatrixTrajectory(grid=grid, values=_with_min_eigenvalue(2.0), n=1, m=1)
    MatrixTrajectory(grid=grid, values=_with_min_eigenvalue(0.5), n=1, m=1)


def test_trajectory_accepts_singular_psd_samples():
    grid = TimeGrid(0.0, 1.0, 8)
    z = np.stack([np.cos(grid.times()), np.sin(grid.times())], axis=1)
    traj = MatrixTrajectory(grid=grid, values=np.einsum("ki,kj->kij", z, z), n=1, m=1)
    assert np.all(np.linalg.eigvalsh(traj.values)[:, 0] <= 1e-15)


def test_trajectory_rejects_asymmetric_sample():
    grid = TimeGrid(0.0, 1.0, 2)
    vals = np.tile(np.eye(2), (3, 1, 1))
    vals[2, 0, 1] = 0.5
    with pytest.raises(ValueError):
        MatrixTrajectory(grid=grid, values=vals, n=1, m=1)


def test_synthesize_zero():
    grid = TimeGrid(0.0, 1.0, 32)
    traj = synthesize_Q(np.array([[-1.0]]), np.array([[0.0]]), [np.zeros(1)], [lambda t: np.zeros(1)], grid)
    np.testing.assert_allclose(traj.values, 0.0)


def test_synthesize_scalar_decay_closed_form():
    grid = TimeGrid(0.0, 2.0, 512)
    traj = synthesize_Q(
        np.array([[-1.0]]), np.array([[0.0]]), [np.ones(1)], [lambda t: np.zeros(1)], grid
    )
    t = grid.times()
    np.testing.assert_allclose(traj.values[:, 0, 0], np.exp(-2.0 * t), atol=1e-9)
    np.testing.assert_allclose(traj.values[:, 0, 1], 0.0)
    np.testing.assert_allclose(traj.values[:, 1, 1], 0.0)
    assert traj.dynamics_residual <= 1e-6


def test_synthesize_constant_rank_two():
    grid = TimeGrid(0.0, 1.0, 16)
    A = np.zeros((2, 2))
    B = np.zeros((2, 1))
    traj = synthesize_Q(
        A, B, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        [lambda t: np.zeros(1), lambda t: np.zeros(1)], grid
    )
    np.testing.assert_allclose(traj.values, np.tile(np.diag([1.0, 1.0, 0.0]), (17, 1, 1)))
    seg = rank_segments(traj)
    assert seg.segments == [(0, 16, 2)]


def test_synthesize_sampled_inputs_match_ode_solve():
    # array inputs are interpolated linearly on the grid; each component must
    # follow the ode_solve path driven by the same interpolant
    rng = np.random.default_rng(36)
    n, m = 3, 2
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    B = rng.standard_normal((n, m))
    grid = TimeGrid(0.0, 2.0, 200)
    x_inits = [rng.standard_normal(n) for _ in range(2)]
    u_signals = [helpers.nonneg_input(rng, m, grid) - 0.3 for _ in range(2)]
    traj = synthesize_Q(A, B, x_inits, u_signals, grid)
    ref = np.zeros_like(traj.values)
    for x0, u in zip(x_inits, u_signals):
        x = ode_solve(
            lambda t, x: A @ x + B @ interpolate_samples(grid, u, t), x0, grid,
            error_estimate=False,
        ).values
        z = np.concatenate([x, u], axis=1)
        ref += z[:, :, None] * z[:, None, :]
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(traj.values - ref))) <= 1e-12 * scale


def test_synthesize_rejects_misshapen_samples():
    grid = TimeGrid(0.0, 1.0, 8)
    for u in (np.zeros((8, 1)), np.zeros((9, 2))):
        with pytest.raises(ValueError, match="sampled input must have shape"):
            synthesize_Q(np.array([[-1.0]]), np.array([[1.0]]), [np.ones(1)], [u], grid)


def test_synthesize_rejects_too_many_components():
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        synthesize_Q(
            np.array([[-1.0]]), np.array([[0.0]]),
            [np.ones(1)] * 3, [lambda t: np.zeros(1)] * 3, grid,
        )


def test_decompose_scalar_decay():
    grid = TimeGrid(0.0, 2.0, 512)
    A = np.array([[-1.0]])
    B = np.array([[0.0]])
    traj = synthesize_Q(A, B, [np.ones(1)], [lambda t: np.zeros(1)], grid)
    dec = decompose(traj, A, B)
    t = grid.times()
    live = [i for i in range(2) if not dec.zero_x[i]]
    assert len(live) == 1
    x = dec.xs[live[0], :, 0]
    sign = np.sign(x[0])
    np.testing.assert_allclose(sign * x, np.exp(-t), atol=1e-7)
    assert dec.reconstruction_error <= 1e-4 * dec.max_q_norm


def test_decompose_zero_trajectory():
    grid = TimeGrid(0.0, 1.0, 64)
    traj = MatrixTrajectory(grid=grid, values=np.zeros((65, 2, 2)), n=1, m=1)
    dec = decompose(traj, np.array([[-1.0]]), np.array([[1.0]]))
    np.testing.assert_allclose(dec.xs, 0.0)
    np.testing.assert_allclose(dec.us, 0.0)
    assert dec.reconstruction_error == 0.0


def test_decompose_round_trip_small():
    rng = np.random.default_rng(42)
    traj, A, B = helpers.synthesized_instance(rng, 2, 1)
    dec = decompose(traj, A, B)
    assert dec.reconstruction_error <= 1e-4 * dec.max_q_norm
    finite = dec.ode_residuals[~np.isnan(dec.ode_residuals)]
    assert finite.size and np.max(finite) <= 1e-3
    assert dec.schur_min_eig >= -1e-7


def test_image_inclusion_holds_along_trajectory():
    rng = np.random.default_rng(43)
    traj, _, _ = helpers.synthesized_instance(rng, 2, 2, steps=128)
    for k in range(0, 129, 8):
        holds, residual = image_inclusion_check(traj.values[k], 2, 2)
        assert holds, (k, residual)


def test_decompose_rejects_non_solution():
    rng = np.random.default_rng(44)
    traj, A, B = helpers.synthesized_instance(rng, 2, 1, steps=128)
    vals = traj.values.copy()
    bump = np.zeros((3, 3))
    bump[0, 0] = 0.3
    vals[40:90] += bump  # PSD bump, but no longer a solution
    broken = MatrixTrajectory(grid=traj.grid, values=vals, n=2, m=1)
    with pytest.raises(ValueError):
        decompose(broken, A, B)


def test_decompose_rank_crossing_stitching():
    # one component's x passes through zero at an interior time: the
    # decomposition must stitch segments with residual <= 1e-4
    A = np.array([[-0.5]])
    B = np.array([[1.0]])
    grid = TimeGrid(0.0, 2.0, 512)

    def u_cross(t):
        # drive x' = -0.5 x + u so that x(1) = 0: u = (t - 1) shifted
        return np.atleast_1d(0.5 * (t - 1.0) + 1.0)

    # x(t) = t - 1 solves x' = -0.5x + u with x(0) = -1
    traj = synthesize_Q(A, B, [np.array([-1.0])], [u_cross], grid)
    assert np.abs(traj.values[256, 0, 0]) <= 1e-10  # Q_nn hits zero at t = 1
    dec = decompose(traj, A, B)
    assert len(dec.segmentation.segments) >= 2
    assert dec.stitch_residuals and max(dec.stitch_residuals) <= 1e-4
    assert dec.reconstruction_error <= 1e-4 * max(dec.max_q_norm, 1.0)
    finite = dec.ode_residuals[~np.isnan(dec.ode_residuals)]
    assert np.max(finite) <= 1e-3


def _crossing_trajectory():
    # x(t) = t - 1 on x' = -x/2 + u: Q_nn vanishes at t = 1, two rank segments
    A, B = np.array([[-0.5]]), np.array([[1.0]])
    traj = synthesize_Q(A, B, [np.array([-1.0])],
                        [lambda t: np.atleast_1d(0.5 * (t - 1.0) + 1.0)], TimeGrid(0.0, 2.0, 512))
    return traj, A, B


def _sinusoid_case(n, m):
    A, B, grid, Q = helpers.sinusoid_trajectory(np.random.default_rng(47), n, m)
    return MatrixTrajectory(grid=grid, values=Q, n=n, m=m), A, B


def test_decompose_factors_each_sample_once(monkeypatch):
    # blocks up to 2 x 2 are factored in closed form: no stacked eigh or SVD
    # for n, m <= 2; at n = 3, one stacked eigh of Q_nn gives the ranks,
    # Q_nn^+ and sqrt(Q_nn), and each segment takes one batched Procrustes SVD
    for traj, A, B in [_crossing_trajectory(), _sinusoid_case(2, 2), _sinusoid_case(3, 2)]:
        calls = []

        def counted(name, fn):
            def wrapped(a, *args, **kwargs):
                if np.ndim(a) == 3:
                    calls.append((name, np.array_equal(a, traj.q_nn)))
                return fn(a, *args, **kwargs)
            return wrapped

        for name in ("eigh", "eigvalsh", "svd", "pinv"):
            monkeypatch.setattr(rankone.np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(rankone, "pinv", counted("pinv", rankone.pinv))
        dec = decompose(traj, A, B)
        monkeypatch.undo()
        segments = dec.segmentation.segments
        assert len(segments) == (2 if traj.n == 1 else 1)
        if traj.n <= 2:
            assert calls == []
        else:
            assert calls == [("eigh", True)] + [("svd", False)] * len(segments)
        assert segments == rank_segments(traj).segments


_EPS8 = 8.0 * np.finfo(float).eps


def _bound(ref):
    """8 eps (1 + ||ref||_F) for each block of a stack, without overflow."""
    return _EPS8 * (1.0 + frobenius("ref", ref, axis=(-2, -1)))


def _closed_form_blocks(symmetric):
    rng = np.random.default_rng(48)
    M = rng.standard_normal((300, 2, 2))
    special = np.array([
        [[2.0, 0.0], [0.0, -3.0]],  # b = 0, det < 0
        [[2.0, 0.0], [0.0, 3.0]],  # b = 0
        [[1.5, 0.7], [0.7, 1.5]],  # equal diagonals
        [[4.0, 0.0], [0.0, 4.0]],  # a multiple of I
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 2.0], [2.0, 4.0]],  # rank one, det = 0
        [[-1.0, 2.0], [2.0, -4.0]],
        [[1.0, 3.0], [3.0, -2.0]],  # det < 0
        [[1.0, 1e-9], [1e-9, 1.0 + 1e-7]],
    ])
    if not symmetric:
        M = np.concatenate([M, [[[1.0, 2.0], [-2.0, -4.0]], [[0.0, 1.0], [0.0, 0.0]],
                                [[1.0, 3.0], [-3.0, 1.0]]]])
    M = np.concatenate([M + M.transpose(0, 2, 1) if symmetric else M, special])
    return M


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_closed_form_eigh_matches_lapack(scale):
    S = _closed_form_blocks(symmetric=True)
    lam, V = rankone._eigh(scale * S)
    ref = np.linalg.eigh(scale * S)[0]
    assert np.all(np.abs(lam - ref) <= _bound(scale * S)[:, None])
    lam = lam / scale  # scaled back, against the unscaled stack
    assert np.all(np.abs(lam - np.linalg.eigh(S)[0]) <= _bound(S)[:, None])
    recon = (V * lam[:, None, :]) @ V.transpose(0, 2, 1)
    assert np.all(np.abs(recon - S) <= _bound(S)[:, None, None])
    eye = np.broadcast_to(np.eye(2), V.shape)
    assert np.all(np.abs(V.transpose(0, 2, 1) @ V - eye) <= _bound(eye)[:, None, None])


def test_closed_form_eigh_of_1x1_blocks_is_lapacks():
    S = np.array([-3.0, -0.0, 0.0, 5e-324, 1e300, 2.5]).reshape(-1, 1, 1)
    lam, V = rankone._eigh(S)
    ref_lam, ref_V = np.linalg.eigh(S)
    assert np.array_equal(lam, ref_lam) and np.array_equal(V, ref_V)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_closed_form_polar_factor_matches_the_svd(scale):
    M = scale * _closed_form_blocks(symmetric=False)
    omega = rankone._polar(M)
    eye = np.broadcast_to(np.eye(2), M.shape)
    assert np.all(np.abs(omega.transpose(0, 2, 1) @ omega - eye) <= _bound(eye)[:, None, None])
    # Omega'M is the symmetric PSD factor, singular M included
    H = omega.transpose(0, 2, 1) @ M
    assert np.all(np.abs(H - H.transpose(0, 2, 1)) <= _bound(M)[:, None, None])
    assert np.all(np.linalg.eigvalsh(0.5 * (H + H.transpose(0, 2, 1)))[:, 0] >= -_bound(M))
    U, sv, V = np.linalg.svd(M)
    ref = U @ V
    nonsingular = sv[:, 1] > 1e-8 * sv[:, 0]
    assert np.count_nonzero(~nonsingular) == 5
    assert np.all(np.abs(omega - ref)[nonsingular] <= _bound(ref)[nonsingular, None, None])
    assert np.array_equal(omega[np.all(M == 0.0, axis=(1, 2))], [np.eye(2)])


def test_closed_form_polar_factor_of_1x1_blocks_is_the_svds():
    M = np.array([-3.0, -0.0, 0.0, 5e-324, -5e-324, 1e300, 2.5]).reshape(-1, 1, 1)
    U, _, V = np.linalg.svd(M)
    assert np.array_equal(rankone._polar(M), U @ V)


def test_decompose_reconstruction_accuracy_gate():
    # the Procrustes factor comes from an SVD of sqrt(Q_nn) X: a polar factor
    # from the eigh of its Gram matrix squares the condition number and
    # misses this bound by orders of magnitude on these instances
    rng = np.random.default_rng(0)
    for _ in range(12):
        A, B, grid, Q = helpers.sinusoid_trajectory(rng, 3, 2)
        dec = decompose(MatrixTrajectory(grid=grid, values=Q, n=3, m=2), A, B)
        assert dec.reconstruction_error <= 1e-10 * dec.max_q_norm


def test_dynamics_residual_flags_wrong_system():
    rng = np.random.default_rng(45)
    traj, A, B = helpers.synthesized_instance(rng, 2, 1, steps=128)
    assert dynamics_residual(traj, A, B) <= 1e-6
    assert dynamics_residual(traj, A + 0.5 * np.eye(2), B) > 1e-3


def test_dynamics_residual_matches_its_einsum_formula():
    # (A B) Q (I; 0) + transpose, written out index by index
    rng = np.random.default_rng(46)
    for n, m in [(1, 1), (2, 1), (3, 2), (2, 0)]:
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        G = rng.standard_normal((65, n + m, n + m))
        traj = MatrixTrajectory(grid=TimeGrid(0.0, 1.0, 64), values=G @ G.transpose(0, 2, 1),
                                n=n, m=m)
        W = np.einsum("ij,kjl->kil", A, traj.q_nn) + np.einsum("ij,klj->kil", B, traj.q_nm)
        rhs = W + W.transpose(0, 2, 1)
        dq = (traj.q_nn[:-4] - 8.0 * traj.q_nn[1:-3] + 8.0 * traj.q_nn[3:-1]
              - traj.q_nn[4:]) / (12.0 * traj.grid.h)
        ref = np.max(np.linalg.norm(dq - rhs[2:-2], axis=(1, 2))) / (1.0 + traj.max_norm())
        assert abs(dynamics_residual(traj, A, B) - ref) <= 1e-12 * ref


def test_sample_script_reproduces_the_committed_decompose_sample():
    # the committed file predates the current RK4 kernel: equal to roundoff
    spec = importlib.util.spec_from_file_location(
        "make_decompose_sample", ROOT / "scripts" / "make_decompose_sample.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = script.build()
    committed = json.loads((ROOT / "sample_problems" / "decompose_synthesized.json").read_text())
    np.testing.assert_array_equal(built["A"], committed["A"])
    np.testing.assert_array_equal(built["B"], committed["B"])
    assert built["grid"] == committed["grid"]
    np.testing.assert_allclose(built["samples"], committed["samples"], rtol=0.0, atol=1e-12)
