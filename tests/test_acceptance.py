"""End-to-end acceptance runs for the eight headline guarantees.

Each test is one criterion, generated from a fixed seed, asserted at the
stated tolerance, and closed with a single printed pass line.
"""

import time

import numpy as np
import pytest

import helpers
from conecert import (
    FrequencyGrid,
    KypInstance,
    TimeGrid,
    TrajectoryGrid,
    default_grid,
    decompose,
    empirical_l1_gain,
    exact_l1_gain,
    frequency_condition,
    gain_supply_rate,
    image_inclusion_check,
    iqc_integral,
    kyp_lmi,
    l1_certificate,
    l1_gain_bisection,
    orthant_certificate,
    orthant_kernel_minimum,
    orthant_surjectivity,
    psd_steer,
    simulate_and_check_dissipation,
    synthesize_Q,
    verify_k_controllability,
)


@pytest.fixture(scope="module")
def l1_ensemble():
    """100 Metzler-Hurwitz systems (n <= 6, m <= 3), shared by criteria 2 and 7."""
    rng = np.random.default_rng(42)
    systems = []
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        systems.append(helpers.positive_system(rng, n, m))
    return systems


def test_criterion_1_orthant_duality_suite():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    agreements = 0
    for k in range(200):
        x_dim = int(rng.integers(1, 5))
        z_dim = int(rng.integers(2 * x_dim, 9))
        if k % 2 == 0:
            prob = helpers.feasible_orthant(rng, x_dim, z_dim)
            planted_feasible = True
        else:
            prob, _ = helpers.infeasible_orthant(rng, x_dim, z_dim)
            planted_feasible = False
        assert orthant_surjectivity(prob.Lmap)
        cert = orthant_certificate(prob)
        minimum, _ = orthant_kernel_minimum(prob)
        exists = cert is not None
        assert exists == (minimum >= -1e-7)
        assert exists == planted_feasible
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 200
    assert elapsed < 10.0
    print(f"criterion 1 PASS: duality agreement {agreements}/200 in {elapsed:.2f} s")


def test_criterion_2_l1_gain_tightness(l1_ensemble):
    rng = np.random.default_rng(421)
    grid = TimeGrid(0.0, 12.0, 2048)
    matched = 0
    for sys_ in l1_ensemble:
        gain = exact_l1_gain(sys_)
        bisected = l1_gain_bisection(sys_)
        assert abs(bisected - gain) <= 1e-6 * gain
        empirical = empirical_l1_gain(
            sys_, TrajectoryGrid(grid, helpers.nonneg_input(rng, sys_.m, grid))
        )
        assert empirical <= gain * (1.0 + 1e-3)
        matched += 1
    assert matched == 100
    print(f"criterion 2 PASS: bisected gain within 1e-6 relative on {matched}/100")


def test_criterion_3_kyp_constructed_ensembles():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    certified = 0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        inst, _, _ = helpers.feasible_kyp(rng, n, m)
        res = kyp_lmi(inst)
        assert res.status != "infeasible"  # zero false infeasibles
        if res.status == "feasible":
            certified += 1
        assert frequency_condition(inst).holds
    assert certified == 50
    refuted = 0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        inst, omega0 = helpers.infeasible_kyp(rng, n, m)
        omegas = np.unique(np.append(default_grid(inst.A).omegas, omega0))
        rep = frequency_condition(inst, grid=FrequencyGrid(omegas))
        assert not rep.holds
        res = kyp_lmi(inst)
        # no certificate survives the post-check; a witness refutes every one
        assert res.status == "infeasible" and res.witness is not None
        refuted += 1
    elapsed = time.perf_counter() - start
    assert refuted == 50
    assert elapsed < 10.0
    print(
        f"criterion 3 PASS: {certified}/50 certified, {refuted}/50 refuted "
        f"in {elapsed:.1f} s"
    )


def test_criterion_4_scalar_passivity_anchor():
    inst = KypInstance(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), M=np.array([[0.0, -1.0], [-1.0, 0.0]])
    )
    res = kyp_lmi(inst)
    assert res.status == "feasible"
    assert abs(res.P[0, 0] - 1.0) <= 1e-4
    sample = iqc_integral(inst, lambda t: np.array([np.exp(-t)]), horizon=30.0)
    assert abs(sample.integral + 0.5) <= 1e-4
    print(
        f"criterion 4 PASS: P = {res.P[0, 0]:.6f}, IQC integral = {sample.integral:.6f}"
    )


def test_criterion_5_rank_one_round_trip():
    rng = np.random.default_rng(7)
    worst_recon = 0.0
    worst_ode = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        traj, A, B = helpers.synthesized_instance(rng, n, m, steps=512, horizon=2.0)
        dec = decompose(traj, A, B)
        recon_rel = dec.reconstruction_error / max(dec.max_q_norm, 1e-30)
        assert recon_rel <= 1e-4
        finite = dec.ode_residuals[~np.isnan(dec.ode_residuals)]
        assert finite.size and float(np.max(finite)) <= 1e-3
        worst_recon = max(worst_recon, recon_rel)
        worst_ode = max(worst_ode, float(np.max(finite)))

    # designed rank crossing: x(t) = t - 1 passes through zero at t = 1
    A = np.array([[-0.5]])
    B = np.array([[1.0]])
    grid = TimeGrid(0.0, 2.0, 512)
    traj = synthesize_Q(
        A, B, [np.array([-1.0])], [lambda t: np.atleast_1d(0.5 * (t - 1.0) + 1.0)], grid
    )
    dec = decompose(traj, A, B)
    assert len(dec.segmentation.segments) >= 2
    assert dec.stitch_residuals and max(dec.stitch_residuals) <= 1e-4
    print(
        f"criterion 5 PASS: 50/50 round trips (worst recon {worst_recon:.2e}, "
        f"worst ODE {worst_ode:.2e}), stitching {max(dec.stitch_residuals):.2e}"
    )


def test_criterion_6_k_controllability_steering():
    rng = np.random.default_rng(9)
    steered = 0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        A, B = helpers.controllable_pair(rng, n, m)
        for _ in range(10):
            X0 = helpers.random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            X1 = helpers.random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            plan = psd_steer(A, B, X0, X1)
            tol = 1e-5 * (1.0 + float(np.linalg.norm(X1, "fro")))
            assert max(plan.endpoint_errors) <= tol
            steered += 1
    assert steered == 200
    report = verify_k_controllability(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0], [0.0]]))
    assert not report.controllable
    assert report.obstruction is not None
    print(f"criterion 6 PASS: {steered}/200 steering runs plus obstruction witness")


def test_criterion_7_dissipation_along_trajectories(l1_ensemble):
    rng = np.random.default_rng(77)
    grid = TimeGrid(0.0, 6.0, 1024)
    start = time.perf_counter()
    intervals_ok = 0
    total = 0
    for sys_ in l1_ensemble:
        gain = exact_l1_gain(sys_)
        cert = l1_certificate(sys_, gain)
        assert cert is not None
        supply = gain_supply_rate(sys_, gain)
        for _ in range(20):
            u = helpers.nonneg_input(rng, sys_.m, grid)
            x0 = np.abs(rng.standard_normal(sys_.n))
            rep = simulate_and_check_dissipation(
                sys_, supply, cert.p, TrajectoryGrid(grid, u), x0
            )
            total += 1
            assert rep.holds
            assert rep.worst_window <= rep.quad_tol
            intervals_ok += 1
    elapsed = time.perf_counter() - start
    assert intervals_ok == total == 2000
    assert elapsed < 30.0
    print(
        f"criterion 7 PASS: {intervals_ok}/{total} trajectory checks dissipative "
        f"in {elapsed:.1f} s"
    )


def test_criterion_8_image_inclusion_property():
    rng = np.random.default_rng(8)
    passed = 0
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(1, dim))
        Q = helpers.random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        holds, residual = image_inclusion_check(Q, n, dim - n)
        assert holds
        assert residual <= 1e-7
        passed += 1
    assert passed == 500
    raised = 0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rng.uniform(0.5, 2.0, dim)
        eigs[0] = -eigs[0]  # one negative, rest positive: indefinite
        S = (basis * eigs) @ basis.T
        with pytest.raises(ValueError):
            image_inclusion_check(S, 1, dim - 1)
        raised += 1
    assert raised == 20
    print(f"criterion 8 PASS: {passed}/500 inclusions, {raised}/20 rejections")
