"""Cone membership and certificate/witness duality on both cones."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from conecert import certificates, simplex
from conecert import (
    OrthantProblem,
    PsdProblem,
    orthant_certificate,
    orthant_kernel_minimum,
    orthant_surjectivity,
    psd_certificate,
    psd_lmi,
)
from conecert.certificates import IPM_MAX_ITERATIONS
from conecert.kyp import LMI_TOL


def orthant(d):
    """An orthant problem whose cone is R^d_+."""
    return OrthantProblem(Lmap=np.zeros((1, d)), m=np.zeros(d))


def psd(d):
    """A PSD problem whose cone is S^d_+."""
    return PsdProblem(U=np.zeros((1, d)), V=np.zeros((1, d)), C=np.zeros((d, d)))


def test_cone_contains_orthant():
    assert orthant(2).margin([1.0, 0.0]) >= -1e-8
    assert not orthant(2).margin([1.0, -1.0]) >= -1e-8


def test_cone_contains_psd():
    assert not psd(2).margin([[1.0, 0.0], [0.0, -1.0]]) >= -1e-8
    assert psd(2).margin([[1.0, 1.0], [1.0, 1.0]]) >= -1e-8


def test_cone_shape_mismatch():
    with pytest.raises(ValueError):
        orthant(2).margin([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        psd(2).margin(np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.floats(0.1, 100.0))
@example(entries=[-5e-324], scale=0.5)
def test_cone_membership_scale_invariant(entries, scale):
    z = np.asarray(entries)
    prob = orthant(z.size)
    inside = prob.margin(z) >= 0.0
    inside_scaled = prob.margin(scale * z) >= 0.0
    assert inside == bool(np.all(z >= 0))
    assert inside_scaled == bool(np.all(scale * z >= 0))
    # a positive factor keeps the sign of every entry that stays nonzero; a
    # subnormal entry such as -5e-324 can round to -0.0, which is in the cone
    if np.array_equal(scale * z == 0, z == 0):
        assert inside == inside_scaled


def test_orthant_certificate_zero_problem():
    prob = OrthantProblem(Lmap=np.zeros((2, 3)), m=np.zeros(3))
    cert = orthant_certificate(prob)
    np.testing.assert_allclose(cert.p, 0.0)
    np.testing.assert_allclose(cert.slack, 0.0)


def test_orthant_certificate_pinned():
    # -2p <= -1 and p <= 0.5 force p = 0.5
    prob = OrthantProblem(Lmap=np.array([[-2.0, 1.0]]), m=np.array([-1.0, 0.5]))
    cert = orthant_certificate(prob)
    assert cert is not None
    assert abs(cert.p[0] - 0.5) <= 1e-9
    assert np.min(cert.slack) >= -1e-8


def test_orthant_certificate_infeasible():
    prob = OrthantProblem(Lmap=np.array([[-2.0, 1.0]]), m=np.array([-1.0, 0.4]))
    assert orthant_certificate(prob) is None


def test_kernel_minimum_negative():
    prob = OrthantProblem(Lmap=np.array([[-2.0, 1.0]]), m=np.array([-1.0, 0.4]))
    val, z = orthant_kernel_minimum(prob)
    assert abs(val + 1.0 / 15.0) <= 1e-6  # (-1 + 2*0.4) / 3
    np.testing.assert_allclose(z, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    assert abs(np.sum(np.abs(z)) - 1.0) <= 1e-9


def test_kernel_minimum_vacuous():
    val, wit = orthant_kernel_minimum(OrthantProblem(Lmap=np.eye(2), m=np.ones(2)))
    assert val == np.inf and wit is None


def test_kernel_minimum_boundary_zero():
    prob = OrthantProblem(Lmap=np.array([[-2.0, 1.0]]), m=np.array([-1.0, 0.5]))
    val, _ = orthant_kernel_minimum(prob)
    assert abs(val) <= 1e-8


def test_surjectivity_examples():
    assert orthant_surjectivity(np.array([[-2.0, 1.0]]))
    assert not orthant_surjectivity(np.array([[1.0, 2.0]]))
    # identity maps the orthant onto the orthant only: -e_i is unreachable
    assert not orthant_surjectivity(np.eye(3))


@settings(max_examples=300, deadline=None)
@given(
    x_dim=st.integers(1, 4),
    z_dim=st.integers(1, 8),
    entries=st.sampled_from(["signs", "gaussian"]),
    duplicate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_surjectivity_matches_reachability(x_dim, z_dim, entries, duplicate, seed):
    # entries in {-1, 0, 1} make rank loss and kernel vectors on the
    # orthant's boundary common; a duplicated row forces rank loss
    rng = np.random.default_rng(seed)
    if entries == "signs":
        L = rng.integers(-1, 2, (x_dim, z_dim)).astype(float)
    else:
        L = rng.standard_normal((x_dim, z_dim))
    if duplicate and x_dim > 1:
        L[-1] = L[0]
    assert orthant_surjectivity(L) == helpers.surjective_by_reachability(L)


def test_surjectivity_solves_at_most_one_lp(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return simplex.solve_lp(*args)

    monkeypatch.setattr(certificates, "solve_lp", counted)
    # full row rank, and z = (1, 2, 2) > 0 lies in the kernel
    assert orthant_surjectivity(np.array([[2.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    assert len(calls) == 1
    calls.clear()
    # rank 1 of 2: decided by the rank alone
    assert not orthant_surjectivity(np.array([[1.0, -1.0], [2.0, -2.0]]))
    assert calls == []


def test_duality_on_planted_instances():
    rng = np.random.default_rng(21)
    for k in range(60):
        x_dim = int(rng.integers(1, 5))
        z_dim = int(rng.integers(2 * x_dim, 9))
        if k % 2 == 0:
            prob = helpers.feasible_orthant(rng, x_dim, z_dim)
            planted_feasible = True
        else:
            prob, z0 = helpers.infeasible_orthant(rng, x_dim, z_dim)
            planted_feasible = False
            assert np.linalg.norm(prob.Lmap @ z0) <= 1e-9
            assert prob.m @ z0 < 0
        assert orthant_surjectivity(prob.Lmap)
        cert = orthant_certificate(prob)
        val, z = orthant_kernel_minimum(prob)
        assert (cert is not None) == planted_feasible
        assert (cert is not None) == (val >= -1e-7)
        if cert is not None:
            assert np.min(cert.slack) >= -1e-8
        else:
            assert z is not None
            assert np.min(z) >= -1e-9
            assert np.linalg.norm(prob.Lmap @ z) <= 1e-8 * (1.0 + np.linalg.norm(z))
            assert abs(certificates.refute(prob, z).objective - val) <= 1e-9


def psd_slack(prob, P):
    """Eigenvalues of C - U'PV - V'PU, ascending."""
    G = prob.U.T @ P @ prob.V
    return np.linalg.eigvalsh(prob.C - G - G.T)


def test_certify_rejects_a_slack_that_overflows():
    # (U'P)[0] = (1e309, -1e309) overflows to (inf, -inf), so the first row
    # of C - He(P) is nan, on which eigvalsh does not converge and raises
    prob = PsdProblem(U=[[10.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
                      V=[[1.0, 1.0, 0.0], [0.5, 0.0, 1.0]], C=np.eye(3))
    P = np.diag([1e308, -1e308])
    with np.errstate(all="ignore"):
        assert np.isnan(prob.dual_slack(P)).all()
        assert certificates.certify(prob, P) is None


def test_psd_trivial_feasible():
    U = np.array([[1.0, 2.0]])
    prob = PsdProblem(U=U, V=U.copy(), C=np.eye(2))
    out = psd_certificate(prob)
    assert out.status == "feasible"
    assert out.max_violation <= 1e-6


def test_psd_pinned_certificate():
    # (1-P)^2 <= 0 forces P = 1; slack eigenvalues (0, 2)
    prob = PsdProblem(
        U=np.array([[-1.0, 1.0]]),
        V=np.array([[1.0, 0.0]]),
        C=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    out = psd_certificate(prob)
    assert out.status == "feasible"
    assert abs(out.P[0, 0] - 1.0) <= 1e-3
    slack_eigs = psd_slack(prob, out.P)
    np.testing.assert_allclose(slack_eigs, [0.0, 2.0], atol=1e-3)


def test_psd_identity_in_the_range_of_he():
    # d = 1: He(P) = 2(p11 + p12) reaches every scalar, so min t is unbounded
    # below and P = -s P_I with He(P_I) = 1 certifies before any iteration
    prob = PsdProblem(U=np.array([[1.0], [0.0]]), V=np.array([[1.0], [1.0]]), C=np.array([[-5.0]]))
    out = psd_certificate(prob)
    assert (out.status, out.decided_by, out.iterations) == ("feasible", "interior_point", 0)
    assert psd_slack(prob, out.P)[0] >= 0


def test_psd_infeasible_with_witness():
    prob = PsdProblem(
        U=np.array([[-1.0, 1.0]]),
        V=np.array([[1.0, 0.0]]),
        C=np.array([[0.0, 1.0], [1.0, -1.0]]),
    )
    out = psd_lmi(prob)
    assert out.status == "infeasible" and out.decided_by == "rank_one_witness"
    np.testing.assert_allclose(out.witness, [[0.0, 0.0], [0.0, 1.0]], atol=1e-9)
    objective = -out.max_violation
    assert abs(objective + 1.0) <= 1e-9
    assert abs(np.trace(out.witness) - 1.0) <= 1e-9


def test_psd_feasible_by_construction_ensemble():
    # C = U'P0 V + V'P0 U + S is feasible by construction; every V has full
    # row rank, so the Riccati route of the KYP form certifies each one
    rng = np.random.default_rng(22)
    feasible = 0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        U = rng.standard_normal((n, n + m))
        V = rng.standard_normal((n, n + m))
        P0 = rng.standard_normal((n, n))
        P0 = 0.5 * (P0 + P0.T)
        G = rng.standard_normal((n + m, n + m))
        S = G @ G.T / (n + m)
        he = U.T @ P0 @ V
        C = he + he.T + S
        prob = PsdProblem(U=U, V=V, C=0.5 * (C + C.T))
        out = psd_lmi(prob)
        assert out.status in ("feasible", "undecided")
        if out.status == "feasible":
            assert out.max_violation <= 1e-6
            assert np.min(psd_slack(prob, out.P)) >= -LMI_TOL
            feasible += 1
    assert feasible == 10


def test_psd_breakdown_keeps_the_last_passing_iterate():
    # a degenerate integer instance: the Schur matrix turns singular before
    # the gap converges, after an iterate whose P already passes the post-check;
    # psd_lmi certifies it by the Riccati route, before the interior point runs
    prob = PsdProblem(
        U=[[1, 0, -1, 0], [-1, 1, 0, 1], [-1, -1, 1, -1]],
        V=[[1, 0, 0, -1], [-1, 0, 0, 0], [0, -1, -1, 1]],
        C=[[-1, 0, 0.5, 0], [0, 1, -0.5, 1], [0.5, -0.5, -1, 0.5], [0, 1, 0.5, 1]],
    )
    assert psd_lmi(prob).status == "feasible"
    out = psd_certificate(prob)
    assert (out.status, out.decided_by) == ("feasible", "interior_point")
    assert 1 <= out.iterations < IPM_MAX_ITERATIONS
    slack = psd_slack(prob, out.P)
    assert slack[0] >= -LMI_TOL
    assert out.max_violation == -slack[0]


def test_psd_dimension_mismatch():
    with pytest.raises(ValueError):
        PsdProblem(U=np.ones((1, 2)), V=np.ones((1, 3)), C=np.eye(2))
