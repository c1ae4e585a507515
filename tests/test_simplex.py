"""Two-phase simplex against known LPs and an independent solver."""

import numpy as np
import pytest
import scipy.optimize

from conecert import simplex
from conecert.simplex import solve_lp


def test_simple_optimum():
    # min -x1 - x2 s.t. x1 + x2 + s = 1
    res = solve_lp([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert abs(res.objective + 1.0) <= 1e-9
    assert abs(res.x[0] + res.x[1] - 1.0) <= 1e-9


def test_infeasible():
    res = solve_lp([0.0], [[1.0]], [-1.0])
    assert res.status == "infeasible"
    assert res.x is None and res.objective is None


def test_unbounded():
    # x2 unconstrained below in cost, constraint row cannot block it
    res = solve_lp([0.0, -1.0], [[1.0, 0.0]], [1.0])
    assert res.status == "unbounded"


def test_negative_rhs_normalized():
    res = solve_lp([1.0], [[-1.0]], [-1.0])
    assert res.status == "optimal"
    assert abs(res.x[0] - 1.0) <= 1e-9


def test_degenerate_beale_terminates():
    # classic cycling instance for non-Bland pivoting; optimum -1/20
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert abs(res.objective + 0.05) <= 1e-9


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0], np.zeros((2, 2)), [0.0, 0.0])
    with pytest.raises(ValueError):
        solve_lp([1.0, np.nan], np.zeros((1, 2)), [0.0])
    with pytest.raises(ValueError):
        solve_lp([1.0], np.zeros(3), [0.0])


def test_iteration_budget_raises():
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    with pytest.raises(RuntimeError, match="budget of 1 pivots"):
        solve_lp([-1.0, -2.0, 1.0], A, [1.0, 0.2], max_iter=1)


def test_phase1_unbounded_raises(monkeypatch):
    # phase 1 minimizes a sum of artificials, so "unbounded" there is a defect
    monkeypatch.setattr(simplex, "_bland_iterate", lambda *args: "unbounded")
    with pytest.raises(RuntimeError, match="phase 1"):
        solve_lp([1.0], [[1.0]], [1.0])


def test_matches_scipy_on_random_ensemble():
    # planted-feasible random LPs; statuses and objectives must agree
    rng = np.random.default_rng(10)
    optimal = 0
    for _ in range(120):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 9))
        A = rng.standard_normal((k, n))
        b = A @ np.abs(rng.standard_normal(n))
        c = rng.standard_normal(n)
        res = solve_lp(c, A, b)
        ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if res.status == "optimal":
            assert ref.status == 0
            assert abs(res.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
            assert np.min(res.x) >= -1e-9
            assert np.linalg.norm(A @ res.x - b) <= 1e-7 * (1.0 + np.linalg.norm(b))
            optimal += 1
        else:
            assert res.status == "unbounded"
            assert ref.status == 3
    assert optimal >= 30  # ensemble exercises the optimal branch broadly


def test_matches_scipy_on_infeasible_ensemble():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n + 1, n))  # overdetermined, generic rhs
        b = rng.standard_normal(n + 1)
        c = rng.standard_normal(n)
        res = solve_lp(c, A, b)
        ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert (res.status == "infeasible") == (ref.status == 2)


def zero_cost_ensemble(seed, count):
    """Zero-cost LPs (c, A, b): planted-feasible, with negative b, with
    redundant rows, or with a generic overdetermined right-hand side."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows = int(rng.integers(1, 5))
        n = int(rng.integers(rows, 9))
        A = rng.standard_normal((rows, n))
        b = A @ (np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.6))
        if k % 4 == 1:  # a repeated row and a sum of rows
            A = np.concatenate([A, A[:1], A.sum(axis=0, keepdims=True)])
            b = np.concatenate([b, b[:1], [b.sum()]])
        elif k % 4 == 2:  # rows scaled by -1 so that some b < 0
            flip = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
            A, b = A * flip[:, None], b * flip
        elif k % 4 == 3:  # overdetermined: feasible only by accident
            A = rng.standard_normal((n + 1, n))
            b = rng.standard_normal(n + 1)
        yield np.zeros(A.shape[1]), A, b


def test_zero_cost_lps_end_at_phase_1_and_match_scipy():
    statuses = set()
    for c, A, b in zero_cost_ensemble(12, 200):
        res = solve_lp(c, A, b)
        ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        statuses.add(res.status)
        assert {"optimal": 0, "infeasible": 2}[res.status] == ref.status
        if res.status == "optimal":
            assert res.objective == 0.0
            assert np.min(res.x) >= -1e-9
            assert np.max(np.abs(A @ res.x - b)) <= 1e-9
    assert statuses == {"optimal", "infeasible"}


def test_zero_cost_lp_builds_no_phase_2_tableau(monkeypatch):
    # phase 2 with zero costs makes no pivot, so it is not run at all
    phases = []
    original = simplex._bland_iterate

    def counted(T, basis, ncols, max_iter):
        phases.append(ncols)
        return original(T, basis, ncols, max_iter)

    monkeypatch.setattr(simplex, "_bland_iterate", counted)
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    res = solve_lp(np.zeros(3), A, [1.0, 1.0, -0.5])
    assert res.status == "optimal"
    assert np.max(np.abs(A @ res.x - [1.0, 1.0, -0.5])) <= 1e-12
    assert phases == [6]
    phases.clear()
    assert solve_lp([1.0, 0.0, 0.0], A, [1.0, 1.0, -0.5]).status == "optimal"
    assert phases == [6, 3]
