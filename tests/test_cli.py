"""Batch front end: exit codes, schema validation, determinism, logging."""

import argparse
import json
import logging
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from conecert import PsdProblem, certificates, cli, kyp, possys, simplex, validation

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_problems"


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.run(argv + ["--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_l1gain_feasible_scalar(tmp_path):
    path = write_problem(
        tmp_path, {"command": "l1gain", "A": [[-2.0]], "B": [[1.0]], "gamma": 0.5}
    )
    code, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert code == 0
    assert doc["status"] == "feasible"
    assert doc["tool"] == "cone-cert"
    assert doc["input_digest"].startswith("sha256:")
    np.testing.assert_allclose(doc["result"]["certificate"]["p"], [0.5], atol=1e-12)
    np.testing.assert_allclose(doc["result"]["gain"], 0.5, atol=1e-12)


def test_l1gain_infeasible_gamma(tmp_path):
    path = write_problem(
        tmp_path, {"command": "l1gain", "A": [[-2.0]], "B": [[1.0]], "gamma": 0.25}
    )
    code, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert code == 1
    assert doc["status"] == "infeasible"
    assert doc["result"]["certificate"] is None


def test_sample_l1gain(tmp_path):
    code, doc = run_cli(["l1gain", "--input", str(SAMPLES / "l1gain_2x2.json")], tmp_path)
    assert code == 0
    np.testing.assert_allclose(doc["result"]["gain"], 3.0, atol=1e-9)
    np.testing.assert_allclose(doc["result"]["certificate"]["p"], [1.0, 2.0], atol=1e-9)


def test_l1gain_solves_the_closed_form_once(tmp_path, monkeypatch):
    calls = []
    original = possys.is_hurwitz_metzler

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(possys, "is_hurwitz_metzler", counted)
    code, _ = run_cli(["l1gain", "--input", str(SAMPLES / "l1gain_2x2.json")], tmp_path)
    assert code == 0 and len(calls) == 1


def test_sample_kyp(tmp_path):
    code, doc = run_cli(["kyp", "--input", str(SAMPLES / "kyp_scalar_passivity.json")], tmp_path)
    assert code == 0
    assert doc["status"] == "feasible"
    assert abs(doc["result"]["lmi"]["P"][0][0] - 1.0) <= 1e-4
    assert doc["result"]["lmi"]["decided_by"] == "riccati"
    assert doc["result"]["frequency"]["holds"] is True
    assert doc["result"]["defects"] == []


def test_sample_decompose(tmp_path):
    code, doc = run_cli(
        ["decompose", "--input", str(SAMPLES / "decompose_synthesized.json")], tmp_path
    )
    assert code == 0
    assert doc["status"] == "holds"
    res = doc["result"]
    assert res["reconstruction_error"] <= 1e-4 * res["max_q_norm"]
    # non-finite residuals round-trip as strings ("nan" marks a zero component)
    assert all(r <= 1e-3 for r in res["ode_residuals"] if isinstance(r, float))


def test_decompose_accuracy_shortfall_is_undecided(tmp_path):
    # Q_nn nears rank loss on this valid trajectory: the interpolated
    # components miss their ODE by more than 1e-3, which refutes nothing
    A, B, grid, Q = helpers.sinusoid_trajectory(np.random.default_rng(35), 2, 1)
    doc = {"command": "decompose", "A": A.tolist(), "B": B.tolist(),
           "grid": {"t0": grid.t0, "t1": grid.t1, "steps": grid.steps},
           "samples": Q.reshape(grid.steps + 1, -1).tolist()}
    code, out = run_cli(["decompose", "--input", str(write_problem(tmp_path, doc))], tmp_path)
    assert (code, out["status"]) == (2, "undecided")
    assert max(r for r in out["result"]["ode_residuals"] if isinstance(r, float)) > 1e-3
    assert out["result"]["reconstruction_error"] <= 1e-4 * out["result"]["max_q_norm"]


def test_decompose_refutation_fails_with_its_residual(tmp_path):
    # the broken trajectory of test_decompose_rejects_non_solution: a PSD
    # bump that no longer solves the dynamics is refuted, not malformed
    rng = np.random.default_rng(44)
    traj, A, B = helpers.synthesized_instance(rng, 2, 1, steps=128)
    vals = traj.values.copy()
    vals[40:90, 0, 0] += 0.3
    grid = traj.grid
    doc = {"command": "decompose", "A": A.tolist(), "B": B.tolist(),
           "grid": {"t0": grid.t0, "t1": grid.t1, "steps": grid.steps},
           "samples": vals.reshape(grid.steps + 1, -1).tolist()}
    code, out = run_cli(["decompose", "--input", str(write_problem(tmp_path, doc))], tmp_path)
    assert (code, out["status"]) == (1, "fails")
    assert out["result"]["dynamics_residual"] > 1e-5


def test_a_kyp_run_computes_the_eigenvalues_of_a_once(tmp_path, monkeypatch):
    # the default grid, both sweeps and the IQC sampler share the instance's
    # eigenvalues of A; only the Hamiltonian of M22 = -I has eigenvalues of its own
    doc = {"command": "kyp", "A": [[-1.0, 0.5], [-0.5, -2.0]], "B": [[1.0], [0.5]],
           "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]], "trials": 1}
    eigvals, shapes = np.linalg.eigvals, []

    def counted(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    code, out = run_cli(["kyp", "--input", str(write_problem(tmp_path, doc))], tmp_path)
    assert (code, out["status"]) == (0, "feasible")
    assert sorted(shapes) == [(2, 2), (4, 4)]


def test_kyp_infeasible_exit_code(tmp_path):
    path = write_problem(
        tmp_path,
        {
            "command": "kyp",
            "A": [[-1.0]],
            "B": [[1.0]],
            "M": [[0.0, 0.0], [0.0, 1.0]],
            "trials": 3,
        },
    )
    code, doc = run_cli(["kyp", "--input", str(path)], tmp_path)
    assert code == 1
    assert doc["status"] == "infeasible"
    assert doc["result"]["lmi"]["status"] == "infeasible"
    assert doc["result"]["lmi"]["decided_by"] == "rank_one_witness"
    assert doc["result"]["frequency"]["holds"] is False


def test_steer_holds(tmp_path):
    path = write_problem(
        tmp_path,
        {
            "command": "steer",
            "A": [[-1.0]],
            "B": [[1.0]],
            "X0": [[0.0]],
            "X1": [[1.0]],
            "t1": 1.0,
        },
    )
    code, doc = run_cli(["steer", "--input", str(path)], tmp_path)
    assert code == 0
    assert doc["status"] == "holds"
    assert max(doc["result"]["endpoint_errors"]) <= 1e-5 * 2.0


def test_steer_uncontrollable(tmp_path):
    path = write_problem(
        tmp_path,
        {
            "command": "steer",
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "B": [[1.0], [0.0]],
            "X0": [[1.0, 0.0], [0.0, 1.0]],
            "X1": [[2.0, 0.0], [0.0, 2.0]],
            "t1": 1.0,
        },
    )
    code, doc = run_cli(["steer", "--input", str(path)], tmp_path)
    assert code == 1
    assert doc["status"] == "fails"
    assert doc["result"]["controllable"] is False
    w = np.array(doc["result"]["obstruction"], dtype=float)
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-9


def test_certify_psd_pinned(tmp_path):
    path = write_problem(
        tmp_path,
        {
            "command": "certify",
            "kind": "psd",
            "U": [[-1.0, 1.0]],
            "V": [[1.0, 0.0]],
            "C": [[0.0, 1.0], [1.0, 0.0]],
        },
    )
    code, doc = run_cli(["certify", "--input", str(path)], tmp_path)
    assert code == 0
    assert doc["status"] == "feasible"
    assert abs(doc["result"]["certificate"]["P"][0][0] - 1.0) <= 1e-3
    assert doc["result"]["decided_by"] == "riccati"
    assert doc["result"]["residual"] == -doc["result"]["certificate"]["slack"][0]


def disguised_kyp(rng, n, m, feasible, extra_rows=0):
    """A planted KYP instance as U'PV + V'PU <= C, hidden by random R and S.

    U = R(A B)S, V = R(I 0)S and C = -S'MS keep the verdict: this
    inequality holds at P iff the KYP inequality holds at R'PR, which takes
    every symmetric value as R has full column rank.  With extra rows V
    lacks full row rank, so there is no KYP form.
    """
    make = helpers.feasible_kyp if feasible else helpers.infeasible_kyp
    inst = make(rng, n, m)[0]
    R = rng.standard_normal((n + extra_rows, n))
    S = rng.standard_normal((n + m, n + m))
    C = -S.T @ inst.M @ S
    return (
        R @ np.hstack([inst.A, inst.B]) @ S,
        R @ np.hstack([np.eye(n), np.zeros((n, m))]) @ S,
        0.5 * (C + C.T),
    )


def test_certify_psd_decides_disguised_kyp_instances(tmp_path):
    rng = np.random.default_rng(10)
    for k in range(24):
        feasible = k % 2 == 0
        U, V, C = disguised_kyp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), feasible)
        doc = {"command": "certify", "kind": "psd", "U": U.tolist(), "V": V.tolist(),
               "C": C.tolist()}
        path = write_problem(tmp_path, doc)
        code, out = run_cli(["certify", "--input", str(path)], tmp_path)
        res = out["result"]
        assert (code, res["status"]) == ((0, "feasible") if feasible else (1, "infeasible"))
        if feasible:
            assert res["decided_by"] == "riccati"
            G = U.T @ np.array(res["certificate"]["P"]) @ V
            assert np.linalg.eigvalsh(C - G - G.T)[0] >= -kyp.LMI_TOL
        else:
            Q = np.array(res["witness"]["z0"])
            assert np.linalg.eigvalsh(Q)[0] >= -1e-9 * np.trace(Q)
            image = U @ Q @ V.T
            assert np.linalg.norm(image + image.T) <= 1e-9 * np.trace(Q) * (
                1.0 + np.linalg.norm(U)
            )
            assert np.trace(C @ Q) < -kyp.LMI_TOL


def test_certify_psd_verdict_does_not_depend_on_the_seed(tmp_path):
    # V = R(I 0)S has rank 2 < 3 rows, so only the rank-one witness and the
    # interior-point route run; a seeded random search that route replaced
    # came back undecided on this problem under seed 0, feasible under seed 1
    U, V, C = disguised_kyp(np.random.default_rng(23), 2, 1, True, extra_rows=1)
    doc = {"command": "certify", "kind": "psd", "U": U.tolist(), "V": V.tolist(),
           "C": C.tolist()}
    path = write_problem(tmp_path, doc)
    runs = [
        run_cli(["certify", "--input", str(path), "--seed", seed], tmp_path, f"{seed}.json")
        for seed in ("0", "1")
    ]
    (code, out), (code_1, out_1) = runs
    assert (code, out["status"], out["result"]) == (code_1, out_1["status"], out_1["result"])
    assert (code, out["status"], out["result"]["decided_by"]) == (0, "feasible", "interior_point")


def test_certify_orthant_infeasible(tmp_path):
    path = write_problem(
        tmp_path,
        {"command": "certify", "kind": "orthant", "L": [[-2.0, 1.0]], "m": [-1.0, 0.4]},
    )
    code, doc = run_cli(["certify", "--input", str(path)], tmp_path)
    assert code == 1
    assert doc["status"] == "infeasible"
    assert doc["result"]["kernel_minimum"] < -1e-7


def test_certify_orthant_certificate_against_kernel_witness_is_an_error(tmp_path):
    # at this scale the certificate p = [-1] and the kernel minimum -2 cannot
    # both hold; the result must not read feasible next to its refutation
    path = write_problem(
        tmp_path,
        {"command": "certify", "kind": "orthant", "L": [[1e300, -1e300, 1.0]],
         "m": [1e300, 1e300, -1.0]},
    )
    code, doc = run_cli(["certify", "--input", str(path)], tmp_path)
    assert code == 3
    assert doc["status"] == "error"
    assert doc["diagnostics"][0].startswith("checkers disagree")


@pytest.mark.parametrize(
    "point, status",
    [
        ([1.0 / 3.0, 2.0 / 3.0, 0.0], "infeasible"),  # a witness: -2z1 + z2 = 0, <m, z> = -1/15
        ([1.0, 2.0, -1.0], "undecided"),  # in the kernel, <m, z> = -5.2, outside the orthant
        ([0.5, 0.5, 0.0], "undecided"),  # in the orthant, <m, z> = -0.3, Lz = -0.5
    ],
)
def test_certify_orthant_kernel_point_passes_its_check(tmp_path, monkeypatch, point, status):
    # the kernel LP reports a minimum of -1 at each point; only a point that
    # passes the three checks refutes, whatever the minimum reads
    monkeypatch.setattr(cli, "orthant_kernel_minimum", lambda prob: (-1.0, np.array(point)))
    path = write_problem(
        tmp_path, {"command": "certify", "kind": "orthant", "L": [[-2.0, 1.0, 0.0]],
                   "m": [-1.0, 0.4, 5.0]},
    )
    code, doc = run_cli(["certify", "--input", str(path)], tmp_path)
    assert (code, doc["status"]) == (cli._EXIT_BY_STATUS[status], status)
    assert (doc["result"]["kernel_minimum"], doc["result"]["certificate"]) == (-1.0, None)


def test_certify_orthant_vertex_failing_its_slack_check_is_undecided(tmp_path, monkeypatch):
    # -2p <= -1 and p <= 0.5 hold only at p = 0.5; the feasibility LP (four
    # columns: p+, p- and two slacks) is made to return p = 0.6 instead, whose
    # slack 0.5 - 0.6 fails the check, and the kernel minimum 0 refutes nothing
    def vertex_off_by_01(c, A, b):
        if A.shape[1] == 4:
            return simplex.SimplexResult("optimal", np.array([0.6, 0.0, 0.2, 0.0]), 0.0)
        return simplex.solve_lp(c, A, b)

    monkeypatch.setattr(certificates, "solve_lp", vertex_off_by_01)
    path = write_problem(
        tmp_path, {"command": "certify", "kind": "orthant", "L": [[-2.0, 1.0]], "m": [-1.0, 0.5]},
    )
    code, doc = run_cli(["certify", "--input", str(path)], tmp_path)
    assert (code, doc["status"], doc["result"]["certificate"]) == (2, "undecided", None)


def test_validate_clean(tmp_path):
    code, doc = run_cli(
        ["validate", "--input", str(SAMPLES / "l1gain_2x2.json")], tmp_path
    )
    assert code == 0
    assert doc["status"] == "holds"
    assert doc["result"]["violations"] == []


def test_validate_reports_field_violations(tmp_path):
    path = write_problem(
        tmp_path,
        {
            "command": "l1gain",
            "A": [[-2.0, 1.0]],
            "B": [[1.0]],
            "extra": 1,
        },
    )
    code, doc = run_cli(["validate", "--input", str(path)], tmp_path)
    assert code == 3
    assert doc["status"] == "error"
    joined = "\n".join(doc["result"]["violations"])
    assert "A: must be square" in joined
    assert "gamma: required scalar missing" in joined
    assert "extra: unknown field" in joined


L1 = {"command": "l1gain", "A": [[-2.0]], "B": [[1.0]], "gamma": 0.5}
KYP = {"command": "kyp", "A": [[-1.0]], "B": [[1.0]], "M": [[0.0, 1.0], [1.0, 0.0]]}
DECOMPOSE = {
    "command": "decompose",
    "A": [[-1.0]],
    "B": [[1.0]],
    "grid": {"t0": 0.0, "t1": 1.0, "steps": 4},
    "samples": [[1.0, 0.0, 0.0, 1.0]] * 5,
}
STEER = {"command": "steer", "A": [[-1.0]], "B": [[1.0]], "X0": [[0.0]], "X1": [[1.0]]}
ORTHANT = {"command": "certify", "kind": "orthant", "L": [[-2.0, 1.0]], "m": [-1.0, 0.4]}
PSD = {
    "command": "certify",
    "kind": "psd",
    "U": [[-1.0, 1.0]],
    "V": [[1.0, 0.0]],
    "C": [[0.0, 1.0], [1.0, 0.0]],
}


def _edit(base, drop=(), **fields):
    doc = {k: v for k, v in base.items() if k not in drop}
    doc.update(fields)
    return doc


# one malformed document per message validate_problem can emit
VIOLATION_TABLE = [
    ({}, ["command: must be one of l1gain, kyp, decompose, steer, certify, got None"]),
    (
        {"command": "solve"},
        ["command: must be one of l1gain, kyp, decompose, steer, certify, got 'solve'"],
    ),
    (_edit(L1, extra=1), ["extra: unknown field for command 'l1gain'"]),
    (_edit(L1, drop=("A",)), ["A: required matrix missing"]),
    (_edit(L1, A=[]), ["A: must be a non-empty array of rows"]),
    (_edit(L1, A=[[-2.0], -2.0]), ["A: must be a non-empty array of rows"]),
    (_edit(L1, A=[[]]), ["A: rows must be non-empty and equal length"]),
    (_edit(L1, A=[[-2.0, 0.0], [1.0]]), ["A: rows must be non-empty and equal length"]),
    (_edit(L1, A=[["-2"]]), ["A: entries must be finite numbers"]),
    (_edit(L1, A=[[True]]), ["A: entries must be finite numbers"]),
    (_edit(L1, A=[[-2.0, 0.0]]), ["A: must be square, got 1x2"]),
    (_edit(L1, B=[[1.0], [1.0]]), ["B: expected 1 rows, got 2"]),
    (_edit(L1, drop=("gamma",)), ["gamma: required scalar missing"]),
    (_edit(L1, gamma="0.5"), ["gamma: must be a finite number"]),
    (_edit(L1, gamma=True), ["gamma: must be a finite number"]),
    (_edit(L1, gamma=-1.0), ["gamma: must be positive, got -1.0"]),
    (_edit(L1, seed=1.5), ["seed: must be an integer"]),
    (_edit(L1, seed=False), ["seed: must be an integer"]),
    (_edit(L1, tol=0), ["tol: must be positive, got 0"]),
    (
        _edit(L1, A=[[-2.0, 1.0]], drop=("gamma",), extra=1),
        [
            "extra: unknown field for command 'l1gain'",
            "A: must be square, got 1x2",
            "gamma: required scalar missing",
        ],
    ),
    (_edit(KYP, M=[[1.0]]), ["M: expected 2 rows, got 1"]),
    (_edit(KYP, M=[[1.0, 0.0]]), ["M: must be square, got 1x2"]),
    (_edit(KYP, horizon=-1), ["horizon: must be positive, got -1"]),
    (_edit(KYP, trials=2.0), ["trials: must be an integer"]),
    (_edit(KYP, trials=0), ["trials: must be positive, got 0"]),
    (_edit(DECOMPOSE, drop=("grid",)), ["grid: required object with t0, t1, steps"]),
    (_edit(DECOMPOSE, grid=[0.0, 1.0, 4]), ["grid: required object with t0, t1, steps"]),
    (_edit(DECOMPOSE, grid={"t1": 1.0, "steps": 4}), ["grid.t0: required scalar missing"]),
    (
        _edit(DECOMPOSE, grid={"t0": 0.0, "t1": "1", "steps": 4}),
        ["grid.t1: must be a finite number"],
    ),
    (
        _edit(DECOMPOSE, grid={"t0": 0.0, "t1": 1.0, "steps": 4.0}),
        ["grid.steps: must be an integer"],
    ),
    (
        _edit(DECOMPOSE, grid={"t0": 0.0, "t1": 1.0, "steps": 0}),
        ["grid.steps: must be positive, got 0"],
    ),
    (
        _edit(DECOMPOSE, grid={"t0": 0.0, "t1": 1.0, "steps": 4, "dt": 0.25}),
        ["grid.dt: unknown field"],
    ),
    (
        _edit(DECOMPOSE, grid={"t0": 1.0, "t1": 0.0, "steps": 4}),
        ["grid.t1: must exceed grid.t0, got [1.0, 0.0]"],
    ),
    (
        _edit(DECOMPOSE, grid={"t0": 0.0, "t1": 1.0, "steps": 3}),
        [
            "grid.steps: need at least 4 steps, got 3",
            "samples: expected grid.steps + 1 = 4 rows, got 5",
        ],
    ),
    (
        _edit(DECOMPOSE, drop=("samples",)),
        ["samples: required non-empty array of flat per-sample rows"],
    ),
    (
        _edit(DECOMPOSE, samples=[]),
        ["samples: required non-empty array of flat per-sample rows"],
    ),
    (
        _edit(DECOMPOSE, samples=[[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0]] + [[1.0] * 4] * 3),
        ["samples[1]: must be a flat array of 4 finite numbers (row-major 2x2)"],
    ),
    (
        _edit(DECOMPOSE, samples=[[1.0] * 4] * 4 + [[1.0, 0.0, None, 1.0]]),
        ["samples[4]: must be a flat array of 4 finite numbers (row-major 2x2)"],
    ),
    (
        _edit(DECOMPOSE, samples=[[1.0] * 4] * 4),
        ["samples: expected grid.steps + 1 = 5 rows, got 4"],
    ),
    (_edit(STEER, B=[[1.0], [0.0]]), ["B: expected 1 rows, got 2"]),
    (_edit(STEER, X0=[[1.0, 0.0], [0.0, 1.0]]), ["X0: expected 1 rows, got 2"]),
    (_edit(STEER, X1=[[1.0, 0.0]]), ["X1: must be square, got 1x2"]),
    (_edit(STEER, t1=0.0), ["t1: must be positive, got 0.0"]),
    (_edit(ORTHANT, drop=("kind",)), ["kind: must be 'orthant' or 'psd', got None"]),
    (_edit(ORTHANT, kind="cone"), ["kind: must be 'orthant' or 'psd', got 'cone'"]),
    (_edit(ORTHANT, drop=("m",)), ["m: required vector missing"]),
    (_edit(ORTHANT, m=[]), ["m: must be a non-empty array of finite numbers"]),
    (_edit(ORTHANT, m=[-1.0, "0.4"]), ["m: must be a non-empty array of finite numbers"]),
    (_edit(ORTHANT, m=[-1.0]), ["m: expected length 2, got 1"]),
    (
        _edit(ORTHANT, U=[[1.0]], C=[[1.0]]),
        ["U: not a field of orthant problems", "C: not a field of orthant problems"],
    ),
    (_edit(PSD, V=[[1.0]]), ["V: expected 2 columns, got 1"]),
    (_edit(PSD, C=[[1.0]]), ["C: expected 2 rows, got 1"]),
    (
        _edit(PSD, L=[[1.0]], m=[1.0]),
        ["L: not a field of psd problems", "m: not a field of psd problems"],
    ),
    (_edit(L1, seed=-1), ["seed: must be at least 0, got -1"]),
]


@pytest.mark.parametrize(
    "doc, expected", VIOLATION_TABLE, ids=[str(i) for i in range(len(VIOLATION_TABLE))]
)
def test_validator_messages(doc, expected):
    assert cli.validate_problem(doc)[0] == expected


HUGE = 10**400  # a JSON integer literal beyond the double range
HUGE_SAMPLES = [list(row) for row in DECOMPOSE["samples"]]
HUGE_SAMPLES[2][1] = HUGE


@pytest.mark.parametrize(
    "doc, message",
    [
        (_edit(L1, gamma=HUGE), "gamma: must be a finite number"),
        (_edit(L1, A=[[-2.0, HUGE], [0.0, -1.0]], B=[[1.0], [1.0]]),
         "A: entries must be finite numbers"),
        (_edit(DECOMPOSE, samples=HUGE_SAMPLES),
         "samples[2]: must be a flat array of 4 finite numbers (row-major 2x2)"),
    ],
    ids=["gamma", "matrix", "samples"],
)
def test_out_of_range_integer_is_a_violation(tmp_path, doc, message):
    path = write_problem(tmp_path, doc)
    code, out = run_cli([doc["command"], "--input", str(path)], tmp_path)
    assert code == 3
    assert out["status"] == "error"
    assert out["diagnostics"] == [message]
    code, out = run_cli(["validate", "--input", str(path)], tmp_path)
    assert code == 3
    assert out["result"]["violations"] == [message]


def test_l1gain_near_gain_bisection(tmp_path):
    # a bisection probe of this system lands within FEAS_TOL of the gain
    path = write_problem(
        tmp_path,
        {
            "command": "l1gain",
            "A": [[-1.2153346083008052, 0.6845766553959434],
                  [0.3577171411105431, -0.9408379274009048]],
            "B": [[0.4122742020093697], [0.7808007115348593]],
            "gamma": 1.0,
        },
    )
    code, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert code == 1
    assert doc["status"] == "infeasible"
    gain = doc["result"]["gain"]
    assert gain == 2.2467498888497768
    assert abs(doc["result"]["gain_bisected"] - gain) <= 1e-6 * (1.0 + gain)


def test_l1gain_phase1_accuracy_loss_is_named(tmp_path):
    # a valid positive system at a scale where the phase-1 tableau loses its
    # accuracy: the error names the column instead of reading as a defect
    path = write_problem(
        tmp_path,
        {"command": "l1gain", "A": [[-1e300, 1e300], [0.0, -1.0]],
         "B": [[1e300], [1.0]], "gamma": 1.0},
    )
    code, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert code == 3
    assert doc["diagnostics"] == [
        "phase 1 ended 'unbounded': column 1 has reduced cost -1.000e+00 but no entry "
        "above 1e-09, so the tableau lost its accuracy at this scale"
    ]


@pytest.mark.parametrize(
    "gamma, tol, code, status",
    [(0.4999999, 1e-6, 0, "feasible"), (0.4995, 1e-3, 0, "feasible"),
     (0.498, 1e-3, 1, "infeasible")],
)
def test_l1gain_decides_at_a_tol_above_1e_8(tmp_path, gamma, tol, code, status):
    # feasible iff gamma >= gain - tol (gain 0.5): the certificate's input
    # slack and the LP cross-check both accept a gamma up to tol below it
    path = write_problem(tmp_path, _edit(L1, gamma=gamma, tol=tol))
    got, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert (got, doc["status"]) == (code, status)


def test_l1gain_bisects_a_small_gain_to_1e_7_relative(tmp_path):
    # a gain far below 1: only a relative stop rule bisects it to 1e-7
    path = write_problem(
        tmp_path,
        {"command": "l1gain", "A": [[-1.0, 0.0], [0.5, -2.0]], "B": [[1e-8], [0.0]],
         "gamma": 1.0},
    )
    code, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert (code, doc["status"]) == (0, "feasible")
    gain = doc["result"]["gain"]
    assert abs(gain - 1.25e-8) <= 1e-22
    assert abs(doc["result"]["gain_bisected"] - gain) <= 1e-7 * gain


# a Frobenius norm squares the entries and overflows from about 1e154; a
# check scaled by it must still refuse these
OVERFLOWING_NORMS = [
    ({"command": "kyp", "A": [[-1.0]], "B": [[1.0]], "M": [[-1e200, 1e200], [-1e200, -1.0]]},
     "M is not symmetric (max asymmetry 2.000e+200)"),
    ({"command": "certify", "kind": "psd", "U": [[1.0, 0.0]], "V": [[0.0, 1.0]],
      "C": [[-1e200, 1e200], [-1e200, -1.0]]},
     "C is not symmetric (max asymmetry 2.000e+200)"),
    (_edit(DECOMPOSE, samples=[[1e200, 0.0, 0.0, -1e200]] * 5),
     "sample 0 is not PSD: min eigenvalue -1.000e+200"),
]


@pytest.mark.parametrize("doc, message", OVERFLOWING_NORMS, ids=["kyp", "psd", "decompose"])
def test_checks_scaled_by_an_overflowing_norm_still_refuse(tmp_path, doc, message):
    path = write_problem(tmp_path, doc)
    subcommand = doc["command"]
    code, out = run_cli([subcommand, "--input", str(path)], tmp_path)
    assert (code, out["status"], out["diagnostics"]) == (3, "error", [message])


def test_kyp_with_an_overflowing_popov_form_exits_3(tmp_path):
    # |G(0)|^2 = 1e320: the Hamiltonian, built before either sweep, overflows first
    doc = {"command": "kyp", "A": [[-1.0]], "B": [[1e160]], "M": [[1.0, 0.0], [0.0, -1.0]]}
    code, out = run_cli(["kyp", "--input", str(write_problem(tmp_path, doc))], tmp_path)
    assert (code, out["status"]) == (3, "error")
    assert out["diagnostics"] == [
        "the KYP Hamiltonian has non-finite entries: a product with M22^-1 overflows"
    ]


def test_frobenius_of_a_large_entry_warns_of_no_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validation.frobenius("B", np.array([[1e160]])) == 1e160
        stack = np.array([[[1e160, 0.0], [0.0, 0.0]], [[3.0, 4.0], [0.0, 0.0]]])
        np.testing.assert_array_equal(validation.frobenius("B", stack, axis=(1, 2)), [1e160, 5.0])


def test_a_norm_beyond_the_double_range_is_refused_by_name():
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="^M is too large: its Frobenius norm overflows$"
    ):
        kyp.KypInstance(A=[[-1.0]], B=[[1.0]], M=[[1.5e308, 1.5e308], [1.5e308, 1.5e308]])


@pytest.mark.parametrize("subcommand", [*cli.COMMANDS, "validate"])
def test_a_negative_seed_is_refused_before_the_run(tmp_path, subcommand):
    doc = {**VALID, "certify": PSD}.get(subcommand, L1)
    clean = write_problem(tmp_path, doc, "clean.json")
    seeded = write_problem(tmp_path, _edit(doc, seed=-1), "seeded.json")
    for argv, message in (
        (["--input", str(seeded)], "seed: must be at least 0, got -1"),
        (["--input", str(clean), "--seed", "-5"], "--seed: must be at least 0, got -5"),
    ):
        code, out = run_cli([subcommand] + argv, tmp_path)
        found = out["result"]["violations"] if subcommand == "validate" else out["diagnostics"]
        assert (code, out["status"], found) == (3, "error", [message])


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "l1gain",', encoding="utf-8")
    code, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert code == 3
    assert doc["status"] == "error"
    assert any("line" in d and "column" in d for d in doc["diagnostics"])


def test_missing_input(tmp_path):
    code, doc = run_cli(["l1gain", "--input", str(tmp_path / "nope.json")], tmp_path)
    assert code == 3
    assert doc["status"] == "error"
    assert any("cannot read" in d for d in doc["diagnostics"])


def test_subcommand_file_mismatch(tmp_path):
    code, doc = run_cli(
        ["kyp", "--input", str(SAMPLES / "l1gain_2x2.json")], tmp_path
    )
    assert code == 3
    assert any("subcommand" in d for d in doc["diagnostics"])


# every JSON value, nested a few levels deep; floats include nan and inf,
# which json.dumps writes as NaN and Infinity and json.loads reads back
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_FIELDS = sorted(set().union(*(c.allowed for c in cli._COMMANDS.values())) - {"command"})
_ANY_DOCUMENT = _JSON | st.builds(
    lambda command, fields: {"command": command, **fields},
    st.sampled_from(cli.COMMANDS) | _JSON,
    st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=5),
)
_ENTRY = st.floats(-1e300, 1e300) | st.integers(-3, 3)
# positive finite values from the subnormals to the largest double
_EXTREME = st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300, 1e308]) | st.floats(
    5e-324, 1.7976931348623157e308)


def _matrix(draw, rows, cols):
    return draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _maybe(draw, doc, field, values):
    if draw(st.booleans()):
        doc[field] = draw(values)


@st.composite
def _well_formed_document(draw):
    """A document of the right shapes for its command, entries up to 1e300;
    its settings' file fields and trials, when drawn, lie anywhere in range."""
    command = draw(st.sampled_from(cli.COMMANDS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    doc = {"command": command}
    if command in ("l1gain", "kyp", "decompose", "steer"):
        doc.update(A=_matrix(draw, n, n), B=_matrix(draw, n, m))
    if command == "l1gain":
        doc["gamma"] = draw(st.floats(1e-300, 1e300))
    elif command == "kyp":
        doc["M"] = _matrix(draw, n + m, n + m)
    elif command == "decompose":
        steps = draw(st.integers(4, 8))
        doc["grid"] = {"t0": 0.0, "t1": draw(st.floats(1e-3, 1e300)), "steps": steps}
        doc["samples"] = _matrix(draw, steps + 1, (n + m) ** 2)
    elif command == "steer":
        doc.update(X0=_matrix(draw, n, n), X1=_matrix(draw, n, n))
    elif draw(st.booleans()):
        doc.update(kind="orthant", L=_matrix(draw, n, n + m), m=_matrix(draw, 1, n + m)[0])
    else:
        doc.update(kind="psd", U=_matrix(draw, n, n + m), V=_matrix(draw, n, n + m),
                   C=_matrix(draw, n + m, n + m))
    if command in ("l1gain", "kyp", "decompose"):
        _maybe(draw, doc, "tol", _EXTREME)
    if command == "kyp":
        _maybe(draw, doc, "horizon", _EXTREME)
        _maybe(draw, doc, "trials", st.sampled_from([1, 2, kyp.IQC_MAX_TRIALS]))
    if command == "steer":
        _maybe(draw, doc, "t1", _EXTREME)
    return doc


@st.composite
def _setting_flags(draw, command):
    """Some of the command's setting flags, each at an extreme value, nan or
    inf, or out of range; --grid stays at a few hundred or less."""
    flags = {}
    for flag in sorted(SETTING_FLAGS[command]):
        if draw(st.booleans()):
            flags[flag] = draw(st.integers(-1, 300) if flag == "--grid" else
                               _EXTREME | st.sampled_from([0.0, -1.0, math.nan, math.inf]))
    return flags


def _check_cli_contract(tmp, doc, subcommands, flags=None):
    """validate and each subcommand return a known exit code and never raise;
    exit 3 carries diagnostics, and a document validate rejects exits 3.

    flags maps setting flags to values for the subcommands; a well-formed
    document run with a flag out of range exits 3 naming just those flags.
    """
    flags = flags or {}
    path = tmp / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["validate", "--input", str(path)], tmp)
    assert code in (0, 3)
    rejected = code == 3
    if rejected:
        assert (out["result"] or {}).get("violations") or out["diagnostics"]
    bad = {flag for flag, value in flags.items() if not 0 < value < math.inf}
    for sub in subcommands:
        argv = [sub, "--input", str(path)] + [f"{flag}={value!r}" for flag, value in flags.items()]
        code, out = run_cli(argv, tmp)
        assert code in (0, 1, 2, 3)
        assert code != 3 or out["diagnostics"]
        assert code == 3 or not (rejected or bad)
        if bad and not rejected:
            assert {d.split(":")[0] for d in out["diagnostics"]} == bad


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_ANY_DOCUMENT)
def test_cli_fuzz_arbitrary_documents(fuzz_dir, doc):
    _check_cli_contract(fuzz_dir, doc, cli.COMMANDS)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_well_formed_document(), data=st.data())
def test_cli_fuzz_well_formed_extreme_documents(fuzz_dir, doc, data):
    _check_cli_contract(fuzz_dir, doc, [doc["command"]])
    flags = data.draw(_setting_flags(doc["command"]))
    _check_cli_contract(fuzz_dir, doc, [doc["command"]], flags)


def test_kyp_horizon_override_reaches_sampler(tmp_path):
    # a horizon too short for the state to settle must surface as an error
    src = SAMPLES / "kyp_scalar_passivity.json"
    code, doc = run_cli(["kyp", "--input", str(src), "--horizon", "2.0"], tmp_path)
    assert code == 3
    assert doc["status"] == "error"
    assert any("horizon" in d for d in doc["diagnostics"])
    code, _ = run_cli(["kyp", "--input", str(src), "--horizon", "40.0"], tmp_path)
    assert code == 0


def test_kyp_tol_runs_each_sweep_once(tmp_path, monkeypatch):
    calls = {}
    for name in ("frequency_condition", "pointwise_condition"):
        original = getattr(kyp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        # every module attribute that holds the sweep, as the CLI may import it
        for mod in (kyp, cli):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    src = SAMPLES / "kyp_scalar_passivity.json"
    code, doc = run_cli(["kyp", "--input", str(src), "--tol", "1e-7"], tmp_path)
    assert code == 0
    assert calls == {"frequency_condition": 1, "pointwise_condition": 1}
    assert doc["result"]["frequency"]["holds"] is True


def test_kyp_resonance_iqc_over_step_budget(tmp_path):
    # zeta = 1e-4 at omega0 = 7.3: the derived IQC horizon, 24/alpha, needs
    # about 4.2M steps a trial, far over the sampler's step budget; the
    # resonance peak lies between grid points
    doc_in = {
        "command": "kyp",
        "A": [[0.0, 1.0], [-53.29, -0.00146]],
        "B": [[0.0], [1.0]],
        "M": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -2500.0]],
    }
    path = write_problem(tmp_path, doc_in)
    code, doc = run_cli(["kyp", "--input", str(path)], tmp_path)
    assert code == 1
    assert doc["status"] == "infeasible"
    res = doc["result"]
    assert res["iqc"]["status"] == "not_applicable"
    assert res["lmi"]["status"] == "infeasible"
    assert res["lmi"]["decided_by"] == "frequency_witness"
    assert res["frequency"]["holds"] is False and res["pointwise"]["holds"] is False
    assert res["defects"] == []
    # the witness refutes every P: PSD, in the kernel of UQV' + VQU', and
    # of negative objective tr(-MQ)
    A, B, M = (np.array(doc_in[k]) for k in ("A", "B", "M"))
    Q = np.array(res["lmi"]["witness"])
    U = np.hstack([A, B])
    V = np.hstack([np.eye(2), np.zeros((2, 1))])
    assert abs(np.trace(Q) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(Q)[0] >= -1e-12
    assert np.linalg.norm(U @ Q @ V.T + V @ Q @ U.T) <= 1e-9 * (1.0 + np.linalg.norm(U))
    assert -np.trace(M @ Q) < -1e-6


PASSIVITY = json.loads((SAMPLES / "kyp_scalar_passivity.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(PASSIVITY, horizon=1e308), "horizon 1e+308 needs inf steps"),
        # the decay rate 1e-310 puts the derived horizon 24/alpha at inf
        ({"command": "kyp", "A": [[-1e-310]], "B": [[1.0]], "M": [[0.0, 1.0], [1.0, -1.0]]},
         "horizon inf needs inf steps"),
    ],
    ids=["horizon-1e308", "subnormal-decay-rate"],
)
def test_kyp_horizon_beyond_any_step_count_skips_the_sampler(tmp_path, caplog, doc, message):
    with caplog.at_level(logging.WARNING, logger="conecert"):
        code, out = run_cli(["kyp", "--input", str(write_problem(tmp_path, doc))], tmp_path)
    assert (code, out["status"]) == (0, "feasible")
    assert out["result"]["iqc"]["status"] == "not_applicable"
    assert message in caplog.text


def test_kyp_trials_over_budget(tmp_path):
    digits = "1" + "0" * 400  # a 401-digit trial count
    src = json.loads((SAMPLES / "kyp_scalar_passivity.json").read_text(encoding="utf-8"))
    path = tmp_path / "trials.json"
    path.write_text(json.dumps(src)[:-1] + f', "trials": {digits}}}', encoding="utf-8")
    message = f"trials: must be at most {kyp.IQC_MAX_TRIALS}, got {digits}"
    start = time.perf_counter()
    code, doc = run_cli(["kyp", "--input", str(path)], tmp_path)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert doc["status"] == "error" and doc["diagnostics"] == [message]
    code, doc = run_cli(["validate", "--input", str(path)], tmp_path)
    assert code == 3
    assert doc["result"]["violations"] == [message]
    src["trials"] = kyp.IQC_MAX_TRIALS
    path.write_text(json.dumps(src), encoding="utf-8")
    code, doc = run_cli(["validate", "--input", str(path)], tmp_path)
    assert code == 0


@pytest.mark.parametrize(
    "doc, budget",
    [
        (json.loads((SAMPLES / "kyp_scalar_passivity.json").read_text(encoding="utf-8")),
         cli.KYP_MAX_GRID),
        (STEER, cli.STEER_MAX_GRID),
    ],
)
def test_grid_over_budget_is_rejected_before_running(doc, budget, tmp_path, monkeypatch):
    command = doc["command"]
    path = write_problem(tmp_path, doc)
    _, within = run_cli([command, "--input", str(path), "--grid", "1000"], tmp_path)
    assert within["status"] == ("holds" if command == "steer" else "feasible")

    def not_run(**values):
        raise AssertionError("a grid over budget reached the runner")

    monkeypatch.setattr(cli._COMMANDS[command], "run", not_run)
    code, out = run_cli([command, "--input", str(path), "--grid", str(budget + 1)], tmp_path)
    assert code == 3
    assert (out["status"], out["result"]) == ("error", None)
    assert out["diagnostics"] == [f"--grid: must be at most {budget}, got {budget + 1}"]


def test_seed_precedence(tmp_path):
    path = write_problem(
        tmp_path,
        {"command": "l1gain", "A": [[-2.0]], "B": [[1.0]], "gamma": 1.0, "seed": 7},
    )
    _, doc = run_cli(["l1gain", "--input", str(path)], tmp_path)
    assert doc["seed"] == 7  # file seed wins when the flag is left at its default
    _, doc = run_cli(["l1gain", "--input", str(path), "--seed", "3"], tmp_path)
    assert doc["seed"] == 3  # explicit flag overrides the file


# the option flags each subcommand registers beyond --input, --output, --seed
SETTING_FLAGS = {
    "l1gain": {"--tol"},
    "kyp": {"--tol", "--grid", "--horizon"},
    "decompose": {"--tol"},
    "steer": {"--grid", "--horizon"},
    "certify": set(),
    "validate": set(),
}
# a resonant pair whose frequency form peaks between grid points
RESONANT_KYP = {
    "command": "kyp",
    "A": [[0.0, 1.0], [-1.0, -0.5]],
    "B": [[0.0], [1.0]],
    "M": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
}
# (command, problem, flag, value): the flag moves a result field away from
# its value at the default; gamma sits 5e-9 under the gain of 0.5, inside
# the default tol of 1e-8
SETTING_PROBES = [
    ("l1gain", _edit(L1, gamma=0.5 - 5e-9), "--tol", "1e-10"),
    ("kyp", RESONANT_KYP, "--tol", "10"),
    ("kyp", RESONANT_KYP, "--grid", "20"),
    ("kyp", RESONANT_KYP, "--horizon", "200"),
    ("decompose", None, "--tol", "1e-30"),
    ("steer", STEER, "--grid", "64"),
    ("steer", STEER, "--horizon", "2.0"),
]


def _subparser_flags(name):
    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[name]._actions
    return {flag for action in actions for flag in action.option_strings} - {"-h", "--help"}


def test_each_command_accepts_only_the_settings_it_reads(tmp_path):
    for name, settings in SETTING_FLAGS.items():
        assert _subparser_flags(name) == {"--input", "--output", "--seed"} | settings, name
        for flag in {"--tol", "--grid", "--horizon"} - settings:
            with pytest.raises(SystemExit) as exc:
                cli.run([name, "--input", str(SAMPLES / "l1gain_2x2.json"), flag, "1"])
            assert exc.value.code == 2, (name, flag)

    # every setting is read: a non-default value changes the result
    for command, doc, flag, value in SETTING_PROBES:
        path = (SAMPLES / "decompose_synthesized.json" if doc is None
                else write_problem(tmp_path, doc))
        _, base = run_cli([command, "--input", str(path)], tmp_path)
        _, moved = run_cli([command, "--input", str(path), flag, value], tmp_path)
        assert moved != base, (command, flag)
    _, out = run_cli(["decompose", "--input", str(SAMPLES / "decompose_synthesized.json"),
                      "--tol", "1e-30"], tmp_path)
    assert out["status"] == "undecided"
    _, out = run_cli(["steer", "--input", str(write_problem(tmp_path, STEER)),
                      "--grid", "64", "--horizon", "2.0"], tmp_path)
    assert (out["result"]["steps"], out["result"]["t1"]) == (64, 2.0)

    # a file field the command never reads is a schema violation
    for doc in (_edit(STEER, tol=1e-3), _edit(ORTHANT, tol=1e-3)):
        command = doc["command"]
        code, out = run_cli([command, "--input", str(write_problem(tmp_path, doc))], tmp_path)
        assert code == 3
        assert out["diagnostics"] == [f"tol: unknown field for command '{command}'"]


# (command, setting flag, its file field or None); the flag's value passes
# the file field's check, and its diagnostic names the flag
SETTING_FIELDS = [
    ("l1gain", "tol", "tol"),
    ("kyp", "tol", "tol"),
    ("kyp", "horizon", "horizon"),
    ("kyp", "grid", None),
    ("decompose", "tol", "tol"),
    ("steer", "horizon", "t1"),
    ("steer", "grid", None),
]
GRID_BUDGETS = {"kyp": cli.KYP_MAX_GRID, "steer": cli.STEER_MAX_GRID}
VALID = {"l1gain": L1, "kyp": KYP, "decompose": DECOMPOSE, "steer": STEER}
# the file field's message body at each bad value, as the parent commit gave it
FILE_BODIES = {
    "0": "must be positive, got 0.0",
    "-1": "must be positive, got -1.0",
    "nan": "must be a finite number",
    "inf": "must be a finite number",
}


PARITY_CASES = [
    (command, flag, field, value)
    for command, flag, field in SETTING_FIELDS
    for value in ["0", "-1", "nan", "inf"] + (["over budget"] if flag == "grid" else [])
]


@pytest.mark.parametrize("command, flag, field, value", PARITY_CASES)
def test_a_flag_passes_the_check_of_its_file_field(tmp_path, command, flag, field, value):
    valid = write_problem(tmp_path, VALID[command], "valid.json")
    if field is not None:
        body = FILE_BODIES[value]
        bad = write_problem(tmp_path, _edit(VALID[command], **{field: float(value)}), "bad.json")
        code, out = run_cli(["validate", "--input", str(bad)], tmp_path)
        assert (code, out["result"]["violations"]) == (3, [f"{field}: {body}"])
        code, out = run_cli([command, "--input", str(bad)], tmp_path)
        assert (code, out["diagnostics"]) == (3, [f"{field}: {body}"])
    elif value in ("nan", "inf"):  # --grid takes integers: a usage error
        with pytest.raises(SystemExit) as exc:
            cli.run([command, "--input", str(valid), f"--grid={value}"])
        assert exc.value.code == 2
        return
    elif value == "over budget":
        budget = GRID_BUDGETS[command]
        value, body = str(budget + 1), f"must be at most {budget}, got {budget + 1}"
    else:
        body = f"must be positive, got {value}"
    code, out = run_cli([command, "--input", str(valid), f"--{flag}={value}"], tmp_path)
    assert (code, out["status"], out["result"]) == (3, "error", None)
    assert out["diagnostics"] == [f"--{flag}: {body}"]


def test_settings_resolve_flag_then_file_field_then_default(tmp_path):
    flagged = write_problem(tmp_path, _edit(STEER, t1=3.0), "flagged.json")
    _, out = run_cli(["steer", "--input", str(flagged), "--horizon", "2.0"], tmp_path)
    assert out["result"]["t1"] == 2.0
    _, out = run_cli(["steer", "--input", str(flagged)], tmp_path)
    assert out["result"]["t1"] == 3.0
    _, out = run_cli(["steer", "--input", str(write_problem(tmp_path, STEER))], tmp_path)
    assert (out["result"]["t1"], out["result"]["steps"]) == (1.0, 512)
    # the file's tol is read where tol is a setting
    near = _edit(L1, gamma=0.5 - 5e-9)
    code, _ = run_cli(["l1gain", "--input", str(write_problem(tmp_path, near))], tmp_path)
    assert code == 0
    strict = write_problem(tmp_path, _edit(near, tol=1e-10), "strict.json")
    code, _ = run_cli(["l1gain", "--input", str(strict)], tmp_path)
    assert code == 1
    code, _ = run_cli(["l1gain", "--input", str(strict), "--tol", "1e-8"], tmp_path)
    assert code == 0


def test_byte_determinism(tmp_path):
    src = SAMPLES / "kyp_scalar_passivity.json"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.run(["kyp", "--input", str(src), "--output", str(a)]) == 0
    assert cli.run(["kyp", "--input", str(src), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_default(tmp_path, capsys):
    path = write_problem(
        tmp_path, {"command": "l1gain", "A": [[-2.0]], "B": [[1.0]], "gamma": 0.5}
    )
    code = cli.run(["l1gain", "--input", str(path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "feasible"


def test_log_env_levels(monkeypatch, capsys):
    root = logging.getLogger("conecert")
    monkeypatch.setenv("CONE_CERT_LOG", "debug")
    cli._configure_logging()
    assert root.level == logging.DEBUG
    monkeypatch.setenv("CONE_CERT_LOG", "quiet")
    cli._configure_logging()
    assert root.level == logging.ERROR
    monkeypatch.setenv("CONE_CERT_LOG", "loud")
    cli._configure_logging()
    assert root.level == logging.WARNING
    assert "ignoring CONE_CERT_LOG" in capsys.readouterr().err
    monkeypatch.delenv("CONE_CERT_LOG")
    cli._configure_logging()
    assert root.level == logging.WARNING


FRESH_RUNS = """
import json, sys
from conecert import cli

report = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    report.append([code, "scipy" in sys.modules])
print(json.dumps(report))
"""


def run_fresh(runs, tmp_path):
    """cli.run on each argv in turn, in one new interpreter with this checkout's src.

    Returns whether scipy is loaded after `import conecert.cli`, then
    [exit code, scipy loaded] after each run, and the child's stderr.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS, json.dumps(runs)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    return report[0], report[1:], proc.stderr


def test_no_command_loads_scipy(tmp_path):
    orthant = write_problem(tmp_path, ORTHANT, name="orthant.json")
    # refuted by the rank-one witness
    psd_rank_one = write_problem(
        tmp_path, dict(PSD, C=[[0.0, 1.0], [1.0, -1.0]]), name="psd_rank_one.json"
    )
    # V has rank 1 < 2 rows: certified by the interior-point route
    psd_interior = write_problem(
        tmp_path,
        dict(PSD, U=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], V=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
             C=np.eye(3).tolist()),
        name="psd_interior.json",
    )
    # the resonance pair in PSD form, V = (I 0) of full row rank: refuted by
    # the frequency witness
    psd_frequency = write_problem(
        tmp_path,
        dict(PSD, U=[[0.0, 1.0, 0.0], [-53.29, -0.00146, 1.0]],
             V=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], C=np.diag([-1.0, 0.0, 2500.0]).tolist()),
        name="psd_frequency.json",
    )
    psd_riccati = write_problem(tmp_path, PSD, name="psd_riccati.json")
    steer = write_problem(tmp_path, STEER, name="steer.json")
    kyp_argv = ["kyp", "--input", str(SAMPLES / "kyp_scalar_passivity.json")]
    argvs = [
        ["l1gain", "--input", str(SAMPLES / "l1gain_2x2.json")],
        kyp_argv,
        ["decompose", "--input", str(SAMPLES / "decompose_synthesized.json")],
        ["steer", "--input", str(steer)],
        ["certify", "--input", str(orthant)],
        ["certify", "--input", str(psd_rank_one)],
        ["certify", "--input", str(psd_interior)],
        ["certify", "--input", str(psd_frequency)],
        ["certify", "--input", str(psd_riccati)],
    ] + [["validate", "--input", str(path)] for path in sorted(SAMPLES.glob("*.json"))]
    runs = [argv + ["--output", str(tmp_path / f"{k}.json")] for k, argv in enumerate(argvs)]
    at_import, after, _ = run_fresh(runs, tmp_path)
    assert at_import is False
    assert [loaded for _, loaded in after] == [False] * len(runs)
    assert [code for code, _ in after] == [0, 0, 0, 0, 1, 1, 0, 1, 0] + [0] * (len(runs) - 9)
    results = [json.loads((tmp_path / f"{k}.json").read_text())["result"] for k in range(9)]
    assert results[1]["lmi"]["decided_by"] == "riccati"
    assert [r["decided_by"] for r in results[5:]] == [
        "rank_one_witness", "interior_point", "frequency_witness", "riccati"
    ]
    # the fresh kyp result is the in-process one
    assert cli.run(kyp_argv + ["--output", str(tmp_path / "here.json")]) == 0
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "here.json").read_bytes()


@pytest.mark.filterwarnings("error")
def test_defective_lyapunov_pair_is_certified_without_warnings(tmp_path):
    # square V, so no inputs: the KYP form's A has the defective eigenvalue
    # -1 (computed as -1 +- 1.5e-8i) and 1, whose sum makes the Lyapunov
    # equation singular; the Riccati route skips it, and the interior-point
    # method certifies a P that passes the post-check
    doc = dict(
        PSD,
        U=[[-1.0, -1.0, -1.0], [0.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
        V=[[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, -1.0, 0.0]],
        C=[[-1.0, -0.5, 1.0], [-0.5, 0.0, 1.0], [1.0, 1.0, -1.0]],
    )
    prob = PsdProblem(U=doc["U"], V=doc["V"], C=doc["C"])
    res = kyp.psd_lmi(prob)
    assert res.status == "feasible"
    G = prob.U.T @ res.P @ prob.V
    assert np.linalg.eigvalsh(prob.C - G - G.T)[0] >= -kyp.LMI_TOL
    path = write_problem(tmp_path, doc)
    _, [[code, _]], err = run_fresh(
        [["certify", "--input", str(path), "--output", str(tmp_path / "out.json")]], tmp_path
    )
    assert code == 0 and err == ""
    assert json.loads((tmp_path / "out.json").read_text())["status"] == "feasible"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # in-process runs follow one another on the cached parser; each is
    # compared with the same run in a fresh interpreter
    assert cli._parser() is cli._parser()
    usage_error = ["l1gain"]  # --input is required
    _, [[code, _]], err = run_fresh([usage_error], tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.run(usage_error)
    assert exc.value.code == code == 2
    assert capsys.readouterr().err == err
    for command, sample in (("l1gain", "l1gain_2x2"), ("validate", "kyp_scalar_passivity")):
        argv = [command, "--input", str(SAMPLES / f"{sample}.json"), "--output"]
        _, [[code, _]], _ = run_fresh([argv + [str(tmp_path / "fresh.json")]], tmp_path)
        assert cli.run(argv + [str(tmp_path / "here.json")]) == code == 0
        assert (tmp_path / "here.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def run_entry_point(argv, tmp_path):
    """Run the ``cone-cert`` target from [project.scripts] as pip's wrapper does.

    The child imports this checkout's ``src`` ahead of any installed copy.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(
        r'^cone-cert\s*=\s*"([\w.]+):(\w+)"\s*$', text, flags=re.MULTILINE
    )
    assert match, 'pyproject.toml must declare cone-cert = "module:attr" in [project.scripts]'
    module, attr = match.groups()
    env = {**os.environ, "CONE_CERT_LOG": "info"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def test_console_script(tmp_path):
    out = tmp_path / "out.json"
    proc = run_entry_point(
        ["l1gain", "--input", str(SAMPLES / "l1gain_2x2.json"), "--output", str(out)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["status"] == "feasible"
    assert "running l1gain" in proc.stderr
    assert "status feasible (exit 0)" in proc.stderr
    # a nonzero exit must reach the process too, not only exit 0
    path = write_problem(
        tmp_path, {"command": "l1gain", "A": [[-2.0]], "B": [[1.0]], "gamma": 0.25}
    )
    proc = run_entry_point(
        ["l1gain", "--input", str(path), "--output", str(out)], tmp_path
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["status"] == "infeasible"


def test_module_entry_point(tmp_path):
    # python -m conecert.cli runs the CLI and writes what run() writes
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    path = write_problem(
        tmp_path, {"command": "certify", "kind": "orthant", "L": [[1.0, -1.0]], "m": [1.0, 1.0]}
    )
    direct, by_module = tmp_path / "run.json", tmp_path / "module.json"
    assert cli.run(["certify", "--input", str(path), "--output", str(direct)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "conecert.cli", "certify", "--input", str(path),
         "--output", str(by_module)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert by_module.read_bytes() == direct.read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "conecert.cli", "certify", "--input",
         str(SAMPLES / "l1gain_2x2.json"), "--output", str(by_module)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 3, proc.stderr


# every entry is finite, but the Kalman matrix [B, AB] overflows
OVERFLOWING_KALMAN = {
    "command": "kyp",
    "A": [[-1e300, 1e300], [0, -1]],
    "B": [[1e300], [1]],
    "M": [[1e300, 0, 0], [0, 1, 0], [0, 0, -1e300]],
}


def test_kyp_diagnostic_names_the_overflowing_controllability_matrix(tmp_path):
    path = write_problem(tmp_path, OVERFLOWING_KALMAN)
    code, doc = run_cli(["kyp", "--input", str(path)], tmp_path)
    assert code == 3 and doc["status"] == "error"
    (message,) = doc["diagnostics"]
    assert "controllability matrix" in message
    assert "M contains" not in message


def test_cli_stderr_carries_no_numpy_warnings(tmp_path):
    # the overflow is reported in the result's diagnostics, not by numpy
    env = {**os.environ, "CONE_CERT_LOG": "", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    path = write_problem(tmp_path, OVERFLOWING_KALMAN)
    proc = subprocess.run(
        [sys.executable, "-m", "conecert.cli", "kyp", "--input", str(path),
         "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""


@pytest.mark.skipif(shutil.which("cone-cert") is None, reason="cone-cert is not installed")
def test_console_script_installed(tmp_path):
    exe = shutil.which("cone-cert")
    assert exe is not None, "console script must be installed"
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [exe, "l1gain", "--input", str(SAMPLES / "l1gain_2x2.json"),
         "--output", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "CONE_CERT_LOG": "info"},
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text(encoding="utf-8"))["status"] == "feasible"
    assert "running l1gain" in proc.stderr
    assert "status feasible (exit 0)" in proc.stderr
