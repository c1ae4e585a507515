"""Per-problem output checks, made apart from the program.

Each check compares an output with a value computed here (an LP solved by
HiGHS, a Popov form evaluated in complex arithmetic, a Gramian from one
block exponential, a Kalman rank) or with a property the method must have
(slacks of a returned certificate, a witness in the kernel of the map).
Nothing is compared with a stored copy of an earlier output.

Every check returns a list of violations; an empty list means the output
passes.
"""

import numpy as np

from inputs import gramian_vanloan, popov_form

EXIT_BY_STATUS = {"feasible": 0, "holds": 0, "infeasible": 1, "fails": 1, "undecided": 2,
                  "error": 3}


def _arr(x):
    return np.array(x, dtype=float)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# orthant: L1 gain and raw certificates


def gain_certificate(A, B, gamma, p):
    """p > 0, A'p + 1 <= 1e-8 and B'p <= gamma + 1e-8, recomputed."""
    out = []
    p = _arr(p)
    if p.shape != (A.shape[0],):
        return [f"p has shape {p.shape}"]
    if not np.all(p > 0):
        out.append("p is not entrywise positive")
    if np.max(A.T @ p + 1.0) > 1e-8:
        out.append(f"A'p + 1 reaches {np.max(A.T @ p + 1.0):.3e} > 1e-8")
    if np.max(B.T @ p) > gamma + 1e-8:
        out.append(f"B'p reaches {np.max(B.T @ p):.6g} > gamma {gamma:.6g}")
    return out


def l1gain_cli(exp, doc):
    out = []
    res = doc["result"]
    gstar = exp["gstar"]
    for key in ("gain", "gain_bisected"):
        if _rel(float(res[key]), gstar) > 1e-6:
            out.append(f"{key} {res[key]!r} differs from the LP gain {gstar!r}")
    want = "feasible" if exp["gamma"] >= gstar * (1.0 - 1e-6) else "infeasible"
    if doc["status"] != want:
        out.append(f"status {doc['status']}, expected {want} (gamma {exp['gamma']:.6g}, "
                   f"gain {gstar:.6g})")
    cert = res.get("certificate")
    if want == "feasible" and cert is not None:
        out += gain_certificate(exp["A"], exp["B"], exp["gamma"], cert["p"])
    elif want == "feasible":
        out.append("no certificate returned")
    elif cert is not None:
        out.append("certificate returned below the gain")
    return out


def l1_gain_lib(exp, res):
    out = []
    gstar, gamma = exp["gstar"], exp["gamma"]
    if _rel(res["gain"], gstar) > 1e-6:
        out.append(f"gain {res['gain']!r} differs from the LP gain {gstar!r}")
    if gamma >= gstar and res["p"] is None:
        out.append(f"no certificate at gamma {gamma:.6g} above the gain {gstar:.6g}")
    elif gamma < gstar and res["p"] is not None:
        out.append(f"certificate at gamma {gamma:.6g} below the gain {gstar:.6g}")
    elif res["p"] is not None:
        out += gain_certificate(exp["A"], exp["B"], gamma, res["p"])
    return out


def orthant(exp, doc):
    out = []
    L, m = exp["L"], exp["m"]
    res = doc["result"]
    want = "feasible" if exp["feasible"] else "infeasible"
    if doc["status"] != want:
        out.append(f"status {doc['status']}, planted {want}")
    if res.get("surjective") is not True:
        out.append("L contains +-e_i columns, so it is surjective")
    scale = 1.0 + float(np.max(np.abs(m)))
    if res.get("certificate") is not None:
        p = _arr(res["certificate"]["p"])
        if np.max(L.T @ p - m) > 1e-8 * scale:
            out.append(f"L'p exceeds m by {np.max(L.T @ p - m):.3e}")
    elif want == "feasible":
        out.append("no certificate returned")
    if want == "infeasible":
        if res.get("kernel_witness") is None:
            out.append("no kernel witness returned")
        else:
            z0 = _arr(res["kernel_witness"])
            if np.min(z0) < -1e-12:
                out.append(f"witness has a negative entry {np.min(z0):.3e}")
            if np.linalg.norm(L @ z0) > 1e-8 * (1.0 + np.linalg.norm(z0)):
                out.append(f"witness not in ker L: |L z0| = {np.linalg.norm(L @ z0):.3e}")
            if not m @ z0 < -1e-9:
                out.append(f"witness objective m'z0 = {m @ z0:.3e} is not negative")
    return out


# ---------------------------------------------------------------------------
# KYP decisions


def _lmi_maps(A, B):
    n, m = B.shape
    U = np.hstack([A, B])
    V = np.hstack([np.eye(n), np.zeros((n, m))])
    return U, V


def lmi_certificate(A, B, M, P):
    """lambda_max(M + U'PV + V'PU) <= 1e-6 under numpy eigvalsh."""
    U, V = _lmi_maps(A, B)
    P = _arr(P)
    G = U.T @ P @ V
    top = float(np.linalg.eigvalsh(M + G + G.T)[-1])
    return [] if top <= 1e-6 else [f"LMI at the returned P has eigenvalue {top:.3e} > 1e-6"]


def lmi_witness(A, B, M, Q):
    """Q PSD, UQV' + VQU' ~ 0 and tr(-M Q) < 0."""
    out = []
    U, V = _lmi_maps(A, B)
    Q = _arr(Q)
    scale = 1.0 + np.linalg.norm(Q)
    if float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[0]) < -1e-9 * scale:
        out.append("witness is not PSD")
    image = U @ Q @ V.T + V @ Q @ U.T
    if np.linalg.norm(image) > 1e-8 * scale * (1.0 + np.linalg.norm(U)):
        out.append(f"witness not in the kernel: |UQV' + VQU'| = {np.linalg.norm(image):.3e}")
    if not -np.trace(M @ Q) < 0:
        out.append(f"witness objective tr(-MQ) = {-np.trace(M @ Q):.3e} is not negative")
    return out


def popov_positive(A, B, M, omega, route):
    """The Popov form at the reported frequency must have a positive eigenvalue."""
    n = A.shape[0]
    if np.isinf(omega):
        top = float(np.linalg.eigvalsh(M[n:, n:])[-1])
    else:
        top = float(np.linalg.eigvalsh(popov_form(A, B, M, omega))[-1])
    return [] if top > 0 else [f"{route} refutes at omega {omega!r}, where the form is {top:.3e}"]


def kyp_outcome(exp, verdict, lmi, freq, point, iqc=None):
    """Shared by the library decision and the kyp result document."""
    A, B, M = exp["A"], exp["B"], exp["M"]
    out = []
    if verdict != exp["verdict"]:
        out.append(f"verdict {verdict}, planted {exp['verdict']}")
    if lmi["status"] == "feasible":
        if lmi["P"] is None:
            out.append("feasible LMI without P")
        else:
            out += lmi_certificate(A, B, M, lmi["P"])
    if lmi["witness"] is not None:
        out += lmi_witness(A, B, M, lmi["witness"])
    elif lmi["status"] == "infeasible":
        out.append("infeasible LMI without a witness")
    if not freq["holds"]:
        out += popov_positive(A, B, M, float(freq["worst_omega"]), "frequency sweep")
    if not point["holds"]:
        out += popov_positive(A, B, M, float(point["worst_omega"]), "pointwise sweep")
    if (iqc is not None and exp["verdict"] == "feasible" and freq["holds"]
            and float(freq["worst_value"]) <= -1e-3 and iqc["status"] == "fails"):
        out.append("IQC sampler fails on a planted-feasible instance")
    return out


def kyp_lib(exp, res):
    return kyp_outcome(exp, res["verdict"], res["lmi"], res["frequency"], res["pointwise"])


def kyp_cli(exp, doc):
    r = doc["result"]
    return kyp_outcome(exp, doc["status"], r["lmi"], r["frequency"], r["pointwise"], r["iqc"])


# ---------------------------------------------------------------------------
# trajectories


def steer(exp, doc):
    out = []
    A, B = exp["A"], exp["B"]
    n = A.shape[0]
    res = doc["result"]
    rank = exp["rank"]
    if res["rank"] != rank or res["controllable"] != (rank == n):
        out.append(f"rank {res['rank']} / controllable {res['controllable']}, "
                   f"Kalman rank is {rank} of {n}")
    if rank < n:
        if doc["status"] != "fails":
            out.append(f"status {doc['status']} on an uncontrollable pair")
        w = _arr(res["obstruction"])
        blocks = [B]
        for _ in range(n - 1):
            blocks.append(A @ blocks[-1])
        if abs(np.linalg.norm(w) - 1.0) > 1e-9 or np.linalg.norm(w @ np.hstack(blocks)) > 1e-8:
            out.append("obstruction is not a unit left null vector of the Kalman matrix")
        return out
    if doc["status"] != "holds":
        return out + [f"status {doc['status']} on a controllable pair"]
    W = gramian_vanloan(A, B, exp["t1"])
    cond = float(np.linalg.cond(W))
    if _rel(float(res["gramian_cond"]), cond) > 1e-4:
        out.append(f"gramian_cond {res['gramian_cond']!r}, block exponential gives {cond!r}")
    tol = 1e-5 * (1.0 + np.linalg.norm(exp["X1"]))
    errs = [float(e) for e in res["endpoint_errors"]]
    if len(errs) != 2 or max(errs) > tol:
        out.append(f"endpoint errors {errs} exceed {tol:.3e}")
    return out


def decompose(exp, doc):
    out = []
    res = doc["result"]
    if doc["status"] != "holds":
        out.append(f"status {doc['status']}")
    if res is None:
        return out
    if res["components"] != exp["n"] + exp["m"]:
        out.append(f"{res['components']} components, expected n+m = {exp['n'] + exp['m']}")
    if len(res["segments"]) != exp["segments"]:
        out.append(f"{len(res['segments'])} rank segments, planted {exp['segments']}")
    return out


def dissipation(exp, res):
    out = []
    A, B, gstar = exp["A"], exp["B"], exp["gstar"]
    if _rel(res["gain"], gstar) > 1e-6:
        out.append(f"gain {res['gain']!r} differs from the LP gain {gstar!r}")
    out += gain_certificate(A, B, res["gain"], res["p"])
    for k, rep in enumerate(res["reports"]):
        if not rep["holds"]:
            out.append(f"trajectory {k}: dissipation does not hold")
        if not rep["worst_window"] <= rep["quad_tol"]:
            out.append(f"trajectory {k}: worst window {rep['worst_window']:.3e} > "
                       f"{rep['quad_tol']:.3e}")
        if float(np.min(rep["states"])) < -1e-8:
            out.append(f"trajectory {k}: state reaches {np.min(rep['states']):.3e}")
    return out


# ---------------------------------------------------------------------------


CLI_CHECKS = {
    "l1gain": l1gain_cli,
    "kyp": kyp_cli,
    "steer": steer,
    "decompose": decompose,
}
LIB_CHECKS = {"l1_gain": l1_gain_lib, "kyp_decide": kyp_lib, "dissipation": dissipation}


def cli_document(exp, doc, exit_code):
    """Every CLI result: right command, digest of the input, consistent exit code."""
    out = []
    command = exp["command"]
    if doc.get("command") != command:
        return [f"result names command {doc.get('command')!r}"]
    if doc.get("input_digest") != exp["digest"]:
        out.append("input_digest differs from the sha256 of the file")
    status = doc.get("status")
    if exit_code != EXIT_BY_STATUS.get(status):
        out.append(f"exit code {exit_code} for status {status!r}")
    if status == "error":
        return out + [f"error: {doc.get('diagnostics')}"]
    if command == "certify":
        return out + orthant(exp, doc)
    return out + CLI_CHECKS[command](exp, doc)


def check(problem, output):
    """Violations of one problem's first-pass output."""
    if "exception" in output:
        return [f"raised {output['exception']}"]
    exp = problem["expect"]
    if problem["kind"] == "cli":
        return cli_document(exp, output["doc"], output["exit"])
    return LIB_CHECKS[problem["task"]["op"]](exp, output)
