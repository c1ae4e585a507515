"""Batch front end: problem files in, certificate/report files out.

Problem files are JSON documents naming a command and its matrices;
results are JSON documents with a status drawn from {feasible, infeasible,
undecided, holds, fails, error}, diagnostics, the tool version, and a
digest of the input bytes.  Identical input and seed reproduce the result
byte for byte.
"""

import argparse
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .certificates import (
    OrthantProblem,
    PsdProblem,
    orthant_certificate,
    orthant_kernel_minimum,
    orthant_surjectivity,
)
from .kyp import (
    FORM_TOL, IQC_MAX_TRIALS, IQC_TRIALS, KypInstance, cross_validate, default_grid, psd_lmi
)
from .numerics import TimeGrid
from .possys import (
    PositiveSystem,
    exact_l1_gain,
    l1_certificate,
    l1_gain_bisection,
)
from .rankone import MatrixTrajectory, Refutation, decompose
from .steering import psd_steer, verify_k_controllability

log = logging.getLogger("conecert.cli")

COMMANDS = ("l1gain", "kyp", "decompose", "steer", "certify")

_EXIT_BY_STATUS = {
    "feasible": 0,
    "holds": 0,
    "infeasible": 1,
    "fails": 1,
    "undecided": 2,
    "error": 3,
}


# ---------------------------------------------------------------------------
# deterministic JSON output

def _format_float(x):
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _emit(obj, indent):
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _emit(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _emit(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_result(doc) -> str:
    """Serialize a result document deterministically, floats at 17 digits."""
    return _emit(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# input parsing and schema validation

def load_problem(path):
    """Read a problem file; returns (document, raw bytes) or raises ValueError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input file {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    return doc, raw


_NUMBER_TYPES = frozenset((int, float))


def _finite_numbers(values):
    """True iff all values are ints or floats (not bools) finite as doubles."""
    try:
        return _NUMBER_TYPES.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a double
        return False


def _check_matrix(doc, field, out, rows=None, cols=None, square=False):
    """Validate a nested-array matrix field; append violations to out."""
    if field not in doc:
        out.append(f"{field}: required matrix missing")
        return None
    val = doc[field]
    if not isinstance(val, list) or not val or not all(isinstance(r, list) for r in val):
        out.append(f"{field}: must be a non-empty array of rows")
        return None
    width = len(val[0])
    if width == 0 or any(len(r) != width for r in val):
        out.append(f"{field}: rows must be non-empty and equal length")
        return None
    if not all(_finite_numbers(r) for r in val):
        out.append(f"{field}: entries must be finite numbers")
        return None
    M = np.array(val, dtype=float)
    if square and M.shape[0] != M.shape[1]:
        out.append(f"{field}: must be square, got {M.shape[0]}x{M.shape[1]}")
        return None
    if rows is not None and M.shape[0] != rows:
        out.append(f"{field}: expected {rows} rows, got {M.shape[0]}")
        return None
    if cols is not None and M.shape[1] != cols:
        out.append(f"{field}: expected {cols} columns, got {M.shape[1]}")
        return None
    return M


def _check_vector(doc, field, out, length=None):
    if field not in doc:
        out.append(f"{field}: required vector missing")
        return None
    val = doc[field]
    if not isinstance(val, list) or not val or not _finite_numbers(val):
        out.append(f"{field}: must be a non-empty array of finite numbers")
        return None
    v = np.array(val, dtype=float)
    if length is not None and v.size != length:
        out.append(f"{field}: expected length {length}, got {v.size}")
        return None
    return v


def _check_scalar(doc, field, out, required=False, positive=False, integer=False):
    if field not in doc:
        if required:
            out.append(f"{field}: required scalar missing")
        return None
    val = doc[field]
    if integer:
        if not isinstance(val, int) or isinstance(val, bool):
            out.append(f"{field}: must be an integer")
            return None
    elif not _finite_numbers([val]):
        out.append(f"{field}: must be a finite number")
        return None
    if positive and not val > 0:
        out.append(f"{field}: must be positive, got {val}")
        return None
    return val


# The settings each command reads, as setting -> (file field, default, flag
# help).  A value comes from the flag, else the file field, else the default;
# --seed, on every subcommand, is resolved apart from these.
_SETTINGS = {
    "l1gain": {"tol": ("tol", 1e-8, "gain decision tolerance (default 1e-8)")},
    "kyp": {
        "tol": ("tol", FORM_TOL, f"frequency sweep threshold (default {FORM_TOL:g})"),
        "grid": (None, 200, "frequency grid points (default 200)"),
        "horizon": ("horizon", None, "IQC sampler horizon (default max(30, 24/decay rate))"),
    },
    "decompose": {"tol": ("tol", 1e-4, "relative reconstruction tolerance (default 1e-4)")},
    "steer": {
        "grid": (None, 512, "integration steps (default 512)"),
        "horizon": ("t1", 1.0, "steering horizon (default: the file's t1, else 1.0)"),
    },
    "certify": {},
    "validate": {},
}
_FLAG_TYPES = {"tol": float, "grid": int, "horizon": float}
# the most --grid points a run may take, rejected before any array is built:
# kyp's frequencies (the sweeps hold several grid-sized copies) and steer's
# integration steps (tables and trajectories of steps x n x n)
KYP_MAX_GRID = 100_000
STEER_MAX_GRID = 2**16
_GRID_BUDGETS = {"kyp": KYP_MAX_GRID, "steer": STEER_MAX_GRID}

# a command's data fields and seed, plus the file fields of its settings
_ALLOWED_FIELDS = {
    command: fields | {field for field, _, _ in _SETTINGS[command].values() if field}
    for command, fields in {
        "l1gain": {"command", "A", "B", "gamma", "seed"},
        "kyp": {"command", "A", "B", "M", "seed", "trials"},
        "decompose": {"command", "A", "B", "grid", "samples", "seed"},
        "steer": {"command", "A", "B", "X0", "X1", "seed"},
        "certify": {"command", "kind", "L", "m", "U", "V", "C", "seed"},
    }.items()
}


def validate_problem(doc) -> list:
    """Schema report: list of violation strings, empty when well formed."""
    out = []
    command = doc.get("command")
    if command not in COMMANDS:
        out.append(
            f"command: must be one of {', '.join(COMMANDS)}, got {command!r}"
        )
        return out
    for key in doc:
        if key not in _ALLOWED_FIELDS[command]:
            out.append(f"{key}: unknown field for command '{command}'")

    if command == "l1gain":
        A = _check_matrix(doc, "A", out, square=True)
        _check_matrix(doc, "B", out, rows=None if A is None else A.shape[0])
        _check_scalar(doc, "gamma", out, required=True, positive=True)
    elif command == "kyp":
        A = _check_matrix(doc, "A", out, square=True)
        B = _check_matrix(doc, "B", out, rows=None if A is None else A.shape[0])
        if A is not None and B is not None:
            _check_matrix(doc, "M", out, square=True, rows=A.shape[0] + B.shape[1])
        else:
            _check_matrix(doc, "M", out, square=True)
        _check_scalar(doc, "horizon", out, positive=True)
        trials = _check_scalar(doc, "trials", out, positive=True, integer=True)
        if trials is not None and trials > IQC_MAX_TRIALS:
            out.append(f"trials: must be at most {IQC_MAX_TRIALS}, got {trials}")
    elif command == "decompose":
        A = _check_matrix(doc, "A", out, square=True)
        B = _check_matrix(doc, "B", out, rows=None if A is None else A.shape[0])
        grid = doc.get("grid")
        steps = None
        if not isinstance(grid, dict):
            out.append("grid: required object with t0, t1, steps")
        else:
            sub = dict(grid)
            sub_out = []
            t0 = _check_scalar(sub, "t0", sub_out, required=True)
            t1 = _check_scalar(sub, "t1", sub_out, required=True)
            steps = _check_scalar(sub, "steps", sub_out, required=True, integer=True, positive=True)
            out.extend(f"grid.{v}" for v in sub_out)
            for key in sub:
                if key not in {"t0", "t1", "steps"}:
                    out.append(f"grid.{key}: unknown field")
            if t0 is not None and t1 is not None and not t1 > t0:
                out.append(f"grid.t1: must exceed grid.t0, got [{t0}, {t1}]")
            if steps is not None and steps < 4:
                out.append(f"grid.steps: need at least 4 steps, got {steps}")
        samples = doc.get("samples")
        if not isinstance(samples, list) or not samples:
            out.append("samples: required non-empty array of flat per-sample rows")
        elif A is not None and B is not None:
            dim = A.shape[0] + B.shape[1]
            want = dim * dim
            rows_ok = all(isinstance(row, list) and len(row) == want for row in samples)
            # one pass over every value; the row loop only names the first bad row
            if not (rows_ok and _finite_numbers(list(itertools.chain.from_iterable(samples)))):
                k = next(k for k, row in enumerate(samples) if not (
                    isinstance(row, list) and len(row) == want and _finite_numbers(row)))
                out.append(
                    f"samples[{k}]: must be a flat array of {want} finite numbers "
                    f"(row-major {dim}x{dim})"
                )
            if steps is not None and len(samples) != steps + 1:
                out.append(
                    f"samples: expected grid.steps + 1 = {steps + 1} rows, got {len(samples)}"
                )
    elif command == "steer":
        A = _check_matrix(doc, "A", out, square=True)
        n = None if A is None else A.shape[0]
        _check_matrix(doc, "B", out, rows=n)
        _check_matrix(doc, "X0", out, square=True, rows=n)
        _check_matrix(doc, "X1", out, square=True, rows=n)
        _check_scalar(doc, "t1", out, positive=True)
    elif command == "certify":
        kind = doc.get("kind")
        if kind not in ("orthant", "psd"):
            out.append(f"kind: must be 'orthant' or 'psd', got {kind!r}")
        elif kind == "orthant":
            L = _check_matrix(doc, "L", out)
            _check_vector(doc, "m", out, length=None if L is None else L.shape[1])
            for bad in ("U", "V", "C"):
                if bad in doc:
                    out.append(f"{bad}: not a field of orthant problems")
        else:
            U = _check_matrix(doc, "U", out)
            if U is not None:
                _check_matrix(doc, "V", out, rows=U.shape[0], cols=U.shape[1])
                _check_matrix(doc, "C", out, square=True, rows=U.shape[1])
            else:
                _check_matrix(doc, "V", out)
                _check_matrix(doc, "C", out, square=True)
            for bad in ("L", "m"):
                if bad in doc:
                    out.append(f"{bad}: not a field of psd problems")

    _check_scalar(doc, "seed", out, integer=True)
    if "tol" in _ALLOWED_FIELDS[command]:
        _check_scalar(doc, "tol", out, positive=True)
    return out


# ---------------------------------------------------------------------------
# command runners (schema-valid input assumed)

def _mat(doc, field):
    return np.array(doc[field], dtype=float)


def _run_l1gain(doc, tol):
    sys_ = PositiveSystem(A=_mat(doc, "A"), B=_mat(doc, "B"))
    gamma = float(doc["gamma"])
    gain = exact_l1_gain(sys_)
    bisected = l1_gain_bisection(sys_)
    cert = l1_certificate(sys_, gamma, tol=tol)
    payload = {
        "gamma": gamma,
        "gain": gain,
        "gain_bisected": bisected,
    }
    if cert is None:
        payload["certificate"] = None
        return "infeasible", payload
    payload["certificate"] = {
        "p": cert.p,
        "slack_state": cert.slack_state,
        "slack_input": cert.slack_input,
    }
    return "feasible", payload


def _run_kyp(doc, seed, tol, grid, horizon):
    inst = KypInstance(A=_mat(doc, "A"), B=_mat(doc, "B"), M=_mat(doc, "M"))
    controllable = inst.controllable  # a Kalman matrix that overflows fails here, first
    report = cross_validate(
        inst,
        grid=default_grid(inst.A, points=grid),
        trials=int(doc.get("trials", IQC_TRIALS)),
        seed=seed,
        horizon=horizon,
        tol=tol,
    )
    freq = report.frequency
    point = report.pointwise
    lmi = report.lmi
    payload = {
        "controllable": controllable,
        "lmi": {
            "status": lmi.status,
            "decided_by": lmi.decided_by,
            "P": lmi.P,
            "max_violation": lmi.max_violation,
            "iterations": lmi.iterations,
            "witness": lmi.witness,
        },
        "frequency": {
            "holds": freq.holds,
            "worst_omega": freq.worst_omega,
            "worst_value": freq.worst_value,
            "limit_value": freq.limit_value,
        },
        "pointwise": {
            "holds": point.holds,
            "worst_omega": point.worst_omega,
            "worst_value": point.worst_value,
        },
        "iqc": {
            "status": report.iqc.status,
            "worst_integral": report.iqc.worst_integral,
            "worst_margin": report.iqc.worst_margin,
        },
        "defects": report.defects,
    }
    if lmi.status == "feasible" and not freq.holds:
        raise RuntimeError(
            "checkers disagree: LMI certificate exists but the frequency sweep fails"
        )
    if lmi.status == "feasible":
        return "feasible", payload
    if lmi.status == "infeasible" or not freq.holds:
        return "infeasible", payload
    return "undecided", payload


def _run_decompose(doc, tol):
    A = _mat(doc, "A")
    B = _mat(doc, "B")
    n, m = A.shape[0], B.shape[1]
    g = doc["grid"]
    grid = TimeGrid(float(g["t0"]), float(g["t1"]), int(g["steps"]))
    dim = n + m
    values = np.array(doc["samples"], dtype=float).reshape(-1, dim, dim)
    traj = MatrixTrajectory(grid=grid, values=values, n=n, m=m)
    try:
        dec = decompose(traj, A, B)
    except Refutation as exc:
        return "fails", {exc.name: exc.value}
    recon_ok = dec.reconstruction_error <= tol * max(dec.max_q_norm, 1e-30)
    finite = [r for r in dec.ode_residuals if np.isfinite(r)]
    ode_ok = all(r <= 1e-3 for r in finite)
    payload = {
        "components": len(dec.zero_x),
        "zero_state_components": [bool(z) for z in dec.zero_x],
        "reconstruction_error": dec.reconstruction_error,
        "max_q_norm": dec.max_q_norm,
        "ode_residuals": dec.ode_residuals,
        "stitch_residuals": dec.stitch_residuals,
        "schur_min_eig": dec.schur_min_eig,
        "segments": [list(s) for s in dec.segmentation.segments],
        "boundaries": list(dec.segmentation.boundaries),
    }
    # the dynamics and Schur checks passed: a shortfall is one of accuracy
    return ("holds" if recon_ok and ode_ok else "undecided"), payload


def _run_steer(doc, grid, horizon):
    A = _mat(doc, "A")
    B = _mat(doc, "B")
    report = verify_k_controllability(A, B)
    if not report.controllable:
        return "fails", {
            "controllable": False,
            "rank": report.rank,
            "obstruction": report.obstruction,
        }
    plan = psd_steer(A, B, _mat(doc, "X0"), _mat(doc, "X1"), t1=horizon, steps=grid)
    payload = {
        "controllable": True,
        "rank": report.rank,
        "t1": horizon,
        "steps": grid,
        "endpoint_errors": list(plan.endpoint_errors),
        "component_endpoint_errors": plan.component_endpoint_errors,
        "gramian_cond": plan.gramian.cond,
        "dynamics_residual": plan.trajectory.dynamics_residual,
    }
    return "holds", payload


def _run_certify(doc):
    if doc["kind"] == "orthant":
        prob = OrthantProblem(Lmap=_mat(doc, "L"), m=np.array(doc["m"], dtype=float))
        cert = orthant_certificate(prob)
        minimum, witness = orthant_kernel_minimum(prob)
        surjective = orthant_surjectivity(prob.Lmap)
        payload = {
            "kind": "orthant",
            "surjective": surjective,
            "kernel_minimum": minimum,
            "kernel_witness": None if witness is None else witness.z0,
        }
        refuted = minimum < -1e-7
        if cert is not None and refuted:
            raise RuntimeError(
                "checkers disagree: orthant certificate exists but the kernel minimum "
                f"is {minimum:.3e}"
            )
        if cert is not None:
            payload["certificate"] = {"p": cert.p, "slack": cert.slack}
            return "feasible", payload
        payload["certificate"] = None
        if refuted:
            return "infeasible", payload
        return "undecided", payload
    prob = PsdProblem(U=_mat(doc, "U"), V=_mat(doc, "V"), C=_mat(doc, "C"))
    res = psd_lmi(prob)
    payload = {
        "kind": "psd",
        "status": res.status,
        "decided_by": res.decided_by,
        "residual": res.max_violation,
        "iterations": res.iterations,
    }
    if res.status == "feasible":
        slack = np.linalg.eigvalsh(prob.C - prob.adjoint_image(res.P))
        payload["certificate"] = {"P": res.P, "slack": slack}
    elif res.status == "infeasible":
        payload["witness"] = {"z0": res.witness, "objective": -res.max_violation}
    return res.status, payload


_RUNNERS = {
    "l1gain": _run_l1gain,
    "kyp": _run_kyp,
    "decompose": _run_decompose,
    "steer": _run_steer,
    "certify": _run_certify,
}


# ---------------------------------------------------------------------------
# orchestration

def _digest(raw):
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _result_doc(command, digest, seed, status, payload, diagnostics):
    return {
        "tool": "cone-cert",
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "status": status,
        "result": payload,
        "diagnostics": diagnostics,
    }


def _write_output(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _configure_logging():
    level_name = os.environ.get("CONE_CERT_LOG", "")
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name and level_name not in levels:
        print(
            f"cone-cert: ignoring CONE_CERT_LOG={level_name!r} "
            "(expected quiet, info, or debug)",
            file=sys.stderr,
        )
    level = levels.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    root = logging.getLogger("conecert")
    root.handlers[:] = [handler]
    root.setLevel(level)


@functools.cache  # built once per process; parse_args keeps no state in it
def _parser():
    parser = argparse.ArgumentParser(
        prog="cone-cert",
        description="Synthesize and verify linear-conic certificates for LTI systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, settings in _SETTINGS.items():
        p = sub.add_parser(name, help=f"run the {name} command on a problem file")
        p.add_argument("--input", required=True, help="problem file path")
        p.add_argument("--output", help="result file path (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        for setting, (_, _, help_) in settings.items():
            p.add_argument(f"--{setting}", type=_FLAG_TYPES[setting], help=help_)
    return parser


def _resolve_settings(command, args, doc):
    """Each setting the command reads: its flag, else its file field, else its default."""
    values = {}
    for name, (field, default, _) in _SETTINGS[command].items():
        value = getattr(args, name)
        if value is None and field in doc:
            value = _FLAG_TYPES[name](doc[field])
        values[name] = default if value is None else value
    return values


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, raw = load_problem(args.input)
    except ValueError as exc:
        text = emit_result(
            _result_doc("unknown", None, args.seed, "error", None, [str(exc)])
        )
        _write_output(text, args.output)
        return 3

    digest = _digest(raw)
    violations = validate_problem(doc)
    command = doc.get("command") if doc.get("command") in COMMANDS else "unknown"

    if args.subcommand == "validate":
        status = "holds" if not violations else "error"
        text = emit_result(
            _result_doc(command, digest, args.seed, status, {"violations": violations}, [])
        )
        _write_output(text, args.output)
        return 0 if not violations else 3

    if command != args.subcommand:
        violations.insert(
            0,
            f"command: file declares {command!r} but the {args.subcommand!r} "
            "subcommand was invoked",
        )
    if not violations:
        settings = _resolve_settings(command, args, doc)
        budget = _GRID_BUDGETS.get(command)
        if budget is not None and settings["grid"] > budget:
            violations = [f"--grid: must be at most {budget}, got {settings['grid']}"]
    if violations:
        text = emit_result(
            _result_doc(command, digest, args.seed, "error", None, violations)
        )
        _write_output(text, args.output)
        return 3

    seed = int(doc.get("seed", args.seed)) if args.seed == 0 else args.seed
    if command == "kyp":  # the IQC sampler is the one reader of the seed
        settings["seed"] = seed
    log.info("running %s on %s (seed %d)", command, args.input, seed)
    log.debug("settings: %r", settings)
    try:
        status, payload = _RUNNERS[command](doc, **settings)
        diagnostics = []
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        log.info("command failed: %s", exc)
        status, payload, diagnostics = "error", None, [str(exc)]
    log.info("status %s (exit %d)", status, _EXIT_BY_STATUS[status])
    text = emit_result(_result_doc(command, digest, seed, status, payload, diagnostics))
    _write_output(text, args.output)
    return _EXIT_BY_STATUS[status]


def main():
    _configure_logging()
    raise SystemExit(run())


if __name__ == "__main__":
    main()
