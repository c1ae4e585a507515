"""Batch front end: problem files in, certificate/report files out.

Problem files are JSON documents naming a command and its matrices;
results are JSON documents with a status drawn from {feasible, infeasible,
undecided, holds, fails, error}, diagnostics, the tool version, and a
digest of the input bytes.  Identical input and seed reproduce the result
byte for byte.
"""

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import sys
import typing

import numpy as np

from . import __version__
from .certificates import (
    OrthantProblem,
    PsdProblem,
    orthant_certificate,
    orthant_kernel_minimum,
    orthant_surjectivity,
    refute,
)
from .kyp import (
    FORM_TOL, IQC_MAX_TRIALS, IQC_TRIALS, KypInstance, _default_grid, cross_validate, psd_lmi
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


# A field's check is called as check(doc, field, out, got).  It appends the
# field's violations to out and returns the field's converted value (None
# after a violation); got holds the values of the fields checked before it.

def _size(*dims):
    """Rule for a dimension: the summed sizes of (field, axis) pairs of fields
    checked before, or None when one of them failed its check."""
    def size(got):
        if any(got.get(field) is None for field, _ in dims):
            return None
        return sum(got[field].shape[axis] for field, axis in dims)
    return size


def _matrix(square=False, rows=None, cols=None):
    """Check of a nested-array matrix field; rows and cols are _size rules."""
    def check(doc, field, out, got):
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
        for axis, rule, what in ((0, rows, "rows"), (1, cols, "columns")):
            want = rule and rule(got)
            if want is not None and M.shape[axis] != want:
                out.append(f"{field}: expected {want} {what}, got {M.shape[axis]}")
                return None
        return M
    return check


def _vector(length):
    """Check of a flat-array vector field; length is a _size rule."""
    def check(doc, field, out, got):
        if field not in doc:
            out.append(f"{field}: required vector missing")
            return None
        val = doc[field]
        if not isinstance(val, list) or not val or not _finite_numbers(val):
            out.append(f"{field}: must be a non-empty array of finite numbers")
            return None
        v = np.array(val, dtype=float)
        want = length(got)
        if want is not None and v.size != want:
            out.append(f"{field}: expected length {want}, got {v.size}")
            return None
        return v
    return check


@dataclasses.dataclass(frozen=True)
class Number:
    """Check of a number field: a finite float, or an int when integer; an
    absent field gives default, and a violation when required."""

    integer: bool = False
    positive: bool = False
    minimum: int = None
    maximum: int = None
    required: bool = False
    default: object = None

    def __call__(self, doc, field, out, got):
        if field not in doc:
            if self.required:
                out.append(f"{field}: required scalar missing")
            return self.default
        val = doc[field]
        if self.integer:
            if not isinstance(val, int) or isinstance(val, bool):
                out.append(f"{field}: must be an integer")
                return None
        elif not _finite_numbers([val]):
            out.append(f"{field}: must be a finite number")
            return None
        if self.positive and not val > 0:
            out.append(f"{field}: must be positive, got {val}")
            return None
        if self.minimum is not None and val < self.minimum:
            out.append(f"{field}: must be at least {self.minimum}, got {val}")
            return None
        if self.maximum is not None and val > self.maximum:
            out.append(f"{field}: must be at most {self.maximum}, got {val}")
            return None
        return val if self.integer else float(val)


_TIME_GRID = {"t0": Number(required=True), "t1": Number(required=True),
              "steps": Number(integer=True, positive=True, required=True)}
_N = _size(("A", 0))
_N_M = _size(("A", 0), ("B", 1))


def _time_grid(doc, field, out, got):
    """Check of decompose's grid object; its value is TimeGrid's keywords."""
    grid = doc.get(field)
    if not isinstance(grid, dict):
        out.append(f"{field}: required object with t0, t1, steps")
        return None
    sub_out = []
    parts = {key: check(grid, key, sub_out, got) for key, check in _TIME_GRID.items()}
    out.extend(f"{field}.{v}" for v in sub_out)
    out.extend(f"{field}.{key}: unknown field" for key in grid if key not in _TIME_GRID)
    if parts["t0"] is not None and parts["t1"] is not None and not parts["t1"] > parts["t0"]:
        out.append(f"{field}.t1: must exceed {field}.t0, got [{grid['t0']}, {grid['t1']}]")
    if parts["steps"] is not None and parts["steps"] < 4:
        out.append(f"{field}.steps: need at least 4 steps, got {parts['steps']}")
    return parts


def _samples(doc, field, out, got):
    """Check of decompose's samples: grid.steps + 1 flat rows of (n + m)^2
    numbers, finite as doubles, converted once into one float array."""
    samples = doc.get(field)
    if not isinstance(samples, list) or not samples:
        out.append(f"{field}: required non-empty array of flat per-sample rows")
        return None
    dim = _N_M(got)
    if dim is None:
        return None
    want, values = dim * dim, None
    if all(isinstance(row, list) and len(row) == want for row in samples):
        flat = list(itertools.chain.from_iterable(samples))
        if _NUMBER_TYPES.issuperset(map(type, flat)):
            try:
                values = np.array(flat, dtype=float).reshape(len(samples), want)
            except OverflowError:  # an int too large for a double
                pass
    if values is None or not np.isfinite(values).all():
        values = None
        # the row loop only names the first bad row
        k = next(k for k, row in enumerate(samples) if not (
            isinstance(row, list) and len(row) == want and _finite_numbers(row)))
        out.append(f"{field}[{k}]: must be a flat array of {want} finite numbers "
                   f"(row-major {dim}x{dim})")
    steps = (got["grid"] or {}).get("steps")
    if steps is not None and len(samples) != steps + 1:
        out.append(f"{field}: expected grid.steps + 1 = {steps + 1} rows, got {len(samples)}")
    return values


# ---------------------------------------------------------------------------
# command runners: checked arrays and scalars in, (status, payload) out

def _run_l1gain(A, B, gamma, tol):
    sys_ = PositiveSystem(A=A, B=B)
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


def _run_kyp(A, B, M, horizon, trials, seed, tol, grid):
    inst = KypInstance(A=A, B=B, M=M)
    controllable = inst.controllable  # a Kalman matrix that overflows fails here, first
    report = cross_validate(
        inst,
        grid=_default_grid(inst.A, inst.axis_frequencies, points=grid),
        trials=trials,
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


def _run_decompose(A, B, grid, samples, tol):
    n, m = A.shape[0], B.shape[1]
    values = samples.reshape(-1, n + m, n + m)
    traj = MatrixTrajectory(grid=TimeGrid(**grid), values=values, n=n, m=m)
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


def _run_steer(A, B, X0, X1, horizon, grid):
    report = verify_k_controllability(A, B)
    if not report.controllable:
        return "fails", {
            "controllable": False,
            "rank": report.rank,
            "obstruction": report.obstruction,
        }
    plan = psd_steer(A, B, X0, X1, t1=horizon, steps=grid)
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


def _run_certify(kind, **fields):
    if kind == "orthant":
        prob = OrthantProblem(Lmap=fields["L"], m=fields["m"])
        cert = orthant_certificate(prob)
        minimum, point = orthant_kernel_minimum(prob)
        witness = None if point is None else refute(prob, point)
        payload = {
            "kind": "orthant",
            "surjective": orthant_surjectivity(prob.Lmap),
            "kernel_minimum": minimum,
            "kernel_witness": point,
        }
        if cert is not None and witness is not None:
            raise RuntimeError(
                "checkers disagree: orthant certificate exists but the kernel minimum "
                f"is {minimum:.3e}"
            )
        if cert is not None:
            payload["certificate"] = {"p": cert.p, "slack": cert.slack}
            return "feasible", payload
        payload["certificate"] = None
        return ("undecided" if witness is None else "infeasible"), payload
    res = psd_lmi(PsdProblem(**fields))
    payload = {
        "kind": "psd",
        "status": res.status,
        "decided_by": res.decided_by,
        "residual": res.max_violation,
        "iterations": res.iterations,
    }
    if res.status == "feasible":
        payload["certificate"] = {"P": res.P, "slack": res.slack}
    elif res.status == "infeasible":
        payload["witness"] = {"z0": res.witness, "objective": -res.max_violation}
    return res.status, payload


# ---------------------------------------------------------------------------
# the command table

class Field(typing.NamedTuple):
    """A file field and its check.  With flag set it is a setting: its value
    is the --flag, which passes the same check, else the file field (none
    when name is None), else the check's default; the runner gets it as flag."""

    name: str
    check: object
    flag: str = None
    help: str = None


@dataclasses.dataclass
class Command:
    """A command: its fields and settings, in the order their checks report,
    the runner that takes their values as keywords, whether it takes the
    seed, and, for certify, the fields of each value of the kind field."""

    fields: tuple
    run: object
    seeded: bool = False
    kinds: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        names = {f.name for f in self.fields + sum(self.kinds.values(), ()) if f.name}
        self.allowed = names | {"command"} | ({"kind"} if self.kinds else set())
        self.settings = [f for f in self.fields if f.flag]


# the most --grid points a run may take, rejected before any array is built:
# kyp's frequencies (the sweeps hold several grid-sized copies) and steer's
# integration steps (tables and trajectories of steps x n x n)
KYP_MAX_GRID = 100_000
STEER_MAX_GRID = 2**16

_A = Field("A", _matrix(square=True))
_B = Field("B", _matrix(rows=_N))
_SEED = Field("seed", Number(integer=True, minimum=0, default=0))
_U_ROWS, _U_COLS = _size(("U", 0)), _size(("U", 1))

_COMMANDS = {
    "l1gain": Command(
        (_A, _B, Field("gamma", Number(positive=True, required=True)), _SEED,
         Field("tol", Number(positive=True, default=1e-8), "tol",
               "gain decision tolerance (default 1e-8)")),
        _run_l1gain,
    ),
    "kyp": Command(
        (_A, _B, Field("M", _matrix(square=True, rows=_N_M)),
         Field("horizon", Number(positive=True), "horizon",
               "IQC sampler horizon (default max(30, 24/decay rate))"),
         Field("trials", Number(integer=True, positive=True, maximum=IQC_MAX_TRIALS,
                                default=IQC_TRIALS)),
         _SEED,
         Field("tol", Number(positive=True, default=FORM_TOL), "tol",
               f"frequency sweep threshold (default {FORM_TOL:g})"),
         Field(None, Number(integer=True, positive=True, maximum=KYP_MAX_GRID, default=200),
               "grid", "frequency grid points (default 200)")),
        _run_kyp,
        seeded=True,
    ),
    "decompose": Command(
        (_A, _B, Field("grid", _time_grid), Field("samples", _samples), _SEED,
         Field("tol", Number(positive=True, default=1e-4), "tol",
               "relative reconstruction tolerance (default 1e-4)")),
        _run_decompose,
    ),
    "steer": Command(
        (_A, _B, Field("X0", _matrix(square=True, rows=_N)),
         Field("X1", _matrix(square=True, rows=_N)),
         Field("t1", Number(positive=True, default=1.0), "horizon",
               "steering horizon (default: the file's t1, else 1.0)"),
         _SEED,
         Field(None, Number(integer=True, positive=True, maximum=STEER_MAX_GRID, default=512),
               "grid", "integration steps (default 512)")),
        _run_steer,
    ),
    "certify": Command(
        (_SEED,),
        _run_certify,
        kinds={
            "orthant": (Field("L", _matrix()), Field("m", _vector(_size(("L", 1))))),
            "psd": (Field("U", _matrix()), Field("V", _matrix(rows=_U_ROWS, cols=_U_COLS)),
                    Field("C", _matrix(square=True, rows=_U_COLS))),
        },
    ),
}
COMMANDS = tuple(_COMMANDS)


def _check_fields(doc, fields, out, got):
    for field in fields:
        got[field.flag or field.name] = field.check(doc, field.name, out, got)


def validate_problem(doc):
    """Schema report: (violations, values); no violations when well formed.

    values holds what a run starts from, keyed as the runner's keywords:
    each field's checked and converted value, and each setting's file
    field or default.
    """
    out = []
    command = doc.get("command")
    if command not in COMMANDS:
        out.append(f"command: must be one of {', '.join(COMMANDS)}, got {command!r}")
        return out, None
    spec = _COMMANDS[command]
    out.extend(
        f"{key}: unknown field for command '{command}'" for key in doc if key not in spec.allowed
    )
    got = {}
    if spec.kinds:
        kind = doc.get("kind")
        if kind not in tuple(spec.kinds):  # a tuple: kind may be any JSON value
            out.append(f"kind: must be {' or '.join(map(repr, spec.kinds))}, got {kind!r}")
        else:
            got["kind"] = kind
            _check_fields(doc, spec.kinds[kind], out, got)
            out.extend(
                f"{field.name}: not a field of {kind} problems"
                for other, fields in spec.kinds.items() if other != kind
                for field in fields if field.name in doc
            )
    _check_fields(doc, spec.fields, out, got)
    return out, got


# ---------------------------------------------------------------------------
# orchestration

def _write_result(output, command, digest, seed, status, payload, diagnostics):
    """Write the result document to output (None: stdout); returns the exit code."""
    text = emit_result({
        "tool": "cone-cert",
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "status": status,
        "result": payload,
        "diagnostics": diagnostics,
    })
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_BY_STATUS[status]


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
    for name in (*COMMANDS, "validate"):
        p = sub.add_parser(name, help=f"run the {name} command on a problem file")
        p.add_argument("--input", required=True, help="problem file path")
        p.add_argument("--output", help="result file path (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        for field in _COMMANDS[name].settings if name in _COMMANDS else ():
            p.add_argument(f"--{field.flag}", type=int if field.check.integer else float,
                           help=field.help)
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, raw = load_problem(args.input)
    except ValueError as exc:
        return _write_result(args.output, "unknown", None, args.seed, "error", None, [str(exc)])

    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    violations, values = validate_problem(doc)
    _SEED.check({"--seed": args.seed}, "--seed", violations, values)  # the file field's check
    command = doc.get("command") if doc.get("command") in COMMANDS else "unknown"

    if args.subcommand == "validate":
        return _write_result(args.output, command, digest, args.seed,
                             "error" if violations else "holds", {"violations": violations}, [])

    if command != args.subcommand:
        violations.insert(0, f"command: file declares {command!r} but the "
                             f"{args.subcommand!r} subcommand was invoked")
    elif not violations:
        spec = _COMMANDS[command]
        for field in spec.settings:  # a flag beats the file field, under the same check
            flag, value = f"--{field.flag}", getattr(args, field.flag)
            if value is not None:
                values[field.flag] = field.check({flag: value}, flag, violations, values)
    if violations:
        return _write_result(args.output, command, digest, args.seed, "error", None, violations)

    file_seed = values.pop("seed")
    seed = args.seed or file_seed  # a non-zero --seed beats the file's seed
    if spec.seeded:
        values["seed"] = seed
    log.info("running %s on %s (seed %d)", command, args.input, seed)
    log.debug("settings: %r", {field.flag: values[field.flag] for field in spec.settings})
    try:
        # a non-finite intermediate is named in diagnostics by the checks
        # that catch it, so numpy's own warnings would only repeat it
        with np.errstate(all="ignore"):
            status, payload = spec.run(**values)
        diagnostics = []
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        log.info("command failed: %s", exc)
        status, payload, diagnostics = "error", None, [str(exc)]
    log.info("status %s (exit %d)", status, _EXIT_BY_STATUS[status])
    return _write_result(args.output, command, digest, seed, status, payload, diagnostics)


def main():
    _configure_logging()
    raise SystemExit(run())


if __name__ == "__main__":
    main()
