#!/usr/bin/env python3
"""Compare two conecert source trees output for output on the benchmark inputs.

Usage:
    python3 scripts/compare_outputs.py SRC_A SRC_B [--seeds 7 11 23]

SRC_A and SRC_B are conecert checkouts or their src directories.  The tasks
of every benchmark workload at each seed (benchmark/inputs.generate), the
three sample problems, four fixed `certify --kind psd` documents (see
PSD_DOCUMENTS), `validate` on every problem file, runs with setting flags
(each sample, and one steer file per seed), one kyp run that ends in an
error (KYP_OVERFLOW), one fixed three-input kyp document whose Popov form
has a double top eigenvalue at every frequency (KYP_DOUBLE_TOP), three fixed
`certify --kind orthant` documents off the unit scale (ORTHANT_DOCUMENTS)
and two fixed n = 2 decompose documents (DECOMPOSE_DOCUMENTS) are built
once in a temporary directory.  Each tree
then runs all of them through benchmark/worker.Runner.execute in one fresh
interpreter of its own.  Every task whose fingerprint differs (the output
bytes and exit code of a CLI task, the result or exception of a library
task) is printed with how it differs: the fields other than floats that
changed (status, exit code, strings, integers, booleans, shapes), or
"floats only", and the largest absolute and relative difference among its
floats with where each occurs.  The exit code is 1 if any task differs.
Nothing is written in either checkout.
"""

import argparse
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

sys.dont_write_bytecode = True
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")
sys.path.insert(0, BENCHMARK)

import inputs  # noqa: E402  (benchmark/inputs.py)

CHILD = """
import pickle, sys
from worker import Runner
tasks_path, workdir, prints_path = sys.argv[1:]
with open(tasks_path, "rb") as fh:
    tasks = pickle.load(fh)
runner = Runner(workdir)
runs = {t["id"]: runner.execute(t["task"], t["id"])[1:] for t in tasks}
with open(prints_path, "wb") as fh:
    pickle.dump(runs, fh)
"""


# setting flags for runs of the samples and of each seed's steer-21 file,
# since the benchmark's own CLI tasks pass none
SAMPLE_FLAGS = {
    "kyp": ["--tol", "1e-7", "--grid", "64", "--horizon", "40", "--seed", "3"],
    "l1gain": ["--tol", "1e-6"],
    "decompose": ["--tol", "1e-3"],
}
STEER_FLAGS = ["--grid", "256", "--horizon", "2"]


def _disguised_kyp(seed, n, m, extra_rows=0):
    """U'PV + V'PU <= C from a planted-feasible KYP instance (inputs.feasible_kyp)
    under the congruence U = R(A B)S, V = R(I 0)S, C = -S'MS, R and S random."""
    rng = np.random.default_rng(seed)
    A, B, M, _ = inputs.feasible_kyp(rng, n, m)
    R = rng.standard_normal((n + extra_rows, n))
    S = rng.standard_normal((n + m, n + m))
    C = -S.T @ M @ S
    return {"U": R @ np.hstack([A, B]) @ S,
            "V": R @ np.hstack([np.eye(n), np.zeros((n, m))]) @ S,
            "C": 0.5 * (C + C.T)}


# certify --kind psd runs through psd_lmi, the KYP form and the interior-point
# method, which no benchmark task reaches
PSD_DOCUMENTS = {
    # square V: the KYP form's A is defective, and the Lyapunov equation singular
    "defective-lyapunov": {"U": [[-1.0, -1.0, -1.0], [0.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
                           "V": [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, -1.0, 0.0]],
                           "C": [[-1.0, -0.5, 1.0], [-0.5, 0.0, 1.0], [1.0, 1.0, -1.0]]},
    # weakly infeasible: neither a certificate nor a single kernel witness
    "weakly-infeasible": {"U": [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
                          "V": [[0.0, -1.0, -1.0], [-1.0, 0.0, 0.0]],
                          "C": [[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]},
    # V of rank 2 < 3 rows: there is no KYP form
    "rank-deficient-v": _disguised_kyp(23, 2, 1, extra_rows=1),
    "disguised-kyp": _disguised_kyp(5, 3, 2),
}

def _scaled_orthant(planted, scale):
    """A 2 x 6 planted orthant problem (inputs.feasible_orthant or
    inputs.infeasible_orthant, default_rng(0)) with m scaled by scale."""
    L, m = planted(np.random.default_rng(0), 2, 6)
    return {"L": L, "m": scale * m}


# certify --kind orthant documents off the unit scale of the benchmark's
# orthant tasks, where the float simplex's absolute tolerances decide
ORTHANT_DOCUMENTS = {
    # p = -1 is the only certificate, and the kernel LP's point -2 disagrees
    "entries-1e300": {"L": [[1e300, -1e300, 1.0]], "m": [1e300, 1e300, -1.0]},
    "feasible-m-1e8": _scaled_orthant(inputs.feasible_orthant, 1e8),
    "infeasible-m-1e-9": _scaled_orthant(inputs.infeasible_orthant, 1e-9),
}

def _singular_sample_decompose():
    """n = m = 2: inputs.rank_crossing_instance's component in the first state
    and one inputs.sinusoid_components solution (|x| >= 1.6) in the second,
    in coordinates mixed by a fixed S, so that Q_nn has rank 1 at t = 1 alone."""
    a, b, horizon, steps, crossing = inputs.rank_crossing_instance()
    times = np.linspace(0.0, horizon, steps + 1)
    (x, u), = inputs.sinusoid_components(np.random.default_rng(3), 1, 1, 1, times,
                                         np.array([[-0.3]]), np.array([[1.0]]))
    Q = np.zeros((steps + 1, 4, 4))
    Q[np.ix_(range(steps + 1), [0, 2], [0, 2])] = crossing  # order (x1, x2, u1, u2)
    z = np.stack([x[:, 0], u[:, 0]], axis=1)
    Q[np.ix_(range(steps + 1), [1, 3], [1, 3])] = z[:, :, None] * z[:, None, :]
    S = np.array([[1.0, 0.6], [-0.4, 1.0]])
    T = np.eye(4)
    T[:2, :2] = S
    A = S @ np.diag([a[0, 0], -0.3]) @ np.linalg.inv(S)
    return inputs._decompose_doc(A, S @ np.diag([b[0, 0], 1.0]), horizon, steps, T @ Q @ T.T)


def _scaled_decompose():
    """inputs.decompose_instance at n = 2 with Q scaled by 1e160: products of
    two entries of sqrt(Q_nn) X overflow."""
    A, B, horizon, steps, Q = inputs.decompose_instance(np.random.default_rng(5), 2, 1)
    return inputs._decompose_doc(A, B, horizon, steps, 1e160 * Q)


# decompose documents at n = 2 that no benchmark file has: a rank dip of
# Q_nn that splits two segments, and entries whose products overflow
DECOMPOSE_DOCUMENTS = {
    "singular-sample": _singular_sample_decompose(),
    "scaled-1e160": _scaled_decompose(),
}

# a valid kyp document whose run ends in an error (exit 3): the Hamiltonian's
# -B M22^-1 B' overflows, so its diagnostic is compared too
KYP_OVERFLOW = {"command": "kyp", "A": [[-1.0]], "B": [[1e160]], "M": [[1.0, 0.0], [0.0, -1.0]]}

# m = 3 with M = -I: the Popov form -|g|^2 vv* - I, v = (1, 1, 0), has the
# double top eigenvalue -1 at every omega, and M22 = -I is a multiple of I
KYP_DOUBLE_TOP = {"command": "kyp", "A": [[-1.0]], "B": [[1.0, 1.0, 0.0]],
                  "M": (-np.eye(4)).tolist()}


def build_tasks(seeds, workdir):
    """(id, task) for every workload and seed, the samples, validate on each
    file, and the flagged runs."""
    root = os.path.dirname(BENCHMARK)
    tasks = []
    for workload in sorted(inputs.WORKLOADS):
        for seed in seeds:
            where = os.path.join(workdir, f"{workload}-{seed}")
            os.makedirs(where)
            for p in inputs.generate(workload, seed, root, where):
                tasks.append({"id": f"{workload}.{seed}.{p['id']}", "task": p["task"]})
    os.makedirs(os.path.join(workdir, "samples"))
    for command in sorted(inputs.SAMPLES):
        path, _ = inputs._copy_sample(root, os.path.join(workdir, "samples"), command)
        tasks.append({"id": f"sample.{command}", "task": {"argv": [command, "--input", path]}})
    for name, arrays in PSD_DOCUMENTS.items():
        doc = {"command": "certify", "kind": "psd"}
        doc.update({key: np.asarray(value).tolist() for key, value in arrays.items()})
        path = inputs._write(os.path.join(workdir, "samples"), f"psd-{name}.json", doc)
        tasks.append({"id": f"psd.{name}", "task": {"argv": ["certify", "--input", path]}})
    for t in list(tasks):
        if "argv" in t["task"]:
            path = t["task"]["argv"][t["task"]["argv"].index("--input") + 1]
            tasks.append({"id": f"validate.{t['id']}",
                          "task": {"argv": ["validate", "--input", path]}})
    path = inputs._write(os.path.join(workdir, "samples"), "kyp-overflow.json", KYP_OVERFLOW)
    tasks.append({"id": "error.kyp-overflow", "task": {"argv": ["kyp", "--input", path]}})
    path = inputs._write(os.path.join(workdir, "samples"), "kyp-double-top.json", KYP_DOUBLE_TOP)
    tasks.append({"id": "kyp.double-top", "task": {"argv": ["kyp", "--input", path]}})
    for name, arrays in ORTHANT_DOCUMENTS.items():
        doc = {"command": "certify", "kind": "orthant"}
        doc.update({key: np.asarray(value).tolist() for key, value in arrays.items()})
        path = inputs._write(os.path.join(workdir, "samples"), f"orthant-{name}.json", doc)
        tasks.append({"id": f"orthant.{name}", "task": {"argv": ["certify", "--input", path]}})
    for name, doc in DECOMPOSE_DOCUMENTS.items():
        path = inputs._write(os.path.join(workdir, "samples"), f"decompose-{name}.json", doc)
        tasks.append({"id": f"decompose.{name}", "task": {"argv": ["decompose", "--input", path]}})
    argvs = {t["id"]: t["task"]["argv"] for t in tasks if "argv" in t["task"]}
    flagged = [(f"sample.{command}", flags) for command, flags in SAMPLE_FLAGS.items()]
    flagged += [(f"trajectories.{seed}.steer-21", STEER_FLAGS) for seed in seeds]
    for pid, flags in flagged:
        tasks.append({"id": f"flagged.{pid}", "task": {"argv": argvs[pid] + flags}})
    return tasks


def run_tree(src, tmp):
    """(output, fingerprint) of every task, run by src's conecert in a fresh interpreter.

    Both trees write their outputs under the same path, so an error message
    that names an output file reads the same for both.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, BENCHMARK]),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    prints_path = os.path.join(tmp, "prints.pkl")
    subprocess.run([sys.executable, "-c", CHILD, os.path.join(tmp, "tasks.pkl"),
                    os.path.join(tmp, "run"), prints_path], env=env, check=True)
    with open(prints_path, "rb") as fh:
        return pickle.load(fh)


def _leaves(obj, path=""):
    """(path, value) for every leaf of a result; an array is one leaf."""
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            yield from _leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        yield path + "#len", len(obj)
        for k, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, obj


def _float_pair(x, y):
    """x and y as float arrays when both are floats or float arrays, else None.

    A float field that is integral is written without a decimal point, so an
    int beside a float counts as a float; two ints do not.
    """
    def floats(v):
        if isinstance(v, np.ndarray):
            return v.astype(float).ravel() if v.dtype.kind == "f" else None
        if isinstance(v, (float, int, np.floating)) and not isinstance(v, bool):
            return np.array([v], dtype=float)
        return None

    if isinstance(x, int) and isinstance(y, int):
        return None
    fx, fy = floats(x), floats(y)
    if fx is None or fy is None or fx.shape != fy.shape:
        return None
    return fx, fy


def _equal(x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.shape(x) == np.shape(y) and bool(np.array_equal(x, y))
    return type(x) is type(y) and x == y


def describe(a, b):
    """How output b differs from output a: the non-float leaves that changed
    (or "floats only"), and the largest absolute and relative float difference."""
    left, right = dict(_leaves(a)), dict(_leaves(b))
    changed = sorted(left.keys() ^ right.keys())
    worst = {"abs": (0.0, None), "rel": (0.0, None)}
    for key in sorted(left.keys() & right.keys()):
        pair = _float_pair(left[key], right[key])
        if pair is None:
            if not _equal(left[key], right[key]):
                changed.append(key)
            continue
        fx, fy = pair
        same = (fx == fy) | (np.isnan(fx) & np.isnan(fy))
        if not np.isfinite(np.concatenate([fx[~same], fy[~same]])).all():
            changed.append(key)  # a non-finite value appeared or went away
            continue
        with np.errstate(invalid="ignore"):  # inf - inf where both sides hold the same inf
            diff = np.where(same, 0.0, np.abs(fx - fy))
        rel = np.divide(diff, np.maximum(np.abs(fx), np.abs(fy)),
                        out=np.zeros_like(diff), where=~same)
        for name, vals in (("abs", diff), ("rel", rel)):
            top = float(np.max(vals, initial=0.0))
            if top > worst[name][0]:
                worst[name] = (top, key)
    head = "CHANGED " + " ".join(changed) if changed else "floats only"
    return (f"{head}; max abs diff {worst['abs'][0]:.3g} at {worst['abs'][1]}, "
            f"max rel diff {worst['rel'][0]:.3g} at {worst['rel'][1]}")


def source_dir(path):
    """path/src for a checkout, else path itself; it must hold the conecert package."""
    src = os.path.join(path, "src") if os.path.isdir(os.path.join(path, "src", "conecert")) else path
    if not os.path.isfile(os.path.join(src, "conecert", "__init__.py")):
        sys.exit(f"compare_outputs: no conecert package under {path}")
    return os.path.abspath(src)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 23])
    args = parser.parse_args()
    srcs = [source_dir(args.src_a), source_dir(args.src_b)]

    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        tasks = build_tasks(args.seeds, os.path.join(tmp, "inputs"))
        with open(os.path.join(tmp, "tasks.pkl"), "wb") as fh:
            pickle.dump(tasks, fh)
        prints = [run_tree(src, tmp) for src in srcs]

    differ = [t["id"] for t in tasks if prints[0][t["id"]][1] != prints[1][t["id"]][1]]
    for pid in differ:
        print(f"DIFFERS {pid}: {describe(prints[0][pid][0], prints[1][pid][0])}")
    print(f"{len(tasks)} tasks, {len(differ)} differ "
          f"(A = {srcs[0]}, B = {srcs[1]}, seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
