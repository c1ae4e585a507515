"""Checker self-test: genuine outputs pass, tampered outputs are rejected.

Usage, from the root of a conecert checkout:  python3 benchmark/selftest.py

Runs a few problems of each workload (seed 0) through the program once,
confirms that their outputs pass the checks, then alters each output the
way a wrong program might and confirms that the checks reject it.  Exits
with code 1 if a genuine output fails or a tampered one passes.
"""

import contextlib
import copy
import os
import shutil
import sys

import numpy as np

import checks
import inputs
import worker


def first(problems, prefix, pred=lambda out: True, outputs=None):
    for p in problems:
        if p["id"].startswith(prefix) and pred(outputs[p["id"]]):
            return p
    raise LookupError(f"no {prefix} problem with the wanted output")


def boundary_kyp():
    """x' = -x + u with M = [[-1.99001, 1], [1, -0.01]]: the certificates form
    an interval of width 6.3e-4 around P = -0.99, so P + 1e-3 leaves it."""
    arrays = {"A": np.array([[-1.0]]), "B": np.array([[1.0]]),
              "M": np.array([[-1.99001, 1.0], [1.0, -0.01]])}
    return {"id": "boundary", "kind": "lib", "known_fault": False,
            "task": {"op": "kyp_decide", "arrays": arrays},
            "expect": dict(arrays, verdict="feasible")}


def tamper_cases(outputs, problems):
    """(name, problem, tampered output) for every tampering."""
    out = outputs

    def lib(prefix, edit, pred=lambda o: True):
        p = first(problems, prefix, pred, out)
        o = copy.deepcopy(out[p["id"]])
        edit(p, o)
        return p, o

    def scale_p(p, o):
        B, gamma = p["expect"]["B"], p["expect"]["gamma"]
        o["p"] = o["p"] * 1.01 * gamma / float(np.max(B.T @ o["p"]))

    def shift_P(p, o):
        o["lmi"]["P"] = o["lmi"]["P"] + 1e-3 * np.eye(o["lmi"]["P"].shape[0])

    def flip_witness(p, o):
        o["lmi"]["witness"] = -o["lmi"]["witness"]

    def flip_verdict(p, o):
        o["verdict"] = "infeasible" if o["verdict"] == "feasible" else "feasible"

    def cond_off(p, o):
        o["doc"]["result"]["gramian_cond"] *= 1.01

    def flip_kernel(p, o):
        o["doc"]["result"]["kernel_witness"] = [-z for z in o["doc"]["result"]["kernel_witness"]]

    def wrong_digest(p, o):
        o["doc"]["input_digest"] = "sha256:" + "0" * 64

    def one_segment(p, o):
        o["doc"]["result"]["segments"] = o["doc"]["result"]["segments"][:1]

    def negative_state(p, o):
        o["reports"][0]["states"][5, 0] = -1e-6

    has_witness = lambda o: o["lmi"]["witness"] is not None  # noqa: E731
    return [
        ("certificate p scaled past its slack",
         *lib("gain-", scale_p, lambda o: o["p"] is not None)),
        ("P shifted by +1e-3 I", *lib("boundary", shift_P)),
        ("witness sign flipped", *lib("limit-", flip_witness, has_witness)),
        ("planted verdict flipped", *lib("feasible-", flip_verdict)),
        ("gramian_cond off by 1%", *lib("steer-2", cond_off)),
        ("orthant kernel witness sign flipped", *lib("orthant-", flip_kernel,
                                                     lambda o: o["doc"]["status"] == "infeasible")),
        ("input_digest of another file", *lib("decompose-", wrong_digest)),
        ("rank segments merged", *lib("decompose-crossing", one_segment)),
        ("state driven negative", *lib("dissipation-", negative_state)),
    ]


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".bench_run", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = worker.Runner(workdir)
        problems = []
        for workload, keep in [("lp_certify", ("gain-", "orthant-")),
                               ("kyp_decide", ("feasible-", "limit-")),
                               ("trajectories", ("steer-", "decompose-", "dissipation-"))]:
            for p in inputs.generate(workload, 0, root, workdir):
                if p["id"].startswith(keep):
                    problems.append(p)
        problems.append(boundary_kyp())
        outputs = {p["id"]: runner.execute(p["task"], p["id"])[1] for p in problems}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            os.rmdir(os.path.dirname(workdir))

    ok = True
    for p in problems:
        why = checks.check(p, outputs[p["id"]])
        if why:
            ok = False
            print(f"genuine output of {p['id']} fails: {why}")
    print(f"{len(problems)} genuine outputs checked")
    for name, p, tampered in tamper_cases(outputs, problems):
        why = checks.check(p, tampered)
        print(f"{'rejects' if why else 'ACCEPTS'} {name} ({p['id']}): {'; '.join(why)}")
        ok = ok and bool(why)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
