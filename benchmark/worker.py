"""Runs one workload's problems against the program, in a process of its own.

Usage: worker.py <workdir> <src> <seconds> <trace 0|1>

Reads <workdir>/tasks.pkl (what the program may see: CLI arguments naming
problem files, or arrays for a library call), runs whole rounds over the
problems until <seconds> have passed, and writes <workdir>/result.pkl with
per-problem times, the first output of each problem, a fingerprint of every
output, and the process's peak resident set.  With trace 1 it splits the
seconds into an untraced phase and a traced phase of the same length, so the
tracing overhead can be read off the two throughputs.

A problem's time is the CPU time of this process's main thread while it
runs.  The program does its work on that thread at these sizes, so on an
idle machine this equals its wall time; on a shared virtual machine it
leaves out the intervals in which the host ran someone else, which
otherwise move run-to-run figures by 10-20%.
"""

import hashlib
import json
import os
import pickle
import resource
import sys
import time

import numpy as np


def _fingerprint(obj, h=None):
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _fingerprint(item, h)
    elif isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


class Runner:
    def __init__(self, workdir):
        import conecert
        import conecert.cli

        self.cc = conecert
        self.cli = conecert.cli
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)

    def cli_run(self, pid, argv):
        """cone-cert on a problem file, the result written with --output."""
        path = os.path.join(self.outdir, pid + ".json")
        code = self.cli.run(list(argv) + ["--output", path])
        return code, path

    def l1_gain(self, a):
        """The closed-form gain, then the LP certificate at the given gamma."""
        cc = self.cc
        sys_ = cc.PositiveSystem(A=a["A"], B=a["B"])
        gain = cc.exact_l1_gain(sys_)
        cert = cc.l1_certificate(sys_, a["gamma"])
        return {"gain": gain, "p": None if cert is None else cert.p}

    def kyp_decide(self, a):
        """kyp_lmi, then both sweeps on default_grid, combined as cone-cert kyp does."""
        cc = self.cc
        inst = cc.KypInstance(A=a["A"], B=a["B"], M=a["M"])
        lmi = cc.kyp_lmi(inst)
        grid = cc.default_grid(inst.A)
        freq = cc.frequency_condition(inst, grid)
        point = cc.pointwise_condition(inst, grid)
        if lmi.status == "feasible" and not freq.holds:
            raise RuntimeError("LMI certificate exists but the frequency sweep fails")
        if lmi.status == "feasible":
            verdict = "feasible"
        elif lmi.status == "infeasible" or not freq.holds:
            verdict = "infeasible"
        else:
            verdict = "undecided"
        return {
            "verdict": verdict,
            "lmi": {"status": lmi.status, "P": lmi.P, "witness": lmi.witness,
                    "iterations": lmi.iterations},
            "frequency": {"holds": freq.holds, "worst_omega": freq.worst_omega,
                          "worst_value": freq.worst_value},
            "pointwise": {"holds": point.holds, "worst_omega": point.worst_omega,
                          "worst_value": point.worst_value},
        }

    def dissipation(self, a):
        """One l1_certificate at the gain, then dissipation along each input."""
        cc = self.cc
        sys_ = cc.PositiveSystem(A=a["A"], B=a["B"])
        gain = cc.exact_l1_gain(sys_)
        cert = cc.l1_certificate(sys_, gain)
        supply = cc.gain_supply_rate(sys_, gain)
        grid = cc.TimeGrid(0.0, a["t1"], a["steps"])
        reports = []
        for u, x0 in zip(a["u"], a["x0"]):
            rep = cc.simulate_and_check_dissipation(
                sys_, supply, cert.p, cc.TrajectoryGrid(grid, u), x0
            )
            reports.append({"holds": rep.holds, "worst_window": rep.worst_window,
                            "quad_tol": rep.quad_tol, "states": rep.states.values})
        return {"gain": gain, "p": cert.p, "reports": reports}

    def execute(self, task, pid):
        """Run one problem; returns ((cpu s, wall s), output, fingerprint)."""
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            if "argv" in task:
                code, path = self.cli_run(pid, task["argv"])
            else:
                result = getattr(self, task["op"])(task["arrays"])
        except Exception as exc:  # a raising problem is a failed problem, not a crash
            elapsed = (time.thread_time() - cpu, time.perf_counter() - wall)
            text = f"{type(exc).__name__}: {exc}"
            return elapsed, {"exception": text}, text
        elapsed = (time.thread_time() - cpu, time.perf_counter() - wall)
        if "argv" in task:
            with open(path, "rb") as fh:
                raw = fh.read()
            return (elapsed, {"doc": json.loads(raw), "exit": code},
                    hashlib.sha256(raw).hexdigest() + f":{code}")
        return elapsed, result, _fingerprint(result)


def timed_phase(runner, tasks, seconds, tracer=None):
    """Whole rounds over tasks until seconds of wall time have passed."""
    times = []
    walls = []
    first = {}
    prints = {t["id"]: [] for t in tasks}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for t in tasks:
            if tracer is not None:
                tracer.problem(t["id"])
            (cpu, wall), output, fp = runner.execute(t["task"], t["id"])
            times.append(cpu)
            walls.append(wall)
            prints[t["id"]].append(fp)
            first.setdefault(t["id"], output)
        rounds += 1
    return {"times": times, "walls": walls, "first": first, "prints": prints,
            "rounds": rounds}


def main(argv):
    workdir, src, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    sys.path.insert(0, src)
    with open(os.path.join(workdir, "tasks.pkl"), "rb") as fh:
        tasks = pickle.load(fh)
    runner = Runner(workdir)

    # warm-up: one problem of each kind, untimed, so lazy imports and first
    # calls are paid before timing
    seen = set()
    for t in tasks:
        key = t["task"].get("op") or t["task"]["argv"][0]
        if key not in seen:
            seen.add(key)
            runner.execute(t["task"], t["id"])

    if trace:
        seconds /= 2.0
    phases = [timed_phase(runner, tasks, seconds)]
    out = {"phases": phases}
    if trace:
        from spans import Tracer

        tracer = Tracer()
        out["trace_sites"] = tracer.install()
        phases.append(timed_phase(runner, tasks, seconds, tracer))
        tracer.uninstall()
        incl, own = tracer.totals()
        out["trace"] = {"incl": dict(incl), "self": dict(own), "counts": dict(tracer.counts)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(workdir, "result.pkl"), "wb") as fh:
        pickle.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
