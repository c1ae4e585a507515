"""conecert benchmark: drives the program from outside and checks every output.

Usage, from the root of a conecert checkout:
    python3 benchmark/run.py --workload {lp_certify,kyp_decide,trajectories}
                             --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed into a scratch directory in
the checkout, times a fresh interpreter importing conecert.cli, runs the
problems in a worker process (worker.py) for S seconds of whole rounds,
checks every output (checks.py), and prints one JSON object as the last line
of standard output.  With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (spans.py).
"""

import argparse
import contextlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys

import numpy as np

import checks
import inputs
from spans import TRACED

SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150.0


def child_env(src):
    # a fixed hash seed takes one source of process-to-process variation out
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")


def setup_seconds(src):
    """Median, over SETUP_RUNS fresh interpreters, of the CPU time the main
    thread of a new interpreter spends until `import conecert.cli` has
    finished (see worker.py for why CPU time).

    One untimed run first leaves compiled bytecode in place, as an installed
    package has.
    """
    code = "import conecert.cli, time; print(repr(time.thread_time()))"
    samples = []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(src), check=True,
                              capture_output=True, text=True, timeout=60)
        if k:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def run_worker(workdir, src, seconds, trace):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"), workdir, src, repr(seconds),
           "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=child_env(src))
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded its time limit")
    finally:
        # on a timeout, an interrupt or SIGTERM the worker is stopped and reaped
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(os.path.join(workdir, "result.pkl"), "rb") as fh:
        return pickle.load(fh)


def judge(problems, phase):
    """(attempted, failed, failures by problem) for one timed phase.

    A run of a problem fails when the first output of the problem fails its
    checks, or when its output differs from that first output.
    """
    attempted = failed = 0
    failures = {}
    for p in problems:
        reasons = checks.check(p, phase["first"][p["id"]])
        prints = phase["prints"][p["id"]]
        for fp in prints:
            attempted += 1
            bad = list(reasons)
            if fp != prints[0]:
                bad.append("output differs from the first pass over the same input")
            if bad:
                failed += 1
                failures.setdefault(p["id"], bad)
    return attempted, failed, failures


def percentile_with_tail(times_ms):
    """Highest of p90/p99/p999 with at least ten samples beyond it."""
    n = len(times_ms)
    best = None
    for q in (90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = (q, float(np.percentile(times_ms, q)))
    return best


def round_rate(phase):
    """Problems per second of a round made of each problem's median time.

    A host that slows the program for a few seconds slows a few problems of
    one round; the median over rounds of each problem leaves them out, as a
    mean over all problems does not.
    """
    times = phase["times"]
    per = len(times) // phase["rounds"]
    return per / sum(statistics.median(times[i::per]) for i in range(per))


def end_to_end(phase, setup_s, peak_rss_mb):
    times = phase["times"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "problems_per_s": {"value": round_rate(phase), "unit": "1/s"},
        "problem_ms_p50": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(result):
    """Per problem attempted in the traced phase; counts repeat exactly."""
    plain, traced = result["phases"]
    per = len(traced["times"])
    tr = result["trace"]
    metrics = {}
    for modname, fname, rule in TRACED:
        name = f"{modname}.{fname}"
        metrics[name + ".calls"] = {"value": tr["counts"].get(name + ".calls", 0) / per,
                                    "unit": "count"}
        metrics[name + ".ms"] = {"value": 1000.0 * tr["incl"].get(name, 0.0) / per,
                                 "unit": "ms"}
        metrics[name + ".self_ms"] = {"value": 1000.0 * tr["self"].get(name, 0.0) / per,
                                      "unit": "ms"}
    for key in ("simplex.solve_lp.cells", "certificates.psd_certificate.iterations",
                "certificates.psd_certificate.undecided", "kyp.frequency_condition.omegas",
                "numerics.ode_solve.steps"):
        metrics[key] = {"value": tr["counts"].get(key, 0) / per, "unit": "count"}
    pps_plain = round_rate(plain)
    pps_traced = round_rate(traced)
    metrics["trace.problems_per_s"] = {"value": pps_traced, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (pps_plain - pps_traced) / pps_plain,
                                     "unit": "%"}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    missing = [rel for rel in ["src/conecert/cli.py"] + sorted(inputs.SAMPLES.values())
               if not os.path.isfile(os.path.join(root, rel))]
    if missing:
        sys.exit(f"benchmark: run from the root of a conecert checkout; missing {missing}")

    workdir = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems = inputs.generate(args.workload, args.seed, root, workdir)
        tasks = [{"id": p["id"], "task": p["task"]} for p in problems]
        with open(os.path.join(workdir, "tasks.pkl"), "wb") as fh:
            pickle.dump(tasks, fh)
        setup_s = None if args.trace else setup_seconds(src)
        result = run_worker(workdir, src, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            os.rmdir(os.path.dirname(workdir))

    attempted = failed = 0
    failures = {}
    for phase in result["phases"]:
        a, f, why = judge(problems, phase)
        attempted, failed = attempted + a, failed + f
        failures.update(why)
    known = {p["id"] for p in problems if p["known_fault"]}
    correct = set(failures) <= known

    main_phase = result["phases"][-1]
    times_ms = [1000.0 * t for t in main_phase["times"]]
    tail = percentile_with_tail(times_ms)
    print(f"workload {args.workload} seed {args.seed}: {len(problems)} problems a round, "
          f"{main_phase['rounds']} rounds, {attempted} attempted, {failed} failed")
    for pid, why in sorted(failures.items()):
        tag = "known fault" if pid in known else "FAILED"
        print(f"  {tag} {pid}: {'; '.join(why)}")
    print(f"  p50 {statistics.median(times_ms):.2f} ms over {len(times_ms)} samples; "
          f"CPU/wall {sum(main_phase['times']) / sum(main_phase['walls']):.3f}")
    if tail:
        print(f"  p{tail[0]:g} {tail[1]:.2f} ms with {len(times_ms)} samples")
    else:
        print(f"  {len(times_ms)} samples: too few for a tail percentile")
    by_kind = {}
    for k, ms in enumerate(times_ms):
        by_kind.setdefault(problems[k % len(problems)]["id"].split("-")[0], []).append(ms)
    for kind, ms in by_kind.items():
        print(f"  {kind}: {len(ms) // main_phase['rounds']} a round, "
              f"median {statistics.median(ms):.1f} ms, range {min(ms):.1f}-{max(ms):.1f} ms")

    if args.trace:
        metrics = per_layer(result)
        print(f"  traced at {result['trace_sites']} module attributes")
    else:
        metrics = end_to_end(main_phase, setup_s, result["peak_rss_mb"])
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
