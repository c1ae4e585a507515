#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge them by the pair rule.

Usage, from anywhere in a conecert checkout:
    python3 scripts/bench_pairs.py PARENT --workloads kyp_decide lp_certify
        --first-seed 2001 --pairs 10 --seconds 25 --output BENCH_N.json
        [--claim kyp_decide:problem_ms_p50]

PARENT is any git revision.  The change is the checkout's tracked files as
they are in the working tree.  Before every run the side about to run is
unpacked into a fresh directory (the parent by `git archive`, the change by
copying its files), so neither side has a __pycache__, and
`benchmark/run.py --trace 0` runs there under PYTHONDONTWRITEBYTECODE=1.
Pair k of every workload runs seed FIRST_SEED + k; even pairs run the
parent first, odd pairs the change.  The end-to-end metrics, their units,
directions and bounds are read from BENCHMARK.json.

The output file holds per-run values, each side's median and quartiles
(numpy.percentile 25/75), the parent's interquartile range, the pairs the
change won and the ratio of medians, plus failed, attempted, correct and
the host's load averages (os.getloadavg, taken just before the run) per
run, and per pair the ratio change/parent of the claimed metric
(problems_per_s on a workload without a claim), so a series run on a busy
host shows in the record.  Each pair's line prints both values, the
1-minute load average before each run and that ratio.  At the end the
script prints, per workload and metric, the verdict of the pair
rule (a gain counts when the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's interquartile range) and
whether the change stays within the metric's bound.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RULE = ("change better in at least 9 of 10 pairs, and the median difference larger "
        "than the parent's interquartile range")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


class Sides:
    """Unpacks the parent (a git archive) or the change (tracked files) into fresh directories."""

    def __init__(self, parent, workdir):
        self.archive = git("archive", "--format=tar", parent)
        self.files = [f for f in git("ls-files", "-z").decode().split("\0")
                      if f and os.path.isfile(os.path.join(ROOT, f))]
        self.workdir = workdir
        self.count = 0

    def unpack(self, side):
        self.count += 1
        where = os.path.join(self.workdir, f"{self.count:03d}-{side}")
        os.makedirs(where)
        if side == "parent":
            with tarfile.open(fileobj=io.BytesIO(self.archive)) as tar:
                tar.extractall(where, filter="data")
        else:
            for rel in self.files:
                os.makedirs(os.path.dirname(os.path.join(where, rel)), exist_ok=True)
                shutil.copy2(os.path.join(ROOT, rel), os.path.join(where, rel))
        return where


def run_once(sides, side, workload, seed, seconds):
    """The last-line JSON of one benchmark run in a fresh copy of side, with the
    host's load averages (1, 5 and 15 minutes) taken just before it started."""
    where = sides.unpack(side)
    try:
        load = [round(v, 2) for v in os.getloadavg()]
        done = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", "0"],
            cwd=where, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(where, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {side} {workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    return dict(json.loads(done.stdout.strip().splitlines()[-1]), loadavg=load)


def summary(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in runs]}


def compare(spec, parent_runs, change_runs):
    """One metric of one workload: both sides' summaries and the pair counts."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    parent, change = summary(parent_runs), summary(change_runs)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": parent,
        "change": change,
        "change_better_in_pairs": sum(sign * (c - p) > 0
                                      for p, c in zip(parent_runs, change_runs)),
        "median_ratio_change_over_parent": round(change["median"] / parent["median"], 4),
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
    }


def verdict(spec, m, pairs):
    """(gain shown, regression verdict) of one metric, by the pair rule and the bound."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    gain = sign * (m["change"]["median"] - m["parent"]["median"])
    shown = m["change_better_in_pairs"] >= 0.9 * pairs and gain > m["parent_iqr"]
    worse = -gain / abs(m["parent"]["median"])
    if m["parent_iqr"] / abs(m["parent"]["median"]) > spec["bound"]:
        best_parent = max(sign * v for v in m["parent"]["runs"])
        everywhere = all(sign * v > best_parent for v in m["change"]["runs"])
        bound = "better in every run" if everywhere else "unresolved: spread wider than the bound"
    elif worse > spec["bound"]:
        bound = f"WORSE than the bound {spec['bound']:g}"
    else:
        bound = f"within the bound {spec['bound']:g}"
    return shown, bound


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair k of every workload runs this seed + k")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--output", required=True, help="BENCH file to write")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    parent_sha = git("rev-parse", args.parent).decode().strip()
    seeds = [args.first_seed + k for k in range(args.pairs)]
    claim_workload, claim_metric = args.claim.split(":") if args.claim else (None, None)

    doc = {
        "benchmark": f"python3 benchmark/run.py --workload <w> --seed <s> "
                     f"--seconds {seconds:g} --trace 0",
        "parent_sha": parent_sha,
        "change": "the working tree's tracked files; both sides were unpacked into fresh "
                  "directories before every run (parent by git archive, change from its "
                  "files) and run from there with PYTHONDONTWRITEBYTECODE=1, so neither "
                  "side had a __pycache__",
        "order": "pairs alternate which side runs first (even index: parent first); one "
                 "seed per pair; workloads ran one after another, in the order listed",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": metadata.version("scipy"),
                 "machine": platform.machine()},
        "seconds": seconds,
        "timing": "main-thread CPU time, as benchmark/run.py reports it",
        "quartiles": "numpy.percentile 25/75, linear interpolation",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        sides = Sides(args.parent, workdir)
        for workload in args.workloads:
            # the claimed metric on the claimed workload, problems per second elsewhere
            pair_metric = claim_metric if workload == claim_workload else "problems_per_s"
            out = {side: [] for side in ("parent", "change")}
            ratios = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    out[side].append(run_once(sides, side, workload, seed, seconds))
                value = {side: out[side][-1]["metrics"][pair_metric]["value"] for side in out}
                ratios.append(round(value["change"] / value["parent"], 4))
                print(f"{workload} pair {k} seed {seed}: " + ", ".join(
                    f"{side} {value[side]:.4g} {specs[pair_metric]['unit']} (load before "
                    f"{out[side][-1]['loadavg'][0]:.2f})" for side in order)
                    + f"; {pair_metric} change/parent {ratios[-1]:.4f}", flush=True)
            doc["workloads"][workload] = {
                "pairs": args.pairs,
                "seeds": seeds,
                **{key: {side: [r[key] for r in out[side]] for side in out}
                   for key in ("failed", "attempted", "correct", "loadavg")},
                "pair_ratios": {"metric": pair_metric, "change_over_parent": ratios},
                "metrics": {
                    name: compare(spec, *([r["metrics"][name]["value"] for r in out[side]]
                                          for side in ("parent", "change")))
                    for name, spec in specs.items()
                },
            }

    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            shown, bound = verdict(specs[name], m, w["pairs"])
            print(f"{workload} {name}: parent {m['parent']['median']:g}, change "
                  f"{m['change']['median']:g} {m['unit']} (ratio "
                  f"{m['median_ratio_change_over_parent']:g}); change better in "
                  f"{m['change_better_in_pairs']}/{w['pairs']} pairs, parent IQR "
                  f"{m['parent_iqr']:g}; gain {'shown' if shown else 'not shown'}; {bound}")
        print(f"{workload}: failed parent {sum(w['failed']['parent'])}, change "
              f"{sum(w['failed']['change'])}; correct in every run: "
              f"{all(w['correct']['parent'] + w['correct']['change'])}")
    if args.claim:
        m, pairs = doc["workloads"][claim_workload]["metrics"][claim_metric], args.pairs
        shown, _ = verdict(specs[claim_metric], m, pairs)
        doc["claim"] = {
            "metric": claim_metric, "workload": claim_workload, "rule": RULE,
            "change_better_in_pairs": m["change_better_in_pairs"], "pairs": pairs,
            "median_difference": round(m["change"]["median"] - m["parent"]["median"], 4),
            "parent_iqr": m["parent_iqr"], "met": shown,
        }
        print(f"claim {claim_metric} on {claim_workload}: {'met' if shown else 'NOT met'}")
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
