#!/usr/bin/env python3
"""Time `python3 -m conecert.cli` on the sample problems in alternating parent/change pairs.

Usage, from anywhere in a conecert checkout:
    python3 scripts/cli_wall.py PARENT --output BENCH_N.json [--pairs 10]

PARENT is any git revision.  The change is the checkout's tracked files as
they are in the working tree.  Each side is unpacked once into a fresh
directory, as scripts/bench_pairs.py does, and runs every sample once
untimed, which leaves its __pycache__ in place.  Pair k then runs each
sample problem in a new interpreter, `python3 -m conecert.cli COMMAND
--input SAMPLE --output FILE` with the side's src on PYTHONPATH, the parent
first in even pairs and the change first in odd ones.  The time is the wall
time of the process, from start to exit.

Per sample, the output holds both sides' per-run times, medians and
quartiles (numpy.percentile 25/75), the pairs the change won and the exit
codes.  It goes under "cli_wall" in the output BENCH file, which is created,
or updated in place when it exists.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
import time

from bench_pairs import ROOT, Sides, git, summary


def run_cli(where, command, sample):
    """(wall seconds, exit code) of one CLI run on sample in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(where, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-m", "conecert.cli", command, "--input", sample,
            "--output", os.path.join(where, "out.json")]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=where, env=env, capture_output=True)
    return time.perf_counter() - start, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--output", required=True, help="BENCH file to create or update")
    args = parser.parse_args()

    samples = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "sample_problems", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            samples[os.path.basename(path)] = (json.load(fh)["command"], path)
    runs = {name: {"parent": [], "change": []} for name in samples}
    codes = {name: {"parent": set(), "change": set()} for name in samples}
    with tempfile.TemporaryDirectory(prefix="cli_wall-") as workdir:
        sides = Sides(args.parent, workdir)
        where = {side: sides.unpack(side) for side in ("parent", "change")}
        for side in where:
            for command, path in samples.values():
                run_cli(where[side], command, path)
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for name, (command, path) in samples.items():
                for side in order:
                    wall, code = run_cli(where[side], command, path)
                    runs[name][side].append(wall)
                    codes[name][side].add(code)
            print(f"pair {k}: " + ", ".join(
                f"{name} {runs[name]['parent'][-1]:.3f} -> {runs[name]['change'][-1]:.3f} s"
                for name in samples), flush=True)

    out = {
        "command": "python3 -m conecert.cli <command> --input sample_problems/<sample> "
                   "--output <file>, one new interpreter per run",
        "parent_sha": git("rev-parse", args.parent).decode().strip(),
        "order": "pairs alternate which side runs first (even index: parent first); each "
                 "side ran every sample once untimed first, so its bytecode was cached",
        "pairs": args.pairs,
        "timing": "wall time of the process, seconds",
        "samples": {},
    }
    for name, (command, _) in samples.items():
        parent, change = runs[name]["parent"], runs[name]["change"]
        out["samples"][name] = {
            "command": command,
            "exit_codes": {side: sorted(c) for side, c in codes[name].items()},
            "parent": summary(parent),
            "change": summary(change),
            "change_better_in_pairs": sum(c < p for p, c in zip(parent, change)),
        }
        m = out["samples"][name]
        print(f"{name} ({command}): parent {m['parent']['median']:.4f} s, change "
              f"{m['change']['median']:.4f} s; change faster in "
              f"{m['change_better_in_pairs']}/{args.pairs} pairs")
    doc = {}
    if os.path.exists(args.output):
        with open(args.output, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["cli_wall"] = out
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
