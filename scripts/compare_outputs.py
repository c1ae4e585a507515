#!/usr/bin/env python3
"""Compare two conecert source trees output for output on the benchmark inputs.

Usage:
    python3 scripts/compare_outputs.py SRC_A SRC_B [--seeds 7 11 23]

SRC_A and SRC_B are conecert checkouts or their src directories.  The tasks
of every benchmark workload at each seed (benchmark/inputs.generate), the
three sample problems, and `validate` on every problem file are built once
in a temporary directory.  Each tree then runs all of them through
benchmark/worker.Runner.execute in one fresh interpreter of its own.  Every
task whose fingerprint differs (the output bytes and exit code of a CLI
task, the result or exception of a library task) is printed, and the exit
code is 1 if any does.  Nothing is written in either checkout.
"""

import argparse
import os
import pickle
import subprocess
import sys
import tempfile

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
prints = {t["id"]: runner.execute(t["task"], t["id"])[2] for t in tasks}
with open(prints_path, "wb") as fh:
    pickle.dump(prints, fh)
"""


def build_tasks(seeds, workdir):
    """(id, task) for every workload and seed, the samples, and validate on each file."""
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
    for t in list(tasks):
        if "argv" in t["task"]:
            path = t["task"]["argv"][t["task"]["argv"].index("--input") + 1]
            tasks.append({"id": f"validate.{t['id']}",
                          "task": {"argv": ["validate", "--input", path]}})
    return tasks


def run_tree(src, tmp):
    """Fingerprint of every task, run by src's conecert in a fresh interpreter.

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

    differ = [t["id"] for t in tasks if prints[0][t["id"]] != prints[1][t["id"]]]
    for pid in differ:
        print(f"DIFFERS {pid}\n  A: {prints[0][pid]}\n  B: {prints[1][pid]}")
    print(f"{len(tasks)} tasks, {len(differ)} differ "
          f"(A = {srcs[0]}, B = {srcs[1]}, seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
