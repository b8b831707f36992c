#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds
perfbench/bench.exe with dune (output in _build, shared cache off, so
nothing is written outside the checkout), then runs it with the same
arguments.  The last line of standard output is the benchmark's JSON
result; build output goes to standard error.  The exit code is the
benchmark's: 0 when every check passed.

--workload all runs scale-uniform, hot-commit and crash-recover in turn,
prints each one's table, and ends with one JSON line whose metrics are
named <workload>.<metric>.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["scale-uniform", "hot-commit", "crash-recover"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run from the root of a source checkout (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
        check=True,
        timeout=BUILD_TIMEOUT_S,
    )


def bench(workload, args):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload != "all":
        proc = bench(args.workload, args)
        sys.exit(proc.returncode)
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for w in WORKLOADS:
        print(f"== {w}")
        proc = bench(w, args)
        code = code or proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
