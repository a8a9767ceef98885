#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 2014 --seconds 20 --trace 0

It builds perfbench/bench.exe from source with dune (the repository's
libraries included), runs it, and passes its output through: a report on
stderr and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  It exits non-zero, without a
result line, when the sources are missing or the build or run fails.
--workload all runs the three workloads in turn, one result line each.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_grid", "serve_open", "exact_cells")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The program under test is built from this checkout's sources.
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("run from the root of a repository checkout (no %s here)" % needed, 2)

    # Keep dune's shared cache out of the picture: the build reads and
    # writes only this checkout's _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed", 3)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run_workload(w, args) for w in workloads))


def run_workload(workload, args):
    """Run bench.exe on one workload, pass its output on, return its exit code."""
    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    out = run.stdout.decode()
    check_metric_names(out, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return run.returncode


def check_metric_names(out, trace):
    """Refuse a result whose metrics differ from those BENCHMARK.json lists."""
    if not os.path.exists("BENCHMARK.json") or not out.strip():
        return
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    try:
        got = list(json.loads(out.strip().splitlines()[-1])["metrics"])
    except (ValueError, KeyError):
        fail("the last line of the benchmark's output is not a result", 5)
    if sorted(got) != sorted(expected):
        fail("metrics %s differ from BENCHMARK.json's %s" % (got, expected), 5)


if __name__ == "__main__":
    main()
