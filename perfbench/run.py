#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload adhoc_read --seed 1 --seconds 15 --trace 0

Builds `perfbench` (a package of its own that depends on the repository's
crates by path) in release mode into $CARGO_TARGET_DIR, default
`.bench_build` at the repository root, then runs the workload in its own
process so `peak_rss_mb` covers that workload alone.  Everything the
harness prints is passed through; its last line is the result object.
With --trace 1 the spans of the traced loop are written next to the
build as `perfbench-spans-<workload>-<seed>.jsonl`.

Exits with the harness's status, or 1 if the build fails or no result
was printed; a wrong answer is a non-zero exit.  The default seed is 1;
seed 1009 is held out for re-checking claims (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("adhoc_read", "publish_maintain", "midquery_failure")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = "perfbench-spans-%s-%d.jsonl" % (args.workload, args.seed)
        cmd += ["--spans", os.path.join(target, spans)]
    run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        print("perfbench: %s exited with status %d" % (args.workload, run.returncode),
              file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        print("perfbench: malformed or incorrect result", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
