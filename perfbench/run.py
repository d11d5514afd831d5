#!/usr/bin/env python3
"""Build and run the twm benchmark.

    python3 perfbench/run.py --workload campaign_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark builds the library from
source with CMake into the directory named by $CARGO_TARGET_DIR (default
.bench_build), then runs the `perfbench` binary, whose last output line is
the JSON result.  Build output goes to stderr.  `--workload all` runs every
workload in turn, each in its own process (peak_rss_mb is per process).
`--self-test` builds and runs the benchmark's own tests.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign_mix", "huge_sparse", "service_mixed"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no twm sources next to perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", "4"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return out


def main(argv):
    if argv == ["--self-test"]:
        out = build("perfbench_test")
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode

    args = list(argv)
    workloads = None
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            workloads = WORKLOADS
            del args[i:i + 2]
    out = build("perfbench")
    binary = os.path.join(out, "perfbench")
    common = ["--out-dir", out]
    if workloads is None:
        return subprocess.run([binary] + args + common).returncode
    rc = 0
    for w in workloads:
        sys.stdout.flush()
        rc |= subprocess.run([binary, "--workload", w] + args + common).returncode
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
