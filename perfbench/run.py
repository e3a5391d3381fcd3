#!/usr/bin/env python3
"""Builds and runs the host-time benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck --workload NAME --seed N --seconds S

The driver is compiled from ../src into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use; later runs only re-check the
build. Build output goes to standard error, so standard output carries the
driver's report, whose last line is the result JSON. The exit code is the
driver's: nonzero when an output check failed.

--selfcheck runs the same seed twice and fails unless the modeled metrics,
the counts and the output digest are bit-identical and every host metric
agrees within its bound from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# End-to-end metrics that are simulated time or derived from it only.
MODELED = ("modeled_s", "query_p50_ms", "query_tail_ms", "goodput_qps")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "pgb_perfbench", "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "pgb_perfbench")


def run_driver(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(build_dir(), "out")]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return r.returncode, r.stdout


def parse(stdout):
    lines = stdout.strip().splitlines()
    digest = next((l for l in lines if l.startswith("digest: ")), None)
    return json.loads(lines[-1]), digest


def selfcheck(binary, args):
    """Two same-seed runs: modeled metrics, counts and outputs bit-identical;
    host metrics within the bounds BENCHMARK.json fixes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = []
    for _ in range(2):
        code, out = run_driver(binary, args.workload, args.seed, args.seconds, 0)
        if code != 0:
            sys.stdout.write(out)
            return code
        runs.append(parse(out))
    (a, da), (b, db) = runs
    problems = []
    if da != db:
        problems.append("digest differs: %s vs %s" % (da, db))
    for k in ("attempted", "failed", "correct"):
        if a[k] != b[k]:
            problems.append("%s differs: %s vs %s" % (k, a[k], b[k]))
    for name, bound in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if name in MODELED:
            ok = x == y
        else:
            ok = abs(y - x) <= bound * abs(x)
        print("%-16s %-22.10g %-22.10g %s" % (name, x, y, "ok" if ok else "MISMATCH"))
        if not ok:
            problems.append(name)
    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.selfcheck:
        return selfcheck(binary, args)
    code, out = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
