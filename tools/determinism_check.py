#!/usr/bin/env python3
"""Runs one command twice and checks that its outputs are identical.

Usage: determinism_check.py OUTDIR -- CMD [ARG...]

Run a executes CMD in a fresh OUTDIR/a, run b in a fresh OUTDIR/b pinned
to the lowest CPU of the caller's affinity mask, so the host thread pool
(sized from that mask) runs every item inline. Both runs must exit 0 and
leave the same files, stdout kept as stdout.txt among them, each
byte-identical to its twin once every "wall_us":<number> is zeroed: host
wall time is the only value the tools export that simulated time does
not fix. A relative CMD path is made absolute; relative export paths
land in the run directory. On success prints run a's stdout, then
"determinism: N outputs identical"; on failure prints
"determinism_check: <reason>" to stderr and exits 1.
"""
import os
import re
import shutil
import subprocess
import sys

WALL_US = re.compile(rb'"wall_us":[0-9.eE+-]+')


def fail(reason):
    sys.exit(f"determinism_check: {reason}")


def run(cmd, rundir, cpu):
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        with open(os.path.join(rundir, "stdout.txt"), "wb") as out:
            code = subprocess.run(cmd, cwd=rundir, stdout=out,
                                  preexec_fn=pin).returncode
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if code != 0:
        fail(f"run {os.path.basename(rundir)} exited {code}: {' '.join(cmd)}")


def outputs(rundir):
    return {os.path.relpath(os.path.join(d, f), rundir)
            for d, _, files in os.walk(rundir) for f in files}


def lines(path):
    with open(path, "rb") as f:
        return WALL_US.sub(b'"wall_us":0', f.read()).split(b"\n")


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        fail("usage: determinism_check.py OUTDIR -- CMD [ARG...]")
    outdir, cmd = argv[1], argv[3:]
    if os.sep in cmd[0]:
        cmd[0] = os.path.abspath(cmd[0])
    a, b = os.path.join(outdir, "a"), os.path.join(outdir, "b")
    run(cmd, a, None)
    run(cmd, b, min(os.sched_getaffinity(0)))
    names, names_b = outputs(a), outputs(b)
    if names != names_b:
        fail(f"outputs differ: only in a {sorted(names - names_b)}, "
             f"only in b {sorted(names_b - names)}")
    for name in sorted(names):
        la, lb = lines(os.path.join(a, name)), lines(os.path.join(b, name))
        if la != lb:
            i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                     min(len(la), len(lb)))
            fail(f"{name} differs at line {i + 1}")
    with open(os.path.join(a, "stdout.txt"), "rb") as f:
        sys.stdout.buffer.write(f.read() + b"determinism: %d outputs "
                                b"identical\n" % len(names))


if __name__ == "__main__":
    main(sys.argv)
