#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in one fresh process. The last line of its output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is non-zero when the build fails, an output check or a
self-consistency gate fails, or the run overruns its time limit.

`--workload all` runs every workload twice with the same seed (untraced,
then traced), prints the end-to-end table, and fails unless the exact
counts of the two processes are identical.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

WORKLOADS = ["serve_hot", "serve_churn", "solve_large"]
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "qbench.exe")
# A run must end within 180 s; the build of a fresh checkout is allowed
# to take longer, so only the measuring process is bounded here.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/qbench.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, env=env)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("benchmark build failed:\n" + r.stdout)
    return EXE


def run_one(exe, workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-seed%d.trace.json" % (workload, seed))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--trace-out", out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s overran %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, lines, result


def exact_counts(lines):
    return [l for l in lines if re.match(r"\s*exact counts", l)]


def run_all(exe, seed, seconds):
    ok = True
    rows = []
    for w in WORKLOADS:
        code0, lines0, res0 = run_one(exe, w, seed, seconds, 0)
        for l in lines0[:-1]:
            print(l)
        code1, lines1, res1 = run_one(exe, w, seed, seconds, 1)
        for l in lines1[:-1]:
            print(l)
        if code0 != 0 or code1 != 0 or res0 is None or res1 is None:
            print("%s: FAILED (exit %d / %d)" % (w, code0, code1))
            ok = False
            continue
        same = exact_counts(lines0) == exact_counts(lines1)
        print("%s: exact counts of the untraced and the traced process %s"
              % (w, "agree" if same else "DIFFER"))
        ok = ok and same
        notes = {}
        for l in lines0:
            m = re.match(r"\s+(\S+)\s+\S+\s+\S+\s+(\(.*\))\s*$", l)
            if m:
                notes[m.group(1)] = m.group(2)
        for name, m in res0["metrics"].items():
            rows.append((w, name, m["value"], m["unit"], notes.get(name, "")))
    print()
    print("%-12s %-16s %14s %-5s %s" % ("workload", "metric", "value", "unit", "samples"))
    for w, name, v, u, note in rows:
        print("%-12s %-16s %14.6g %-5s %s" % (w, name, v, u, note))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    t0 = time.time()
    exe = build()
    print("built in %.1f s" % (time.time() - t0))
    if args.workload == "all":
        sys.exit(run_all(exe, args.seed, args.seconds))
    code, lines, result = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
    for l in lines:
        print(l)
    sys.stdout.flush()
    if code == 0 and result is None:
        fail("the benchmark printed no result")
    sys.exit(code)


if __name__ == "__main__":
    main()
