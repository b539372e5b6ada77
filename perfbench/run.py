#!/usr/bin/env python3
"""Build and run the ftspan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds
perfbench/perfbench.exe from source with dune (inside the tree, with the
shared dune cache off), runs one workload, and checks that the result
line names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), with their units.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output check passed; 1 when a check failed
(the result line is still printed, with "correct": false); 2 on a usage
error, a failed build, a malformed result or a timeout (no result line).
"""

import argparse
import ctypes
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH or in an opam switch")


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turns off address-space randomization for the program about to be
    exec'd (Linux personality flag, as `setarch -R` does), so that its
    memory layout, and with it the cache and branch-predictor conflicts
    that layout sets up, repeat from run to run.  A no-op where the call
    is not available."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run(cmd, timeout):
    """Runs cmd in ROOT with a fixed memory layout; stdout is captured,
    stderr passes through.  On timeout the child is killed and waited
    for."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build():
    dune = find_dune()
    # The compiler sits next to dune in an opam switch.
    path = os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", "")
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path)
    cmd = [dune, "build", "--root", ".", "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        fail("build failed")


def check_result(line, declared):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(declared) - set(metrics)),
            sorted(set(metrics) - set(declared)))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            return "metric %s has unit %r, expected %r" % (
                name, m.get("unit"), declared[name])
        if not isinstance(m["value"], (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_file):
        fail("BENCHMARK.json not found in " + ROOT)
    with open(spec_file) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}

    build()
    code, out = run([os.path.join(".", EXE), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    problem = check_result(lines[-1], declared) if out.strip() else "no output"
    if problem:
        sys.stderr.write(out)
        fail("%s (exit %d)" % (problem, code))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
