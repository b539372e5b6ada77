#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, from the root of a source tree, that
  - BENCHMARK.json has the declared shape and limits;
  - every workload runs in both modes and emits exactly the metrics
    BENCHMARK.json declares for the mode (run.py enforces the names and
    units), with every end-to-end metric non-zero;
  - a failed output check makes the command exit non-zero (the program's
    --corrupt flag checks the empty spanner in place of each output);
  - an unknown workload, and a directory holding only BENCHMARK.json and
    the benchmark's files, make run.py exit non-zero without a result.
Takes a few minutes; prints one line per check and exits 1 on a failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(what, ok, detail=""):
    print("%s  %s%s" % ("ok  " if ok else "FAIL", what, (": " + detail) if detail and not ok else ""))
    sys.stdout.flush()
    if not ok:
        failures.append(what)


def run_py(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=1200)


def last_json(out):
    try:
        return json.loads(out.strip().split("\n")[-1])
    except (ValueError, IndexError):
        return None


def check_spec(spec):
    check("BENCHMARK.json keys",
          set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
    check("2 to 8 workloads", 2 <= len(spec["workloads"]) <= 8)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check("names well formed and unique",
          all(NAME.match(n) for n in names) and len(names) == len(set(names)))
    check("units well formed", all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]))
    check("bounds at most 0.25", all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check("setup_s declared in seconds, lower is better, largest bound",
          len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]))


def check_workload(spec, w):
    for trace in (0, 1):
        group = "per_layer" if trace else "end_to_end"
        proc = run_py(["--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
        result = last_json(proc.stdout)
        ok = proc.returncode == 0 and result is not None and result["correct"]
        check("%s --trace %d runs and passes its checks" % (w, trace), ok, proc.stderr[-400:])
        if not ok:
            continue
        declared = {m["name"] for m in spec[group]}
        check("%s --trace %d emits every %s metric" % (w, trace, group),
              set(result["metrics"]) == declared)
        if not trace:
            zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
            check("%s end-to-end metrics are non-zero" % w, not zero, str(zero))
    proc = subprocess.run([EXE, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0",
                           "--corrupt"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    result = last_json(proc.stdout)
    check("%s exits non-zero when an output check fails" % w,
          proc.returncode != 0 and result is not None and not result["correct"]
          and result["failed"] > 0)


def check_bare_tree():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py(["--workload", "build-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=bare)
    check("a tree without the program exits non-zero without a result",
          proc.returncode != 0 and last_json(proc.stdout) is None)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    proc = run_py(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
    check("an unknown workload exits non-zero without a result",
          proc.returncode != 0 and last_json(proc.stdout) is None)
    for w in spec["workloads"]:
        check_workload(spec, w["name"])
    check_bare_tree()
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
