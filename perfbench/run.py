#!/usr/bin/env python3
"""Build and run one perfbench workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload compile|exec|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/main.exe with dune (inside the repository only: the
shared dune cache is off), runs it with the same arguments, and passes
its output through.  The last line of stdout is the result object; it
is printed only when it carries exactly the metrics BENCHMARK.json names
for the mode, each with its unit.  Exits non-zero, printing no result,
if the build fails, the workload fails or times out, or the result is
malformed.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def expected_units(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Return the result object if it is well formed, else fail."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line of output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    units = expected_units(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(got) & set(units) if got[n] != units[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s"
             % (missing, extra, wrong))
    return result


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", EXE],
            env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = run.stdout.decode().splitlines()
    if not lines:
        fail("workload printed no result (exit %d)" % run.returncode)
    result = validate(lines[-1], trace)
    print("\n".join(lines))
    if run.returncode != 0 or not result["correct"] or result["failed"] != 0:
        fail("workload reported %s failed operations (exit %d)"
             % (result["failed"], run.returncode))


if __name__ == "__main__":
    main(sys.argv[1:])
